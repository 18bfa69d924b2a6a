package main

import "testing"

func TestCheckStream(t *testing.T) {
	ref := map[uint64]delivery{}
	for seq := uint64(1); seq <= 10; seq++ {
		ref[seq] = delivery{seq: seq, n: 100, sum: seq * 7}
	}
	at := func(seq uint64) delivery { return ref[seq] }

	clean := []delivery{at(3), at(4), at(5), at(6)}
	if c := checkStream(clean, ref, true, 3, 6); c != (streamCheck{}) {
		t.Errorf("clean stream: %+v", c)
	}

	// Per-subscriber FIFO: seq must rise. A swap is a violation; a second
	// copy of a packet is counted apart, wherever it arrives.
	if c := checkStream([]delivery{at(3), at(5), at(4), at(6)}, ref, true, 3, 6); c.reorders != 1 || c.duplicates != 0 {
		t.Errorf("swapped pair: %+v, want 1 reorder", c)
	}
	if c := checkStream([]delivery{at(3), at(4), at(4), at(5), at(3)}, ref, true, 3, 5); c.reorders != 0 || c.duplicates != 2 {
		t.Errorf("two second copies: %+v, want 2 duplicates and no reorder", c)
	}

	// Byte identity, by length and by hash, for source-profile probes only.
	bad := at(4)
	bad.sum++
	short := at(5)
	short.n--
	got := []delivery{at(3), bad, short, at(6)}
	if c := checkStream(got, ref, true, 3, 6); c.mismatches != 2 {
		t.Errorf("altered packets: mismatches = %d, want 2", c.mismatches)
	}
	if c := checkStream(got, ref, false, 3, 6); c.mismatches != 0 {
		t.Errorf("a transcoded tier differs from the tap by design: mismatches = %d, want 0", c.mismatches)
	}

	// A gap inside what was owed; a packet the producer never sent.
	if c := checkStream([]delivery{at(3), at(6)}, ref, true, 3, 6); c.missing != 2 {
		t.Errorf("gap: missing = %d, want 2", c.missing)
	}
	if c := checkStream([]delivery{at(3), {seq: 99, n: 100}}, ref, true, 3, 3); c.unknown != 1 {
		t.Errorf("foreign packet: unknown = %d, want 1", c.unknown)
	}
	// Nothing owed (first = 0): nothing can be missing.
	if c := checkStream(nil, ref, true, 0, 0); c.missing != 0 {
		t.Errorf("nothing owed: missing = %d", c.missing)
	}
}

// A PositionSource sample names its frame only modulo 20,000. A speaker
// that joins a stream already minutes old, playing 330 ms behind the
// wire, must resolve to 330 ms — not to 330 ms plus whole ramps, which is
// how an unanchored reading turns 330 ms into 1,235 ms.
func TestAnchorFrame(t *testing.T) {
	const phase = 1234
	head := int64(7_000_000)              // frames on the wire when the block played
	lag := int64(330 * sampleRate / 1000) // 14,553 frames
	f := head - lag
	pos := int((f + phase) % posWrap)
	if got := anchorFrame(pos, phase, head); got != f {
		t.Fatalf("anchorFrame = %d (%.0f ms behind the wire), want %d (330 ms)",
			got, float64(head-got)*1000/sampleRate, f)
	}
	// Two ramps earlier is the 1,235 ms misreading; the anchor must not
	// land there or anywhere ahead of the wire.
	for _, lagMs := range []int64{0, 1, 100, 330, 452} {
		f := head - lagMs*sampleRate/1000
		pos := int((f + phase) % posWrap)
		if got := anchorFrame(pos, phase, head); got != f || got > head {
			t.Errorf("lag %d ms: anchorFrame = %d, want %d", lagMs, got, f)
		}
	}
}

// After the first block the ramp is unwrapped by continuity, so a
// speaker whose playback falls further behind the wire than one ramp —
// the simulated DAC drifts about 10 ms a second on the real clock — is
// still read correctly.
func TestFollowFrame(t *testing.T) {
	const phase = 19_999
	f := int64(123_456)
	for i := 0; i < 2000; i++ {
		// Each block starts 2,205 frames (50 ms) after the last; the
		// expectation is off by up to a quarter ramp either way.
		next := f + 2205
		pos := int((next + phase) % posWrap)
		for _, off := range []int64{-4999, 0, 4999} {
			if got := followFrame(pos, phase, next+off); got != next {
				t.Fatalf("block %d, expectation off by %d: followFrame = %d, want %d", i, off, got, next)
			}
		}
		f = next
	}
	if got := followFrame(5, 0, -3); got != 5 {
		t.Errorf("followFrame near zero = %d, want 5", got)
	}
}
