package main

// posWrap is the period of core.PositionSource's ramp in frames: every
// sample carries its frame index modulo this.
const posWrap = 20000

// delivery is one data packet as a socket saw it: the stream sequence
// number, the kernel receive stamp, and the datagram's length and hash.
type delivery struct {
	seq uint64
	ts  int64 // Unix ns
	n   int
	sum uint64
}

// streamCheck is the verdict on one probe's received stream.
type streamCheck struct {
	reorders   int // packets that arrived after a later seq (per-subscriber FIFO broken)
	duplicates int // second copies of a seq already received
	mismatches int // packets that differ from the tap's copy of the same seq
	unknown    int // packets the tap never saw
	missing    int // expected seqs the probe never received
}

// checkStream verifies one probe's deliveries against the tap's record
// of the same stream. Every probe must see seq rise; a second copy of a
// packet is counted apart (the caller reports it without failing the run:
// see README, findings, on the relay's catch-up seam). With
// identical set (a source-profile subscriber) each datagram must also
// equal the tap's copy byte for byte, compared by length and 64-bit
// hash. Every seq in [first, last] that the tap holds must have been
// delivered; first and last bound what this probe was owed, so a
// time-shifted probe is checked from its first replayed seq to the head.
func checkStream(got []delivery, ref map[uint64]delivery, identical bool, first, last uint64) streamCheck {
	var c streamCheck
	seen := make(map[uint64]bool, len(got))
	var prev uint64
	for i, d := range got {
		if seen[d.seq] {
			c.duplicates++
			continue
		}
		if i > 0 && d.seq < prev {
			c.reorders++
		}
		prev = d.seq
		seen[d.seq] = true
		r, ok := ref[d.seq]
		if !ok {
			c.unknown++
			continue
		}
		if identical && (r.n != d.n || r.sum != d.sum) {
			c.mismatches++
		}
	}
	if first == 0 {
		return c // nothing was owed
	}
	for seq := first; seq <= last; seq++ {
		if _, ok := ref[seq]; ok && !seen[seq] {
			c.missing++
		}
	}
	return c
}

// anchorFrame resolves a played position sample to an absolute stream
// frame. A PositionSource sample only says frame = pos (mod posWrap), so
// a speaker that joins late is ambiguous by whole ramps of 20,000 frames
// (453 ms at 44.1 kHz). head is the last frame the tap had seen on the
// wire when the block played: a speaker cannot play what has not been
// sent, and it plays within one ramp of the wire, so the frame is the
// largest candidate at or below head. phase is the position value of
// stream frame 0.
func anchorFrame(pos, phase int, head int64) int64 {
	back := ((head-rampFrame(pos, phase))%posWrap + posWrap) % posWrap
	return head - back
}

// rampFrame is the stream frame a position sample names, modulo posWrap.
func rampFrame(pos, phase int) int64 {
	return int64(((pos-phase)%posWrap + posWrap) % posWrap)
}

// followFrame resolves a later block of the same speaker: the candidate
// nearest to where playback would be had it simply gone on from the
// block before. Only the first block needs the wire; after it the ramp
// is unwrapped by continuity, which stays right however far playback
// falls behind the wire.
func followFrame(pos, phase int, expected int64) int64 {
	rel := rampFrame(pos, phase)
	k := (expected - rel + posWrap/2) / posWrap
	if expected-rel+posWrap/2 < 0 {
		k-- // floor, not truncate
	}
	return rel + k*posWrap
}
