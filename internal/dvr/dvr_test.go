package dvr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/vclock"
)

// testClock is a hand-advanced clock: the ring only ever asks Now, so
// the rest of the interface rides on the real clock.
type testClock struct {
	vclock.Clock
	mu  sync.Mutex
	now time.Time
}

func simClock() *testClock {
	return &testClock{Clock: vclock.Real{}, now: time.Unix(1000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func pkt(i int) []byte { return []byte(fmt.Sprintf("pkt-%04d", i)) }

func TestRingAppendRead(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, 10*time.Second, 16)
	for i := 0; i < 5; i++ {
		r.Append(pkt(i), i == 0)
		clk.Advance(10 * time.Millisecond)
	}
	if r.Len() != 5 || r.Tail() != 0 || r.Head() != 5 {
		t.Fatalf("ring window [%d,%d) len %d, want [0,5) len 5", r.Tail(), r.Head(), r.Len())
	}
	var buf []byte
	for i := uint64(0); i < 5; i++ {
		data, age, ctl, st := r.Read(i, buf)
		if st != ReadOK {
			t.Fatalf("Read(%d) status %v", i, st)
		}
		if !bytes.Equal(data, pkt(int(i))) {
			t.Fatalf("Read(%d) = %q, want %q", i, data, pkt(int(i)))
		}
		if ctl != (i == 0) {
			t.Fatalf("Read(%d) ctl = %v", i, ctl)
		}
		wantAge := time.Duration(5-i) * 10 * time.Millisecond
		if age != wantAge {
			t.Fatalf("Read(%d) age = %v, want %v", i, age, wantAge)
		}
		buf = data
	}
	if _, _, _, st := r.Read(5, buf); st != ReadCaughtUp {
		t.Fatalf("Read(head) status %v, want ReadCaughtUp", st)
	}
}

func TestRingWrapEvictsOldest(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, time.Hour, 4)
	evicted := 0
	for i := 0; i < 10; i++ {
		evicted += r.Append(pkt(i), false)
		clk.Advance(time.Millisecond)
	}
	if evicted != 6 {
		t.Fatalf("evicted %d entries, want 6", evicted)
	}
	if r.Tail() != 6 || r.Head() != 10 {
		t.Fatalf("window [%d,%d), want [6,10)", r.Tail(), r.Head())
	}
	// A cursor the wrap passed reads as evicted: the reader re-clamps
	// to Tail and carries on — mid-catch-up wrap loses the oldest
	// backlog, never blocks the writer.
	if _, _, _, st := r.Read(3, nil); st != ReadEvicted {
		t.Fatalf("Read(evicted) status %v, want ReadEvicted", st)
	}
	data, _, _, st := r.Read(r.Tail(), nil)
	if st != ReadOK || !bytes.Equal(data, pkt(6)) {
		t.Fatalf("Read(tail) = %q/%v, want %q/ReadOK", data, st, pkt(6))
	}
}

func TestRingDepthTrimsByAge(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, 2*time.Second, 1024)
	for i := 0; i < 8; i++ {
		r.Append(pkt(i), false)
		clk.Advance(time.Second)
	}
	// 8 appends one second apart with a 2 s depth: only the youngest
	// two survive (trim happens on the touch, not on a timer).
	if r.Len() > 3 {
		t.Fatalf("ring holds %d entries, want <= 3 after age trim", r.Len())
	}
	if _, _, _, st := r.Read(0, nil); st != ReadEvicted {
		t.Fatalf("Read(aged-out) status %v, want ReadEvicted", st)
	}
}

func TestRingBufferReuse(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, time.Hour, 8)
	payload := bytes.Repeat([]byte{0xab}, 64)
	for i := 0; i < 8; i++ {
		r.Append(payload, false)
	}
	// Every slot buffer exists now; further appends must reuse them.
	allocs := testing.AllocsPerRun(200, func() {
		r.Append(payload, false)
	})
	if allocs > 0 {
		t.Fatalf("Append allocates %.1f times per packet after warm-up, want 0", allocs)
	}
}

func TestClampFindsShiftAndControl(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, time.Minute, 1024)
	// One control each second, nine data packets between.
	for i := 0; i < 100; i++ {
		r.Append(pkt(i), i%10 == 0)
		clk.Advance(100 * time.Millisecond)
	}
	// 100 entries, 100 ms apart; newest is 100 ms old. Ask for 3 s ago:
	// the time target lands ~30 entries from the end, and the cursor
	// walks back to the control just before it.
	start, granted, clamped := r.Clamp(3*time.Second, 0)
	if clamped {
		t.Fatalf("Clamp(3s) clamped, ring holds 10s")
	}
	if !(start%10 == 0) {
		t.Fatalf("Clamp start %d not on a control packet", start)
	}
	if start > 70 {
		t.Fatalf("Clamp start %d, want <= 70 (3s back plus control walk-back)", start)
	}
	if granted < 3*time.Second {
		t.Fatalf("granted %v < requested 3s (walk-back can only deepen)", granted)
	}
	// Deeper than the ring: clamp to the oldest entry and say so.
	start, granted, clamped = r.Clamp(time.Hour, 0)
	if !clamped || start != r.Tail() {
		t.Fatalf("Clamp(1h) = (%d, %v, clamped=%v), want tail %d clamped", start, granted, clamped, r.Tail())
	}
	if granted > 11*time.Second {
		t.Fatalf("Clamp(1h) granted %v, want about the ring's 10s of history", granted)
	}

	// Two channels in one ring: channel 1's Control each whole second,
	// channel 2's each half second, data on both every 100 ms. A reader
	// of one channel walks back to a Control of its own channel; a
	// reader of every channel (0) stops at the latest Control of any.
	r = NewRing(clk, time.Minute, 1024)
	for k := 0; k < 40; k++ {
		if k%10 == 0 {
			r.Append(chanPkt(1, true, 8), true)
		}
		if k%5 == 0 {
			r.Append(chanPkt(2, true, 8), true)
		}
		r.Append(chanPkt(1, false, 8), false)
		r.Append(chanPkt(2, false, 8), false)
		clk.Advance(100 * time.Millisecond)
	}
	for _, row := range []struct {
		ch, wantCh  uint32
		wantGranted time.Duration
	}{
		{ch: 1, wantCh: 1, wantGranted: 2 * time.Second},
		{ch: 2, wantCh: 2, wantGranted: 1500 * time.Millisecond},
		{ch: 0, wantCh: 2, wantGranted: 1500 * time.Millisecond},
	} {
		start, granted, _ := r.Clamp(1300*time.Millisecond, row.ch)
		data, _, ctl, _ := r.Read(start, nil)
		typ, ch, err := proto.PeekType(data)
		if !ctl || err != nil || typ != proto.TypeControl || ch != row.wantCh || granted != row.wantGranted {
			t.Errorf("Clamp(1.3s, channel %d) = %v on channel %d granted %v (%v), want a channel-%d Control granted %v",
				row.ch, typ, ch, granted, err, row.wantCh, row.wantGranted)
		}
	}
}

// chanPkt is a recorded packet of channel ch: the protocol header a
// Control or Data would carry, then n filler bytes.
func chanPkt(ch uint32, ctl bool, n int) []byte {
	typ := proto.TypeData
	if ctl {
		typ = proto.TypeControl
	}
	b := binary.BigEndian.AppendUint16(nil, proto.Magic)
	b = append(b, proto.Version, byte(typ))
	b = binary.BigEndian.AppendUint32(b, ch)
	return append(b, make([]byte, n)...)
}

func TestClampQuietChannelStartsLive(t *testing.T) {
	clk := simClock()
	r := NewRing(clk, time.Minute, 64)
	start, granted, clamped := r.Clamp(10*time.Second, 0)
	if start != r.Head() || granted != 0 || !clamped {
		t.Fatalf("empty ring Clamp = (%d, %v, %v), want (head, 0, clamped)", start, granted, clamped)
	}
	// Entries exist but are all older than the shift window's start:
	// the channel went quiet. Nothing to replay — start live.
	r.Append(pkt(0), true)
	clk.Advance(20 * time.Second)
	start, granted, clamped = r.Clamp(10*time.Second, 0)
	if start != r.Head() || granted != 0 || clamped {
		t.Fatalf("quiet-channel Clamp = (%d, %v, %v), want (head, 0, unclamped)", start, granted, clamped)
	}
}
