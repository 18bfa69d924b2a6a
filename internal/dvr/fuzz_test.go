package dvr

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/vclock"
)

// recorded is the fuzz model's copy of one appended entry.
type recorded struct {
	data []byte
	ctl  bool
	ch   uint32 // 0: no protocol header, a Control of no channel
	at   time.Time
}

// FuzzRing drives one small ring on a simulated clock with Appends
// (length, Control flag, channel, clock step), Clamps and Reads, three
// input bytes an operation, and checks every answer against a model of
// everything appended:
//
//   - Clamp: Tail <= start <= Head and granted >= 0; a start at Head
//     grants nothing; when a Control of the asked channel lies in
//     [Tail, target] (target: the oldest entry within the shift), start
//     is the latest such one, else the target itself; granted is the
//     start entry's age.
//   - Read: Evicted below Tail, CaughtUp at or past Head, otherwise the
//     recorded bytes, Control flag and age; and the returned slice is the
//     caller's, never a ring slot (scribbling on it leaves the ring
//     intact).
//
// Nothing may panic.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 1, 4, 2, 8, 8, 0, 0, 2, 1, 1, 3, 0, 0, 3, 5, 0})
	f.Add([]byte{40, 1, 1, 4, 2, 0, 0, 0, 3, 20, 3, 1, 4, 0, 6, 2, 200, 2, 3, 1, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 17, 252, 3, 0, 2, 30, 1, 3, 9, 0}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		sim := vclock.NewSim(time.Time{})
		r := NewRing(sim, 2*time.Second, 16)
		var model []recorded
		var buf []byte
		sim.Go("fuzz", func() {
			for len(ops) >= 3 {
				op, a, b := ops[0], ops[1], ops[2]
				ops = ops[3:]
				switch op % 4 {
				case 0, 1: // Append, after a clock step of up to 630 ms
					sim.Sleep(time.Duration(op>>2) * 10 * time.Millisecond)
					e := recorded{ctl: b&1 == 1, ch: uint32(a % 4), at: sim.Now()}
					if e.ch == 0 {
						e.data = bytes.Repeat([]byte{a}, int(b>>1)%12)
					} else {
						e.data = chanPkt(e.ch, e.ctl, int(b>>1))
					}
					r.Append(e.data, e.ctl)
					model = append(model, e)
				case 2:
					if !checkClamp(t, r, model, sim.Now(), time.Duration(a)*25*time.Millisecond, uint32(b%4)) {
						return
					}
				case 3:
					var ok bool
					if buf, ok = checkRead(t, r, model, sim.Now(), a, buf); !ok {
						return
					}
				}
			}
		})
		sim.WaitIdle()
	})
}

// checkClamp asks r for shift on channel ch and checks the answer
// against the model.
func checkClamp(t *testing.T, r *Ring, model []recorded, now time.Time, shift time.Duration, ch uint32) bool {
	start, granted, _ := r.Clamp(shift, ch)
	tail, head := r.Tail(), r.Head()
	if start < tail || start > head || granted < 0 {
		t.Errorf("Clamp(%v, %d) = (%d, %v), window [%d,%d)", shift, ch, start, granted, tail, head)
		return false
	}
	if start == head {
		if granted != 0 {
			t.Errorf("Clamp(%v, %d) starts at Head %d but grants %v", shift, ch, head, granted)
			return false
		}
	} else if want := now.Sub(model[start].at); granted != want {
		t.Errorf("Clamp(%v, %d) granted %v, start %d is %v old", shift, ch, granted, start, want)
		return false
	}
	target := tail
	for target < head && model[target].at.Before(now.Add(-shift)) {
		target++
	}
	if target == head {
		return true // nothing within the shift: live, checked above
	}
	want := target
	for i := target + 1; i > tail; i-- {
		if e := model[i-1]; e.ctl && (ch == 0 || e.ch == ch) {
			want = i - 1
			break
		}
	}
	if start != want {
		t.Errorf("Clamp(%v, %d) = %d, want %d (target %d, window [%d,%d))", shift, ch, start, want, target, tail, head)
		return false
	}
	return true
}

// checkRead reads an index near r's window (a picks it, from four below
// Tail up) into buf and checks the status and entry against the model.
// It returns the buffer to reuse.
func checkRead(t *testing.T, r *Ring, model []recorded, now time.Time, a byte, buf []byte) ([]byte, bool) {
	lo, hi := r.Tail(), r.Head()
	idx := lo + uint64(a)%(hi-lo+8)
	if idx >= 4 {
		idx -= 4
	}
	data, age, ctl, st := r.Read(idx, buf)
	tail, head := r.Tail(), r.Head()
	var want ReadStatus
	switch {
	case idx < tail:
		want = ReadEvicted
	case idx >= head:
		want = ReadCaughtUp
	}
	if st != want {
		t.Errorf("Read(%d) status %v, window [%d,%d), want %v", idx, st, tail, head, want)
		return buf, false
	}
	if st != ReadOK {
		return buf, true
	}
	e := model[idx]
	if !bytes.Equal(data, e.data) || ctl != e.ctl || age != now.Sub(e.at) {
		t.Errorf("Read(%d) = %x ctl=%v age %v, recorded %x ctl=%v at age %v", idx, data, ctl, age, e.data, e.ctl, now.Sub(e.at))
		return buf, false
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if again, _, _, _ := r.Read(idx, nil); !bytes.Equal(again, e.data) {
		t.Errorf("Read(%d) returned a ring slot: scribbling on it changed the entry to %x", idx, again)
		return buf, false
	}
	return data, true
}
