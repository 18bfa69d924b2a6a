package dvr

import (
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/vclock"
)

// Defaults for the ring bounds. The capacity default assumes the
// paper's nominal 10 ms chunking (100 packets/s) with headroom for a
// control stream and bursts; an operator recording denser streams
// raises it alongside the depth.
const (
	DefaultDepth = 30 * time.Second
	// DefaultPacketsPerSecond sizes a ring's packet capacity from its
	// depth when the caller does not give one.
	DefaultPacketsPerSecond = 200
	// MinCapacity floors the derived capacity so shallow depths still
	// hold a useful backlog.
	MinCapacity = 256
)

// ReadStatus is the outcome of a cursor read.
type ReadStatus int

const (
	// ReadOK: the entry was copied out and the cursor may advance.
	ReadOK ReadStatus = iota
	// ReadCaughtUp: the cursor is at the head — nothing recorded beyond
	// it. A catch-up subscriber seeing this has converged on live.
	ReadCaughtUp
	// ReadEvicted: the ring wrapped (or aged) past the cursor while the
	// reader fell behind. The reader must re-clamp to Tail and go on —
	// losing the oldest backlog, never blocking the writer.
	ReadEvicted
)

// slot is one recorded generation. Its buffer is reused when the ring
// wraps, so recording allocates only until every slot has been touched
// once.
type slot struct {
	buf []byte
	ctl bool      // a Control packet (catch-up starts from one)
	at  time.Time // arrival on the relay's clock
}

// Ring is a bounded ring of recent packets, in arrival order. Entries are addressed by an absolute, monotonically
// increasing index: the live window is [Tail, Head), and an index that
// fell out of it reads as evicted. All methods are safe for concurrent
// use.
type Ring struct {
	clock vclock.Clock
	depth time.Duration

	mu    sync.Mutex
	slots []slot
	tail  uint64 // oldest live index
	head  uint64 // next index to be written
}

// NewRing returns a ring bounded by depth (seconds of history) and
// capacity (packets; <= 0 derives one from the depth).
func NewRing(clock vclock.Clock, depth time.Duration, capacity int) *Ring {
	if clock == nil {
		clock = vclock.System
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	if capacity <= 0 {
		capacity = int(depth/time.Second) * DefaultPacketsPerSecond
		if capacity < MinCapacity {
			capacity = MinCapacity
		}
	}
	return &Ring{clock: clock, depth: depth, slots: make([]slot, capacity)}
}

// Depth reports the ring's time bound.
func (r *Ring) Depth() time.Duration { return r.depth }

// Append records one packet (a copy — the caller keeps ownership of
// data). ctl marks a Control packet, the entries catch-up starts from.
// It returns the number of entries evicted to make room, by capacity
// or by age.
func (r *Ring) Append(data []byte, ctl bool) int {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := r.trimLocked(now)
	if r.head-r.tail == uint64(len(r.slots)) {
		r.tail++
		evicted++
	}
	s := &r.slots[r.head%uint64(len(r.slots))]
	s.buf = append(s.buf[:0], data...)
	s.ctl = ctl
	s.at = now
	r.head++
	return evicted
}

// trimLocked drops entries older than the depth. Called with mu held.
func (r *Ring) trimLocked(now time.Time) int {
	cutoff := now.Add(-r.depth)
	n := 0
	for r.tail < r.head {
		if !r.slots[r.tail%uint64(len(r.slots))].at.Before(cutoff) {
			break
		}
		r.tail++
		n++
	}
	return n
}

// Head returns the next index to be written; [Tail, Head) is the live
// window.
func (r *Ring) Head() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Tail returns the oldest live index.
func (r *Ring) Tail() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail
}

// Len reports the number of live entries.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.head - r.tail)
}

// Clamp resolves a requested time shift to a start cursor for a reader
// of channel ch (0 reads every channel). The cursor lands on the oldest
// entry within the shift, then walks back to the latest Control of ch
// at or before it so a decoder joining there can lock immediately
// (tune-in needs its own channel's configuration packet first; the walk
// can deepen the shift by up to one control interval). An entry's
// channel is read from its recorded header (proto.PeekType). The
// granted shift is the age of the entry actually chosen — clamped
// reports whether that is less history than asked for (the ring's depth
// or wrap bound bit). A shift nothing in the ring satisfies (quiet
// channel, empty ring) starts at Head with a zero grant: live.
func (r *Ring) Clamp(shift time.Duration, ch uint32) (start uint64, granted time.Duration, clamped bool) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trimLocked(now)
	if r.head == r.tail {
		return r.head, 0, shift > 0
	}
	target := now.Add(-shift)
	// Binary search for the oldest entry at or after the target time
	// (entries are in arrival order).
	lo, hi := r.tail, r.head
	for lo < hi {
		mid := lo + (hi-lo)/2
		if r.slots[mid%uint64(len(r.slots))].at.Before(target) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start = lo
	if start == r.head {
		// Everything recorded is older than the shift: the channel has
		// been quiet for longer than the request. Nothing to replay.
		return r.head, 0, false
	}
	clamped = start == r.tail && r.slots[r.tail%uint64(len(r.slots))].at.After(target)
	// Walk back to the governing Control so the subscriber can decode
	// from its first packet.
	for i := start + 1; i > r.tail; i-- {
		if s := &r.slots[(i-1)%uint64(len(r.slots))]; s.ctl && onChannel(s.buf, ch) {
			start = i - 1
			break
		}
	}
	granted = now.Sub(r.slots[start%uint64(len(r.slots))].at)
	if granted < 0 {
		granted = 0
	}
	return start, granted, clamped
}

// onChannel reports whether a recorded packet belongs to channel ch
// (0 matches every channel).
func onChannel(data []byte, ch uint32) bool {
	if ch == 0 {
		return true
	}
	_, c, err := proto.PeekType(data)
	return err == nil && c == ch
}

// Read copies the entry at idx into buf (grown as needed) and returns
// the filled slice, the entry's age, and whether it was a Control
// packet. A cursor at Head reads as caught up; one behind Tail reads
// as evicted — the reader re-clamps to Tail and continues, so a slow
// reader can never block recording or hold a reference into a slot
// the writer is about to reuse.
func (r *Ring) Read(idx uint64, buf []byte) (data []byte, age time.Duration, ctl bool, st ReadStatus) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trimLocked(now)
	if idx < r.tail {
		return buf, 0, false, ReadEvicted
	}
	if idx >= r.head {
		return buf, 0, false, ReadCaughtUp
	}
	s := &r.slots[idx%uint64(len(r.slots))]
	return append(buf[:0], s.buf...), now.Sub(s.at), s.ctl, ReadOK
}
