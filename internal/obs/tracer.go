package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Path names which packet path an event was observed on.
type Path uint8

// Packet paths.
const (
	PathControl  Path = iota // subscribe / SubAck control plane
	PathFanout               // unicast fan-out to subscribers
	PathUpstream             // packets taken off the group or upstream relay
	numPaths
)

func (p Path) String() string {
	switch p {
	case PathControl:
		return "control"
	case PathFanout:
		return "fanout"
	case PathUpstream:
		return "upstream"
	}
	return "unknown"
}

// Reason attributes a dropped packet. Every drop on an instrumented
// path carries exactly one reason, so the per-reason counters always
// explain the total.
type Reason uint8

// Drop reasons.
const (
	ReasonNone          Reason = iota // not a drop (sent events)
	ReasonQueueFull                   // drop-oldest backpressure on a subscriber queue
	ReasonAuth                        // control-plane verification failure (silent drop)
	ReasonLoop                        // subscription path refused with SubLoop
	ReasonSendError                   // substrate send failure
	ReasonChannelFilter               // packet for a channel the target is not leased to
	ReasonMalformed                   // unparseable packet
	ReasonForeign                     // packet from a source the relay does not accept
	ReasonTableFull                   // subscriber table, or the relay's channel table, at capacity
	ReasonStale                       // control packet replaying an already-consumed sequence
	numReasons
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonQueueFull:
		return "queue-full"
	case ReasonAuth:
		return "auth"
	case ReasonLoop:
		return "loop"
	case ReasonSendError:
		return "send-error"
	case ReasonChannelFilter:
		return "channel-filter"
	case ReasonMalformed:
		return "malformed"
	case ReasonForeign:
		return "foreign"
	case ReasonTableFull:
		return "table-full"
	case ReasonStale:
		return "stale"
	}
	return "unknown"
}

// TraceEvent is one ring-buffered packet-path sample.
type TraceEvent struct {
	Seq     uint64    `json:"seq"`  // monotonic per tracer
	Time    time.Time `json:"time"` // wall clock
	Path    string    `json:"path"`
	Kind    string    `json:"kind"`              // "send" or "drop"
	Reason  string    `json:"reason,omitempty"`  // drops only
	Addr    string    `json:"addr,omitempty"`    // subject address
	Channel uint32    `json:"channel,omitempty"` // 0 = unknown/any
	Batch   int       `json:"batch,omitempty"`   // batch size for batched sends
}

// DropCount is one nonzero (path, reason) drop counter.
type DropCount struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// TraceSnapshot is what draining a tracer returns: the sampled event
// ring (oldest first) plus the exact per-reason drop counters.
type TraceSnapshot struct {
	SampleN     int          `json:"sample_1_in_n"`
	Recorded    uint64       `json:"recorded_total"`    // events ever written to the ring
	Overwritten uint64       `json:"overwritten_total"` // ring slots lost to wrap before a drain
	Events      []TraceEvent `json:"events"`
	Drops       []DropCount  `json:"drops"`
}

// Tracer samples packet-path events into a bounded ring and counts
// every drop by (path, reason) exactly. The split keeps the hot path
// honest and cheap: the counters are one atomic add per drop — so the
// attribution is never sampled away — while ring insertion (a mutex
// and a copy) happens only for 1-in-N events. The ring is drained via
// the ops endpoint (/trace) or Drain; draining clears the ring but
// never the counters.
type Tracer struct {
	sampleN  uint64
	arrivals atomic.Uint64
	seq      atomic.Uint64
	drops    [numPaths][numReasons]atomic.Int64

	mu          sync.Mutex
	ring        []TraceEvent
	next        int // slot the next event lands in once the ring is full
	written     uint64
	overwritten uint64
}

// DefaultTraceRing is the event ring capacity when none is given.
const DefaultTraceRing = 256

// DefaultTraceSample is the 1-in-N sampling rate when none is given.
const DefaultTraceSample = 64

// NewTracer creates a tracer recording 1 in sampleN events into a ring
// of ringLen entries. Zero or negative arguments take the defaults;
// sampleN 1 records everything (experiments and tests).
func NewTracer(sampleN, ringLen int) *Tracer {
	if sampleN <= 0 {
		sampleN = DefaultTraceSample
	}
	if ringLen <= 0 {
		ringLen = DefaultTraceRing
	}
	return &Tracer{sampleN: uint64(sampleN), ring: make([]TraceEvent, 0, ringLen)}
}

// SampleN returns the 1-in-N sampling rate.
func (t *Tracer) SampleN() int { return int(t.sampleN) }

// sampled reports whether this arrival is one of the 1-in-N.
func (t *Tracer) sampled() bool {
	return t.arrivals.Add(1)%t.sampleN == 0
}

// Send records a sampled successful send: one datagram, or one batch
// of batch datagrams flushed together (addr is then the batch's first
// destination).
func (t *Tracer) Send(p Path, addr string, ch uint32, batch int) {
	if !t.sampled() {
		return
	}
	t.record(TraceEvent{Path: p.String(), Kind: "send", Addr: addr, Channel: ch, Batch: batch})
}

// Drop attributes one dropped packet. The (path, reason) counter is
// always incremented — every drop stays accounted — and the event ring
// gets a sampled entry.
func (t *Tracer) Drop(p Path, r Reason, addr string, ch uint32) {
	t.drops[p][r].Add(1)
	if !t.sampled() {
		return
	}
	t.record(TraceEvent{Path: p.String(), Kind: "drop", Reason: r.String(), Addr: addr, Channel: ch})
}

// record inserts one event into the ring, overwriting the oldest entry
// once full.
func (t *Tracer) record(ev TraceEvent) {
	ev.Seq = t.seq.Add(1)
	ev.Time = time.Now()
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next = (t.next + 1) % len(t.ring)
		t.overwritten++
	}
	t.written++
	t.mu.Unlock()
}

// DropCount returns one exact (path, reason) drop counter.
func (t *Tracer) DropCount(p Path, r Reason) int64 {
	return t.drops[p][r].Load()
}

// Drops returns every nonzero drop counter, path-major.
func (t *Tracer) Drops() []DropCount {
	var out []DropCount
	for p := Path(0); p < numPaths; p++ {
		for r := Reason(0); r < numReasons; r++ {
			if n := t.drops[p][r].Load(); n > 0 {
				out = append(out, DropCount{Path: p.String(), Reason: r.String(), Count: n})
			}
		}
	}
	return out
}

// Drain returns the sampled events (oldest first) with the drop
// counters, then clears the ring. Counters are cumulative and survive
// the drain; Overwritten reports ring entries lost to wrap since the
// previous drain.
func (t *Tracer) Drain() TraceSnapshot {
	t.mu.Lock()
	events := make([]TraceEvent, 0, len(t.ring))
	if t.next > 0 {
		events = append(events, t.ring[t.next:]...)
		events = append(events, t.ring[:t.next]...)
	} else {
		events = append(events, t.ring...)
	}
	snap := TraceSnapshot{
		SampleN:     int(t.sampleN),
		Recorded:    t.written,
		Overwritten: t.overwritten,
		Events:      events,
	}
	t.ring = t.ring[:0]
	t.next = 0
	t.overwritten = 0
	t.mu.Unlock()
	snap.Drops = t.Drops()
	return snap
}
