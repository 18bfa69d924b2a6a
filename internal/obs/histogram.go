package obs

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds is the bucket layout shared by every hot-path
// histogram: roughly logarithmic from 1µs to 5s, which spans everything
// from a sendmmsg flush (tens of µs) to a lease margin (seconds) with
// one scale, so any two histograms can be compared bucket for bucket.
var DefaultLatencyBounds = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram built for hot paths:
// Observe is lock-free (three atomic adds) and allocation-free, so it
// can sit inside a fan-out loop without perturbing what it measures.
// Bucket semantics follow Prometheus: bucket i counts observations
// d <= bounds[i] (and above the previous bound); the last bucket is
// +Inf.
//
// Histograms record wall-clock time even in simulated-clock systems:
// they instrument the process — how long a flush syscall really took,
// how long a packet really sat in a queue — not the simulation's
// modelled time. Snapshots taken concurrently with observations may be
// momentarily inconsistent (count ahead of a bucket) by a handful of
// events; monitoring reads tolerate that, and a quiesced read is exact.
type Histogram struct {
	name   string
	help   string
	bounds []time.Duration
	// buckets[i] counts observations in (bounds[i-1], bounds[i]];
	// buckets[len(bounds)] is +Inf.
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// NewHistogram creates a histogram named name (a Prometheus metric
// name, conventionally ending in _seconds). A nil bounds uses
// DefaultLatencyBounds. Bounds must be sorted ascending.
func NewHistogram(name, help string, bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		name:    name,
		help:    help,
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the metric help line.
func (h *Histogram) Help() string { return h.help }

// Observe records one duration. Negative durations (a late lease
// refresh, a clock step) land in the first bucket. The linear bound
// scan exits early — typical hot-path latencies sit in the first third
// of the default scale — and never allocates.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= h.bounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is one consistent-enough read of a histogram.
type HistogramSnapshot struct {
	Bounds  []time.Duration `json:"-"`
	Buckets []int64         `json:"buckets"` // per-bucket (not cumulative); last is +Inf
	Count   int64           `json:"count"`
	Sum     time.Duration   `json:"sum"`
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket that crosses the target rank —
// standard fixed-bucket estimation, exact to within one bucket's
// width. It returns 0 when the histogram is empty; ranks landing in
// the +Inf bucket return the largest finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Quantile estimates a quantile from a snapshot (see
// Histogram.Quantile).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the largest finite bound is the best bound
			// we can report.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		// Position of the target rank inside this bucket.
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}
