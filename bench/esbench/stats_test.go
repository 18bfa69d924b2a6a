package main

import (
	"math"
	"testing"
)

// The reporting rule: the highest percentile with at least ten samples
// beyond it, never above what was asked for.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pct  float64
	}{
		{0, 0.99, 0.5},
		{19, 0.99, 0.5},      // 9.5 samples beyond the median: still the median, it is all there is
		{99, 0.99, 0.5},      // 9.9 beyond p90
		{100, 0.99, 0.9},     // exactly 10 beyond p90
		{199, 0.99, 0.9},     // 9.95 beyond p95
		{200, 0.99, 0.95},    // exactly 10 beyond p95
		{999, 0.99, 0.95},    // 9.99 beyond p99
		{1000, 0.99, 0.99},   // exactly 10 beyond p99
		{1000, 0.95, 0.95},   // capped at what the metric's name promises
		{100000, 0.99, 0.99}, // p99.9 is supported but not asked for
		{10000, 1, 0.999},
	}
	for _, c := range cases {
		if got := supportedTail(c.n, c.want); got != c.pct {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.want, got, c.pct)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted on purpose
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || s.TailPct != 99 {
		t.Fatalf("summarize: n=%d tail=p%v, want 1000 and p99", s.N, s.TailPct)
	}
	if math.Abs(s.P50-499.5) > 1e-9 || math.Abs(s.Tail-989.01) > 1e-9 {
		t.Errorf("summarize: p50=%v tail=%v, want 499.5 and 989.01", s.P50, s.Tail)
	}
	if xs[0] != 999 {
		t.Error("summarize sorted its argument in place")
	}
	if got := summarize(nil, 0.99); got.N != 0 || got.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestSlope(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{5, 7, 9, 11}
	if got := slope(x, y); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Errorf("slope with no spread in x = %v, want 0", got)
	}
}
