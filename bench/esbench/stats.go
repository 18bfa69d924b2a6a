package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may be reported at, in
// rising order and in per mille (so that "ten samples beyond p90 of 100"
// is integer arithmetic). The median is always reported; the tail is the
// highest of these that still has at least tailBeyond samples above it.
var tailCandidates = []int{500, 900, 950, 990, 999}

// tailBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the "p99" of a run is one or two packets and
// repeats no better than a maximum does.
const tailBeyond = 10

// supportedTail returns the highest percentile in tailCandidates that n
// samples support, never above want. n below 2*tailBeyond supports only
// the median.
func supportedTail(n int, want float64) float64 {
	best := tailCandidates[0]
	for _, pm := range tailCandidates {
		if float64(pm) > want*1000+1e-9 {
			break
		}
		if n*(1000-pm) >= tailBeyond*1000 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is how every timing is reported: the median, the highest
// supported tail percentile with its value, and the sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize sorts a copy of xs and applies the reporting rule, asking
// for a tail no higher than want.
func summarize(xs []float64, want float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := supportedTail(len(s), want)
	return summary{N: len(s), P50: quantile(s, 0.5), TailPct: p * 100, Tail: quantile(s, p)}
}

// median is summarize(xs).P50 without the rest.
func median(xs []float64) float64 { return summarize(xs, 0.5).P50 }

// slope is the least-squares slope of y over x; 0 with fewer than two
// points or no spread in x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 2 || len(x) != len(y) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
