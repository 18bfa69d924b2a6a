package quant

import (
	"math"
	"testing"
)

// The expected values are what Python 3's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1.5, 9, 2, 7}, [3]float64{1.75, 4, 8}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}
