package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT is an iterative radix-2 decimation-in-time FFT with precomputed
// twiddle factors and bit-reversal permutation. It is the MDCT's kernel
// (one N/2-point transform a block) and backs the spectral analysis
// helpers (speaker auto-volume, codec tests). A plan is read-only once
// built: any number of goroutines may Transform their own slices with it.
type FFT struct {
	n       int
	rev     []int
	twiddle []complex128 // e^{-2πik/n} for k < n/2
}

// NewFFT builds an FFT plan for size n, which must be a power of two >= 2.
func NewFFT(n int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two >= 2", n)
	}
	f := &FFT{n: n, rev: make([]int, n), twiddle: make([]complex128, n/2)}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		f.rev[i] = r
	}
	for k := 0; k < n/2; k++ {
		f.twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	return f, nil
}

// Size returns the plan size.
func (f *FFT) Size() int { return f.n }

// Transform computes the in-place forward DFT of x (len must equal Size).
func (f *FFT) Transform(x []complex128) {
	f.run(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization.
func (f *FFT) Inverse(x []complex128) {
	f.run(x, true)
	inv := complex(1/float64(f.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

func (f *FFT) run(x []complex128, inverse bool) {
	if len(x) != f.n {
		panic(fmt.Sprintf("dsp: FFT input length %d != plan size %d", len(x), f.n))
	}
	for i, r := range f.rev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	for size := 2; size <= f.n; size <<= 1 {
		half := size / 2
		step := f.n / size
		for start := 0; start < f.n; start += size {
			for k := 0; k < half; k++ {
				w := f.twiddle[k*step]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// SpectrumPower returns the per-bin power of real signal x using plan f:
// |X[k]|² for k in [0, n/2). x is zero-padded or truncated to fit.
func (f *FFT) SpectrumPower(x []float64) []float64 {
	buf := make([]complex128, f.n)
	for i := 0; i < f.n && i < len(x); i++ {
		buf[i] = complex(x[i], 0)
	}
	f.Transform(buf)
	out := make([]float64, f.n/2)
	for k := range out {
		re, im := real(buf[k]), imag(buf[k])
		out[k] = re*re + im*im
	}
	return out
}
