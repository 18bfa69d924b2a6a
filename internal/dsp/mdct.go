package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// MDCT implements the modified discrete cosine transform used by the OVL
// codec: 2N input samples produce N coefficients, consecutive frames
// overlap by N samples, and a Princen-Bradley (sine) window gives perfect
// reconstruction through IMDCT + overlap-add (time-domain alias
// cancellation).
//
// Both directions are the same O(N log N) kernel. The windowed 2N-sample
// block folds onto N samples (the transform's own symmetries: the outer
// quarters alias onto the inner ones), the fold goes through a DCT-IV
// computed as one N/2-point complex FFT between a pre- and a post-twiddle,
// and the DCT-IV is its own inverse up to 2/N, so the inverse runs the
// identical kernel on the coefficients and unfolds the result back onto
// 2N samples under the synthesis window.
//
// The plan (window, twiddles, FFT) is O(N), read-only once built and
// shared by every MDCT of its size; the N/2-point work buffer belongs to
// the MDCT value NewMDCT returned. An MDCT is therefore not safe for
// concurrent use, while any number of them may run at once: an encoder or
// decoder asks for its own and keeps it.
type MDCT struct {
	*mdctPlan
	z []complex128 // the kernel's N/2-point work buffer
}

// mdctPlan is what every MDCT of one size shares.
type mdctPlan struct {
	n       int          // number of coefficients
	window  []float64    // 2n-point sine window
	twiddle []complex128 // e^{-iπ(8m+1)/8n}, m < n/2: the DCT-IV's pre- and post-twiddle
	fft     *FFT         // n/2 points
}

// The sizes NewMDCT accepts are the powers of two from 16 to 4096: what an
// OVL frame header may name (the encoder emits 128 and 256). The rule
// bounds the plan cache at nine O(N) entries whatever sizes a peer asks
// for.
const (
	minMDCTSize = 16
	maxMDCTSize = 4096
)

// ValidMDCTSize reports whether NewMDCT accepts n: a power of two in
// [16, 4096].
func ValidMDCTSize(n int) bool {
	return n >= minMDCTSize && n <= maxMDCTSize && n&(n-1) == 0
}

var mdctCache sync.Map // int -> *mdctPlan

// NewMDCT returns an MDCT producing n coefficients from 2n-sample
// windows: the shared plan for n, built on first use, and a work buffer
// of the caller's own.
func NewMDCT(n int) (*MDCT, error) {
	if !ValidMDCTSize(n) {
		return nil, fmt.Errorf("dsp: MDCT size %d is not a power of two in [%d, %d]",
			n, minMDCTSize, maxMDCTSize)
	}
	v, ok := mdctCache.Load(n)
	if !ok {
		p, err := newMDCTPlan(n)
		if err != nil {
			return nil, err
		}
		v, _ = mdctCache.LoadOrStore(n, p)
	}
	return &MDCT{mdctPlan: v.(*mdctPlan), z: make([]complex128, n/2)}, nil
}

func newMDCTPlan(n int) (*mdctPlan, error) {
	fft, err := NewFFT(n / 2)
	if err != nil {
		return nil, err
	}
	p := &mdctPlan{n: n, window: make([]float64, 2*n), twiddle: make([]complex128, n/2), fft: fft}
	for i := range p.window {
		p.window[i] = math.Sin(math.Pi / float64(2*n) * (float64(i) + 0.5))
	}
	for m := range p.twiddle {
		p.twiddle[m] = cmplx.Exp(complex(0, -math.Pi*float64(8*m+1)/float64(8*n)))
	}
	return p, nil
}

// N returns the coefficient count (half the window length).
func (m *MDCT) N() int { return m.n }

// WindowLen returns the input window length 2N.
func (m *MDCT) WindowLen() int { return 2 * m.n }

// dct4 runs the DCT-IV kernel on m.z in place. On entry z[j] holds
// u[2j] + i·u[N-1-2j] for the N-point input u; on return the transform
// U[k] = Σ u[j]·cos(π/N·(j+½)(k+½)) is read off as U[2k] = Re z[k],
// U[N-1-2k] = -Im z[k].
func (m *MDCT) dct4() {
	for j, w := range m.twiddle {
		m.z[j] *= w
	}
	m.fft.Transform(m.z)
	for k, w := range m.twiddle {
		m.z[k] *= w
	}
}

// Forward computes the windowed MDCT of the 2N-sample input into the
// N-coefficient output slice.
func (m *MDCT) Forward(in []float64, out []float64) {
	n := m.n
	if len(in) != 2*n || len(out) != n {
		panic(fmt.Sprintf("dsp: MDCT Forward lengths in=%d out=%d, want %d/%d",
			len(in), len(out), 2*n, n))
	}
	// Window and fold. With the windowed block in quarters (a, b, c, d),
	// r for reversal, the MDCT is the DCT-IV of u = (-c_r - d, a - b_r):
	//
	//	u[j]     = -x[3N/2-1-j] - x[3N/2+j]    j < N/2
	//	u[N/2+j] =  x[j]        - x[N-1-j]
	//
	// packed straight into z[j] = u[2j] + i·u[N-1-2j].
	w, z := m.window, m.z
	h, q := n/2, n/4
	wx := func(i int) float64 { return w[i] * in[i] }
	for j := 0; j < q; j++ {
		re := -wx(3*h-1-2*j) - wx(3*h+2*j)
		im := wx(h-1-2*j) - wx(h+2*j)
		z[j] = complex(re, im)
	}
	for j := q; j < h; j++ {
		re := wx(2*j-h) - wx(3*h-1-2*j)
		im := -wx(h+2*j) - wx(5*h-1-2*j)
		z[j] = complex(re, im)
	}
	m.dct4()
	for k, c := range z {
		out[2*k] = real(c)
		out[n-1-2*k] = -imag(c)
	}
}

// InverseOverlap computes the windowed IMDCT of coeffs and overlap-adds
// it into out, which must hold 2N samples: the first N samples complete
// the previous frame's region, the last N are the new half to carry as
// overlap into the next call.
func (m *MDCT) InverseOverlap(coeffs []float64, out []float64) {
	n := m.n
	if len(coeffs) != n || len(out) != 2*n {
		panic(fmt.Sprintf("dsp: MDCT Inverse lengths coeffs=%d out=%d, want %d/%d",
			len(coeffs), len(out), n, 2*n))
	}
	z := m.z
	for j := range z {
		z[j] = complex(coeffs[2*j], coeffs[n-1-2*j])
	}
	m.dct4()
	// Unfold. With v the DCT-IV of the coefficients in halves (v1, v2),
	// the 2N-sample IMDCT is (v2, -v2_r, -v1_r, -v1); the 2/N that makes
	// the pair an identity and the synthesis window go on as each sample
	// is overlap-added.
	w := m.window
	h, q := n/2, n/4
	scale := 2 / float64(n)
	add := func(i int, v float64) { out[i] += v * scale * w[i] }
	for k := 0; k < q; k++ {
		v1, v2 := real(z[k]), -imag(z[k]) // v[2k] in v1, v[N-1-2k] in v2
		add(3*h-1-2*k, -v1)
		add(3*h+2*k, -v1)
		add(h-1-2*k, v2)
		add(h+2*k, -v2)
	}
	for k := q; k < h; k++ {
		v2, v1 := real(z[k]), -imag(z[k]) // v[2k] in v2, v[N-1-2k] in v1
		add(2*k-h, v2)
		add(3*h-1-2*k, -v2)
		add(h+2*k, -v1)
		add(5*h-1-2*k, -v1)
	}
}
