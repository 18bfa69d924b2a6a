package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBit(1)
	w.WriteBits(0, 7)
	w.WriteBits(0x1FFFFFFFFFFFFF, 53)
	data := w.Bytes()
	r := NewBitReader(data)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("got %d", v)
	}
	if v, _ := r.ReadBits(7); v != 0 {
		t.Fatalf("got %d", v)
	}
	if v, _ := r.ReadBits(53); v != 0x1FFFFFFFFFFFFF {
		t.Fatalf("got %x", v)
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint32, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewBitWriter()
		want := make([]uint64, n)
		ws := make([]uint, n)
		for i := 0; i < n; i++ {
			width := uint(widths[i]%32) + 1
			v := uint64(vals[i]) & (1<<width - 1)
			w.WriteBits(v, width)
			want[i], ws[i] = v, width
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(ws[i])
			if err != nil || got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderUnderflow(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrBitUnderflow {
		t.Fatalf("got %v, want underflow", err)
	}
}

func TestBitReaderRejectsWideRead(t *testing.T) {
	r := NewBitReader(make([]byte, 16))
	if _, err := r.ReadBits(58); err == nil {
		t.Fatal("expected error for 58-bit read")
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 2, 31, 32, 33, 100, 1000} {
		w := NewBitWriter()
		w.WriteUnary(v)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadUnary()
		if err != nil || got != v {
			t.Fatalf("unary %d -> (%d, %v)", v, got, err)
		}
	}
}

func TestUnaryHostileInputBounded(t *testing.T) {
	// All-ones input must terminate with an error, not spin.
	data := make([]byte, maxUnary/8+16)
	for i := range data {
		data[i] = 0xFF
	}
	r := NewBitReader(data)
	if _, err := r.ReadUnary(); err == nil {
		t.Fatal("expected error on endless unary run")
	}
}

func TestZigZag(t *testing.T) {
	cases := map[int32]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 32767: 65534, -32768: 65535}
	for v, want := range cases {
		if got := ZigZag(v); got != want {
			t.Errorf("ZigZag(%d) = %d, want %d", v, got, want)
		}
		if back := UnZigZag(want); back != v {
			t.Errorf("UnZigZag(%d) = %d, want %d", want, back, v)
		}
	}
	f := func(v int32) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRiceRoundTripAllK(t *testing.T) {
	values := []uint32{0, 1, 2, 3, 7, 8, 100, 1023, 65535, 1 << 20, 1<<31 - 1}
	for k := uint(0); k <= 16; k++ {
		w := NewBitWriter()
		for _, v := range values {
			RiceEncode(w, v, k)
		}
		r := NewBitReader(w.Bytes())
		for _, v := range values {
			got, err := RiceDecode(r, k)
			if err != nil {
				t.Fatalf("k=%d v=%d: %v", k, v, err)
			}
			if got != v {
				t.Fatalf("k=%d: got %d, want %d", k, got, v)
			}
		}
	}
}

func TestRiceEscapePreventsBlowup(t *testing.T) {
	// A huge value with k=0 must use the escape, not megabytes of unary.
	w := NewBitWriter()
	RiceEncode(w, 1<<30, 0)
	if len(w.Bytes()) > 16 {
		t.Fatalf("escape encoding took %d bytes", len(w.Bytes()))
	}
}

func TestBestRiceK(t *testing.T) {
	if k := BestRiceK(nil); k != 0 {
		t.Fatalf("empty k = %d", k)
	}
	if k := BestRiceK([]uint32{0, 0, 0}); k != 0 {
		t.Fatalf("zeros k = %d", k)
	}
	// Mean 64 -> k around 6.
	k := BestRiceK([]uint32{64, 64, 64, 64})
	if k < 4 || k > 8 {
		t.Fatalf("k = %d for mean 64", k)
	}
	// Rice with the estimated k should beat a bad k on realistic data.
	vals := make([]uint32, 256)
	for i := range vals {
		vals[i] = uint32(i % 90)
	}
	best := BestRiceK(vals)
	encLen := func(k uint) int {
		w := NewBitWriter()
		for _, v := range vals {
			RiceEncode(w, v, k)
		}
		return len(w.Bytes())
	}
	if encLen(best) > encLen(0) {
		t.Fatalf("estimated k=%d worse than k=0 (%d > %d)", best, encLen(best), encLen(0))
	}
}

func TestFFTKnownValues(t *testing.T) {
	f, err := NewFFT(4)
	if err != nil {
		t.Fatal(err)
	}
	// DFT of [1,1,1,1] is [4,0,0,0].
	x := []complex128{1, 1, 1, 1}
	f.Transform(x)
	want := []complex128{4, 0, 0, 0}
	for i := range want {
		if cmplx.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want %v", i, x[i], want[i])
		}
	}
	// DFT of impulse is flat.
	x = []complex128{1, 0, 0, 0}
	f.Transform(x)
	for i := range x {
		if cmplx.Abs(x[i]-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", i, x[i])
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	f, _ := NewFFT(256)
	x := make([]complex128, 256)
	orig := make([]complex128, 256)
	for i := range x {
		v := complex(math.Sin(float64(i)*0.1), math.Cos(float64(i)*0.37))
		x[i], orig[i] = v, v
	}
	f.Transform(x)
	f.Inverse(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip bin %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2.
	f, _ := NewFFT(128)
	x := make([]complex128, 128)
	var timeE float64
	for i := range x {
		v := math.Sin(float64(i) * 0.3)
		x[i] = complex(v, 0)
		timeE += v * v
	}
	f.Transform(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= 128
	if math.Abs(timeE-freqE) > 1e-9*timeE {
		t.Fatalf("Parseval violated: %g vs %g", timeE, freqE)
	}
}

func TestFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewFFT(n); err == nil {
			t.Errorf("NewFFT(%d) accepted", n)
		}
	}
}

func TestFFTSpectrumPeak(t *testing.T) {
	// A pure tone at bin 8 must dominate the power spectrum.
	n := 256
	f, _ := NewFFT(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	spec := f.SpectrumPower(x)
	best := 0
	for k, p := range spec {
		if p > spec[best] {
			best = k
		}
	}
	if best != 8 {
		t.Fatalf("spectrum peak at bin %d, want 8", best)
	}
}

// mdctBasis returns the MDCT basis function cos(π/N·(j+½+N/2)(k+½)) for
// size n. The phase is (2j+1+N)(2k+1) steps of π/4N, so it is reduced
// exactly, in integers, onto one period of 8N tabulated cosines.
func mdctBasis(n int) func(j, k int) float64 {
	table := make([]float64, 8*n)
	for i := range table {
		table[i] = math.Cos(math.Pi * float64(i) / float64(4*n))
	}
	return func(j, k int) float64 { return table[(2*j+1+n)*(2*k+1)%(8*n)] }
}

// mdctDirect is the MDCT's defining O(N²) sum, windowed like the plan:
// the oracle the fast kernel is held to.
func mdctDirect(m *MDCT, in, out []float64) {
	n, basis := m.N(), mdctBasis(m.N())
	for k := 0; k < n; k++ {
		var acc float64
		for j := 0; j < 2*n; j++ {
			acc += m.window[j] * in[j] * basis(j, k)
		}
		out[k] = acc
	}
}

// imdctDirectOverlap is the matching IMDCT: 2/N scale, synthesis window,
// overlap-added into out.
func imdctDirectOverlap(m *MDCT, coeffs, out []float64) {
	n, basis := m.N(), mdctBasis(m.N())
	for j := 0; j < 2*n; j++ {
		var acc float64
		for k := 0; k < n; k++ {
			acc += coeffs[k] * basis(j, k)
		}
		out[j] += acc * 2 / float64(n) * m.window[j]
	}
}

// noise returns n seeded samples uniform in ±32768, the codec's full scale.
func noise(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64()*2 - 1) * 32768
	}
	return out
}

func TestMDCTMatchesDirectDefinition(t *testing.T) {
	const tol = 1e-9 * 32768
	for _, n := range []int{16, 64, 128, 256, 1024, 4096} {
		m, err := NewMDCT(n)
		if err != nil {
			t.Fatal(err)
		}
		in := noise(int64(n), 2*n)
		got, want := make([]float64, n), make([]float64, n)
		m.Forward(in, got)
		mdctDirect(m, in, want)
		for k := range want {
			if math.Abs(got[k]-want[k]) > tol {
				t.Fatalf("n=%d Forward[%d] = %g, direct sum %g", n, k, got[k], want[k])
			}
		}
		// The inverse, onto a non-zero overlap so the add is checked too.
		// Coefficients as the codec scales them: full-scale samples out.
		coeffs := noise(int64(n)+1, n)
		gotOut, wantOut := noise(int64(n)+2, 2*n), noise(int64(n)+2, 2*n)
		m.InverseOverlap(coeffs, gotOut)
		imdctDirectOverlap(m, coeffs, wantOut)
		for j := range wantOut {
			if math.Abs(gotOut[j]-wantOut[j]) > tol {
				t.Fatalf("n=%d InverseOverlap[%d] = %g, direct sum %g", n, j, gotOut[j], wantOut[j])
			}
		}
	}
}

func TestMDCTPerfectReconstruction(t *testing.T) {
	// The TDAC property: windowed MDCT -> IMDCT with 50% overlap-add
	// reconstructs the interior of the signal exactly.
	for _, n := range []int{64, 128, 256} {
		m, err := NewMDCT(n)
		if err != nil {
			t.Fatal(err)
		}
		total := 8 * n
		sig := make([]float64, total)
		for i := range sig {
			sig[i] = math.Sin(float64(i)*0.13) + 0.5*math.Cos(float64(i)*0.41)
		}
		recon := make([]float64, total)
		coeffs := make([]float64, n)
		for start := 0; start+2*n <= total; start += n {
			m.Forward(sig[start:start+2*n], coeffs)
			m.InverseOverlap(coeffs, recon[start:start+2*n])
		}
		// Interior samples (after the first frame, before the last) must match.
		for i := n; i < total-2*n; i++ {
			if math.Abs(recon[i]-sig[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: recon %g vs %g", n, i, recon[i], sig[i])
			}
		}
	}
}

// TestMDCTSharedPlanConcurrent drives one size's shared plan from eight
// goroutines at once, each through its own MDCT: under -race it fails if
// anything a transform writes is reachable from the plan cache.
func TestMDCTSharedPlanConcurrent(t *testing.T) {
	const n = 256
	ref, _ := NewMDCT(n)
	in := noise(7, 2*n)
	want := make([]float64, n)
	ref.Forward(in, want)
	wantOut := make([]float64, 2*n)
	ref.InverseOverlap(want, wantOut)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMDCT(n)
			if err != nil {
				t.Error(err)
				return
			}
			coeffs, out := make([]float64, n), make([]float64, 2*n)
			for i := 0; i < 200; i++ {
				m.Forward(in, coeffs)
				for j := range out {
					out[j] = 0
				}
				m.InverseOverlap(coeffs, out)
			}
			for k := range want {
				if coeffs[k] != want[k] {
					t.Errorf("Forward[%d] = %g beside other goroutines, %g alone", k, coeffs[k], want[k])
					return
				}
			}
			for j := range wantOut {
				if out[j] != wantOut[j] {
					t.Errorf("InverseOverlap[%d] = %g beside other goroutines, %g alone", j, out[j], wantOut[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMDCTEnergyCompaction(t *testing.T) {
	// A pure tone's MDCT energy should concentrate in few coefficients.
	n := 128
	m, _ := NewMDCT(n)
	in := make([]float64, 2*n)
	for i := range in {
		in[i] = math.Sin(2 * math.Pi * 10.25 * float64(i) / float64(n))
	}
	out := make([]float64, n)
	m.Forward(in, out)
	var total float64
	mags := make([]float64, n)
	for k, c := range out {
		mags[k] = c * c
		total += c * c
	}
	// Top 8 coefficients should hold > 90% of the energy.
	var top float64
	for i := 0; i < 8; i++ {
		best := 0
		for k, v := range mags {
			if v > mags[best] {
				best = k
			}
		}
		top += mags[best]
		mags[best] = 0
	}
	if top < 0.9*total {
		t.Fatalf("top-8 energy %.1f%% of total, want > 90%%", 100*top/total)
	}
}

func TestMDCTCacheShared(t *testing.T) {
	a, _ := NewMDCT(64)
	b, _ := NewMDCT(64)
	if a.mdctPlan != b.mdctPlan {
		t.Fatal("MDCT plans not shared")
	}
	if &a.z[0] == &b.z[0] {
		t.Fatal("MDCT work buffers shared")
	}
}

func TestMDCTRejectsBadSizes(t *testing.T) {
	// Powers of two in [minMDCTSize, maxMDCTSize] only: nine sizes, so a
	// peer naming sizes cannot grow the plan cache past nine O(N) plans.
	var accepted int
	for n := -2; n <= 2*maxMDCTSize; n++ {
		_, err := NewMDCT(n)
		want := n >= minMDCTSize && n <= maxMDCTSize && bits.OnesCount(uint(n)) == 1
		if (err == nil) != want {
			t.Fatalf("NewMDCT(%d): err %v, want accepted=%v", n, err, want)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted != 9 {
		t.Fatalf("NewMDCT accepts %d sizes, want 9", accepted)
	}
	var cached int
	mdctCache.Range(func(_, _ any) bool { cached++; return true })
	if cached > accepted {
		t.Fatalf("plan cache holds %d entries, more than the %d sizes accepted", cached, accepted)
	}
}

func TestMDCTWindowPrincenBradley(t *testing.T) {
	// w[i]^2 + w[i+N]^2 == 1 is the perfect-reconstruction condition.
	m, _ := NewMDCT(32)
	for i := 0; i < 32; i++ {
		s := m.window[i]*m.window[i] + m.window[i+32]*m.window[i+32]
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("Princen-Bradley violated at %d: %g", i, s)
		}
	}
}

// The kernel benches price one transform of a block of seeded full-scale
// noise; SetBytes counts the 2N float64 samples a block spans.
func benchMDCT(b *testing.B, n int, inverse bool) {
	m, err := NewMDCT(n)
	if err != nil {
		b.Fatal(err)
	}
	in, coeffs, out := noise(1, 2*n), make([]float64, n), make([]float64, 2*n)
	m.Forward(in, coeffs)
	b.ReportAllocs()
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inverse {
			m.InverseOverlap(coeffs, out)
		} else {
			m.Forward(in, coeffs)
		}
	}
}

func BenchmarkMDCTForward(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMDCT(b, n, false) })
	}
}

func BenchmarkMDCTInverse(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMDCT(b, n, true) })
	}
}
