// Package dsp provides the signal-processing primitives behind the OVL
// transform codec: bit-level I/O, Rice entropy coding, a radix-2 FFT, and
// the MDCT/IMDCT pair (with Princen-Bradley windowing) that gives the
// codec its lapped-transform structure. The MDCT is O(N log N): a fold, a
// DCT-IV through one N/2-point FFT, an unfold; its defining O(N²) sum
// lives in the tests, as the oracle the kernel is held to.
package dsp
