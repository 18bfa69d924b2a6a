package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/audio"
	"repro/internal/dsp"
)

// OVL is the lossy transform codec standing in for Ogg Vorbis: a lapped
// MDCT with a sine window, per-band dead-zone quantization against an
// absolute noise floor set by the quality index, and Rice entropy coding.
// Like Vorbis it is a psycho-acoustic-style frequency-domain coder: the
// most expensive transport the rebroadcaster can pick (Figure 4: cost per
// stream, linear in the stream count), one whose frame buffering adds
// latency (§2.2) and whose losses compound across generations.
//
// A hop costs O(N log N) for the transform (dsp.MDCT) plus one pass of
// quantiser and Rice coder over the N coefficients, and in steady state
// allocates only the bytes it returns: encoder and decoder each keep
// their transform, band tables and sample buffers for the life of the
// stream. That matters beyond the producer: a relay serving the OVL
// tiers runs this code for every upstream packet on its receive path.
//
// Frame layout (big-endian):
//
//	magic   uint8  = 0xA5
//	version uint8  = 1
//	chans   uint8
//	quality uint8  (0..10)
//	ncoeff  uint16 (MDCT size N: a power of two in [16, 4096])
//	paylen  uint16 (bitstream bytes following the header)
//	payload: per channel, per band: 1 zero-band flag bit;
//	         if nonzero: 4-bit Rice k, then zigzag Rice codes.
//
// Each frame decodes independently given N samples of overlap history;
// a speaker that tunes in mid-stream fades in over one frame (§2.3).
// The header is all a decoder needs to size itself, so it is also all a
// forger needs: nothing is built for a frame before its size has passed
// the rule above (the encoder emits 128 and 256).

const (
	ovlMagic    = 0xA5
	ovlVersion  = 1
	ovlHeader   = 8
	ovlNumBands = 16
)

func init() {
	Register(Info{
		Name:  "ovl",
		Lossy: true,
		New: func(p audio.Params, quality int) (Encoder, error) {
			return newOVLEncoder(p, quality)
		},
		NewDecoder: func(p audio.Params) (Decoder, error) {
			return newOVLDecoder(p)
		},
	})
}

// ovlCoeffs returns the MDCT size for a sample rate: shorter frames for
// low-rate streams keep latency proportionate.
func ovlCoeffs(rate int) int {
	if rate >= 32000 {
		return 256
	}
	return 128
}

// ovlBandEdges splits n coefficients into ovlNumBands bands with
// exponentially growing widths (narrow at low frequencies).
func ovlBandEdges(n int) []int {
	const alpha = 0.35
	edges := make([]int, ovlNumBands+1)
	denom := math.Pow(2, alpha*ovlNumBands) - 1
	for i := 1; i <= ovlNumBands; i++ {
		edges[i] = int(math.Round(float64(n) * (math.Pow(2, alpha*float64(i)) - 1) / denom))
	}
	// Force strict monotonicity and exact coverage.
	for i := 1; i <= ovlNumBands; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = edges[i-1] + 1
		}
	}
	edges[ovlNumBands] = n
	for i := ovlNumBands; i > 1; i-- {
		if edges[i] <= edges[i-1] {
			edges[i-1] = edges[i] - 1
		}
	}
	return edges
}

// ovlSteps returns the per-band quantization step for a quality index.
// The base floor halves with each quality notch; low quality additionally
// crushes high bands (the "more aggressive compression where quality is
// less of a concern" knob from §2.2).
func ovlSteps(quality int) []float64 {
	if quality < 0 {
		quality = 0
	}
	if quality > MaxQuality {
		quality = MaxQuality
	}
	base := 32768 / math.Pow(2, float64(quality)+4)
	steps := make([]float64, ovlNumBands)
	for b := range steps {
		penalty := 1 + float64(b*b)*float64(MaxQuality-quality)/40
		steps[b] = base * penalty
	}
	return steps
}

type ovlEncoder struct {
	params   audio.Params
	quality  int
	n        int
	hopBytes int // one hop of N frames in the stream's wire encoding
	mdct     *dsp.MDCT
	edges    []int
	steps    []float64

	// Everything below is reused from hop to hop: in steady state a hop
	// allocates nothing but the bytes it returns.
	pending []byte         // raw input short of a whole hop (cap hopBytes)
	hist    [][]float64    // per channel: previous N input samples
	samples []int16        // the hop's interleaved samples
	frame   []float64      // 2N analysis window
	coeffs  []float64      // N coefficients
	qs      []uint32       // one band's quantised, zigzagged coefficients
	bits    *dsp.BitWriter // the hop's payload bitstream
}

func newOVLEncoder(p audio.Params, quality int) (*ovlEncoder, error) {
	n := ovlCoeffs(p.SampleRate)
	m, err := dsp.NewMDCT(n)
	if err != nil {
		return nil, err
	}
	if quality < 0 {
		quality = 0
	}
	if quality > MaxQuality {
		quality = MaxQuality
	}
	hopBytes := n * p.Channels * p.Encoding.BytesPerSample()
	e := &ovlEncoder{
		params:   p,
		quality:  quality,
		n:        n,
		hopBytes: hopBytes,
		mdct:     m,
		edges:    ovlBandEdges(n),
		steps:    ovlSteps(quality),
		pending:  make([]byte, 0, hopBytes),
		hist:     make([][]float64, p.Channels),
		samples:  make([]int16, 0, n*p.Channels),
		frame:    make([]float64, 2*n),
		coeffs:   make([]float64, n),
		qs:       make([]uint32, 0, n),
		bits:     dsp.NewBitWriter(),
	}
	for c := range e.hist {
		e.hist[c] = make([]float64, n)
	}
	return e, nil
}

func (e *ovlEncoder) Name() string { return "ovl" }

// Latency returns the encoder's buffering latency in frames of audio.
func (e *ovlEncoder) Latency() int { return e.n }

func (e *ovlEncoder) Encode(raw []byte) ([]byte, error) {
	var out []byte
	var err error
	if len(e.pending) > 0 {
		// Complete the buffered partial hop first.
		take := min(e.hopBytes-len(e.pending), len(raw))
		e.pending = append(e.pending, raw[:take]...)
		raw = raw[take:]
		if len(e.pending) < e.hopBytes {
			return nil, nil
		}
		out, err = e.encodeHop(out, e.pending)
		e.pending = e.pending[:0]
		if err != nil {
			return nil, err
		}
	}
	for ; len(raw) >= e.hopBytes; raw = raw[e.hopBytes:] {
		if out, err = e.encodeHop(out, raw[:e.hopBytes]); err != nil {
			return nil, err
		}
	}
	e.pending = append(e.pending, raw...)
	return out, nil
}

func (e *ovlEncoder) Flush() ([]byte, error) {
	if len(e.pending) == 0 {
		return nil, nil
	}
	// Pad the partial hop with silence where it sits.
	have := len(e.pending)
	e.pending = e.pending[:e.hopBytes]
	audio.FillSilence(e.params.Encoding, e.pending[have:])
	out, err := e.encodeHop(nil, e.pending)
	e.pending = e.pending[:0]
	for c := range e.hist {
		clear(e.hist[c])
	}
	return out, err
}

// encodeHop encodes one hop of N new frames (hopBytes of raw audio) and
// appends the OVL frame to dst.
func (e *ovlEncoder) encodeHop(dst, raw []byte) ([]byte, error) {
	ch := e.params.Channels
	e.samples = audio.AppendDecode(e.samples[:0], e.params, raw)
	samples, w := e.samples, e.bits
	w.Reset()
	scale := 2 / float64(e.n)
	for c := 0; c < ch; c++ {
		// Assemble the 2N analysis window: previous N + new N.
		copy(e.frame[:e.n], e.hist[c])
		for i := 0; i < e.n; i++ {
			v := float64(samples[i*ch+c])
			e.frame[e.n+i] = v
			e.hist[c][i] = v
		}
		e.mdct.Forward(e.frame, e.coeffs)
		for b := 0; b < ovlNumBands; b++ {
			lo, hi := e.edges[b], e.edges[b+1]
			perStep := scale / e.steps[b]
			// Quantize the band; detect the all-zero case first.
			allZero := true
			qs := e.qs[:0]
			for k := lo; k < hi; k++ {
				q := int32(math.Round(e.coeffs[k] * perStep))
				u := dsp.ZigZag(q)
				if u != 0 {
					allZero = false
				}
				qs = append(qs, u)
			}
			if allZero {
				w.WriteBit(0)
				continue
			}
			w.WriteBit(1)
			k := dsp.BestRiceK(qs)
			if k > 15 {
				k = 15
			}
			w.WriteBits(uint64(k), 4)
			for _, u := range qs {
				dsp.RiceEncode(w, u, k)
			}
		}
	}
	payload := w.Bytes()
	if len(payload) > 65535 {
		return nil, fmt.Errorf("codec: ovl frame payload %d bytes exceeds format limit", len(payload))
	}
	dst = slices.Grow(dst, ovlHeader+len(payload))
	dst = append(dst, ovlMagic, ovlVersion, byte(ch), byte(e.quality))
	dst = binary.BigEndian.AppendUint16(dst, uint16(e.n))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...), nil
}

type ovlDecoder struct {
	params audio.Params

	// The frame size and quality are established by the first frame seen
	// and everything derived from them is kept until a frame names
	// another: in steady state a frame allocates nothing but the bytes it
	// returns.
	n       int // MDCT size; 0 before the first frame
	quality int
	mdct    *dsp.MDCT
	edges   []int
	steps   []float64
	overlap [][]float64 // per channel: trailing N samples of the last IMDCT
	coeffs  []float64   // N dequantised coefficients
	buf     []float64   // 2N overlap-add region
	samples []int16     // the frame's interleaved samples
}

func newOVLDecoder(p audio.Params) (*ovlDecoder, error) {
	return &ovlDecoder{params: p}, nil
}

func (d *ovlDecoder) Name() string { return "ovl" }

// Reset drops the overlap history. The buffers stay: they are zeroed, not
// rebuilt, when the next frame turns out to be the size the last one was.
func (d *ovlDecoder) Reset() {
	for c := range d.overlap {
		clear(d.overlap[c])
	}
}

var errOVLFrame = errors.New("codec: malformed ovl frame")

func (d *ovlDecoder) Decode(pkt []byte) ([]byte, error) { return d.appendDecode(nil, pkt) }

// appendDecode is Decode appending the recovered audio to dst.
func (d *ovlDecoder) appendDecode(dst, pkt []byte) ([]byte, error) {
	for len(pkt) > 0 {
		if len(pkt) < ovlHeader {
			return nil, errOVLFrame
		}
		if pkt[0] != ovlMagic || pkt[1] != ovlVersion {
			return nil, fmt.Errorf("codec: bad ovl frame magic/version %#x/%d", pkt[0], pkt[1])
		}
		ch := int(pkt[2])
		quality := int(pkt[3])
		n := int(binary.BigEndian.Uint16(pkt[4:6]))
		payLen := int(binary.BigEndian.Uint16(pkt[6:8]))
		if ch != d.params.Channels {
			return nil, fmt.Errorf("codec: ovl frame has %d channels, stream has %d", ch, d.params.Channels)
		}
		// The size is checked before anything is built for it: a forged
		// header must not be able to make the decoder size a transform.
		if quality > MaxQuality || !dsp.ValidMDCTSize(n) {
			return nil, errOVLFrame
		}
		if len(pkt) < ovlHeader+payLen {
			return nil, errOVLFrame
		}
		payload := pkt[ovlHeader : ovlHeader+payLen]
		pkt = pkt[ovlHeader+payLen:]
		var err error
		if dst, err = d.decodeFrame(dst, n, quality, payload); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// configure sizes the decoder for frames of n coefficients at the given
// quality index. A new size restarts the overlap history.
func (d *ovlDecoder) configure(n, quality int) error {
	if d.n != n {
		m, err := dsp.NewMDCT(n)
		if err != nil {
			return err
		}
		ch := d.params.Channels
		d.n, d.mdct, d.edges = n, m, ovlBandEdges(n)
		d.overlap = make([][]float64, ch)
		for c := range d.overlap {
			d.overlap[c] = make([]float64, n)
		}
		d.coeffs = make([]float64, n)
		d.buf = make([]float64, 2*n)
		d.samples = make([]int16, n*ch)
		d.quality = -1
	}
	if d.quality != quality {
		d.quality, d.steps = quality, ovlSteps(quality)
	}
	return nil
}

// decodeFrame decodes one frame's payload and appends its N frames of
// audio, in the stream's wire encoding, to dst.
func (d *ovlDecoder) decodeFrame(dst []byte, n, quality int, payload []byte) ([]byte, error) {
	if err := d.configure(n, quality); err != nil {
		return nil, err
	}
	r := dsp.NewBitReader(payload)
	ch := d.params.Channels
	coeffs, buf, samples := d.coeffs, d.buf, d.samples
	unscale := float64(n) / 2
	for c := 0; c < ch; c++ {
		clear(coeffs)
		for b := 0; b < ovlNumBands; b++ {
			flag, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("codec: ovl band flag: %w", err)
			}
			if flag == 0 {
				continue
			}
			kv, err := r.ReadBits(4)
			if err != nil {
				return nil, fmt.Errorf("codec: ovl rice k: %w", err)
			}
			step := d.steps[b]
			for k := d.edges[b]; k < d.edges[b+1]; k++ {
				u, err := dsp.RiceDecode(r, uint(kv))
				if err != nil {
					return nil, fmt.Errorf("codec: ovl coeff: %w", err)
				}
				coeffs[k] = float64(dsp.UnZigZag(u)) * step * unscale
			}
		}
		// Overlap-add: first half completes the previous frame's tail.
		copy(buf[:n], d.overlap[c])
		clear(buf[n:])
		d.mdct.InverseOverlap(coeffs, buf)
		for i := 0; i < n; i++ {
			samples[i*ch+c] = audio.Saturate(int32(math.Round(buf[i])))
		}
		copy(d.overlap[c], buf[n:])
	}
	return audio.AppendEncode(dst, d.params, samples), nil
}
