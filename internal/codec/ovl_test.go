package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/audio"
	"repro/internal/dsp"
)

// The golden vectors under testdata/ovl_golden were written by the tree
// before the O(N log N) kernel (see the README beside them): frames from
// its encoder, and the PCM its decoder made of them.
var goldenStreams = []struct {
	name string
	p    audio.Params
}{
	{"mono8k", audio.Params{SampleRate: 8000, Channels: 1, Encoding: audio.EncodingSLinear16LE}},
	{"stereo44k", audio.CDQuality},
}

var goldenQualities = []int{2, 8, 10}

func readGolden(t testing.TB, stream string, quality int) (frames, pcm []byte) {
	t.Helper()
	base := filepath.Join("testdata", "ovl_golden", fmt.Sprintf("%s_q%d", stream, quality))
	frames, err := os.ReadFile(base + ".ovl")
	if err != nil {
		t.Fatal(err)
	}
	pcm, err = os.ReadFile(base + ".pcm")
	if err != nil {
		t.Fatal(err)
	}
	return frames, pcm
}

// TestOVLGoldenCrossVersion holds the codec to its previous generation:
// frames the old encoder wrote decode to the old decoder's PCM within
// one LSB (the kernels round differently, the format is the same), and
// what the encoder writes now for the same audio is as good.
func TestOVLGoldenCrossVersion(t *testing.T) {
	for _, s := range goldenStreams {
		for _, q := range goldenQualities {
			frames, wantPCM := readGolden(t, s.name, q)
			dec, err := NewDecoder("ovl", s.p)
			if err != nil {
				t.Fatal(err)
			}
			gotPCM, err := dec.Decode(frames)
			if err != nil {
				t.Fatalf("%s q=%d: golden frames: %v", s.name, q, err)
			}
			got, want := audio.Decode(s.p, gotPCM), audio.Decode(s.p, wantPCM)
			if len(got) != len(want) {
				t.Fatalf("%s q=%d: decoded %d samples, golden has %d", s.name, q, len(got), len(want))
			}
			for i := range want {
				if d := int(got[i]) - int(want[i]); d < -1 || d > 1 {
					t.Fatalf("%s q=%d: sample %d = %d, golden %d", s.name, q, i, got[i], want[i])
				}
			}

			// The same audio through today's encoder. The golden decode
			// is the input one hop late, so the input is what Music gave
			// the generator.
			src := make([]int16, len(want))
			audio.Music(s.p.SampleRate, s.p.Channels).ReadSamples(src)
			enc, err := NewEncoder("ovl", s.p, q)
			if err != nil {
				t.Fatal(err)
			}
			newFrames, err := enc.Encode(audio.Encode(s.p, src))
			if err != nil {
				t.Fatal(err)
			}
			dec.Reset()
			newPCM, err := dec.Decode(newFrames)
			if err != nil {
				t.Fatalf("%s q=%d: new frames: %v", s.name, q, err)
			}
			ref, old := alignOVL(s.p, src, want)
			_, cur := alignOVL(s.p, src, audio.Decode(s.p, newPCM))
			oldSNR, curSNR := audio.SNR(ref, old), audio.SNR(ref, cur)
			if curSNR < oldSNR-0.1 {
				t.Errorf("%s q=%d: SNR %.2f dB, the golden encoder's frames give %.2f", s.name, q, curSNR, oldSNR)
			}
			if len(newFrames) > len(frames)+len(frames)/100 {
				t.Errorf("%s q=%d: %d frame bytes, the golden encoder wrote %d", s.name, q, len(newFrames), len(frames))
			}
		}
	}
}

// ovlFrame builds a frame with the given header fields over payload.
func ovlFrame(chans, quality, ncoeff int, payload []byte) []byte {
	f := []byte{ovlMagic, ovlVersion, byte(chans), byte(quality)}
	f = binary.BigEndian.AppendUint16(f, uint16(ncoeff))
	f = binary.BigEndian.AppendUint16(f, uint16(len(payload)))
	return append(f, payload...)
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestOVLHostileFrameSizes forges every frame size a header can name.
// The decoder builds nothing for a size before it has accepted it, and
// accepts only the nine powers of two a transform plan exists for, so
// the sweep may neither panic nor leave memory behind: before the size
// rule one 8-byte frame naming 4096 cost half a gigabyte of cached
// tables, and every distinct even size added its own.
func TestOVLHostileFrameSizes(t *testing.T) {
	p := audio.CDQuality
	dec, err := NewDecoder("ovl", p)
	if err != nil {
		t.Fatal(err)
	}
	silent := make([]byte, (ovlNumBands*p.Channels+7)/8) // every band flagged empty
	before := heapAlloc()
	for n := 0; n <= 0xFFFF; n++ {
		// Header only: no payload bit to read, so never a decode.
		if _, err := dec.Decode(ovlFrame(p.Channels, MaxQuality, n, nil)); err == nil {
			t.Fatalf("ncoeff=%d: header-only frame decoded", n)
		}
		out, err := dec.Decode(ovlFrame(p.Channels, MaxQuality, n, silent))
		switch {
		case !dsp.ValidMDCTSize(n):
			if !errors.Is(err, errOVLFrame) {
				t.Fatalf("ncoeff=%d: err %v, want errOVLFrame", n, err)
			}
		case err != nil:
			t.Fatalf("ncoeff=%d: %v", n, err)
		case len(out) != n*p.BytesPerFrame():
			t.Fatalf("ncoeff=%d: decoded %d bytes, want %d", n, len(out), n*p.BytesPerFrame())
		}
	}
	if grown := int64(heapAlloc()) - int64(before); grown > 4<<20 {
		t.Fatalf("heap grew %d bytes across the sweep, want < 4 MB", grown)
	}
	runtime.KeepAlive(dec)
}

// TestOVLSteadyStateAllocs pins the hop: once the buffers are sized, a
// hop encoded or a frame decoded allocates the slice it returns (two
// allocations allowed: one to make it, one should append have to grow it).
func TestOVLSteadyStateAllocs(t *testing.T) {
	for _, s := range goldenStreams {
		e, err := newOVLEncoder(s.p, ovlHighQuality)
		if err != nil {
			t.Fatal(err)
		}
		samples := make([]int16, e.n*s.p.Channels)
		audio.Music(s.p.SampleRate, s.p.Channels).ReadSamples(samples)
		raw := audio.Encode(s.p, samples)
		var frame []byte
		if got := testing.AllocsPerRun(100, func() { frame, _ = e.encodeHop(nil, raw) }); got > 2 {
			t.Errorf("%s: encodeHop allocates %.0f times a hop, want <= 2", s.name, got)
		}
		d, _ := newOVLDecoder(s.p)
		payload := frame[ovlHeader:]
		if got := testing.AllocsPerRun(100, func() {
			if _, err := d.decodeFrame(nil, e.n, ovlHighQuality, payload); err != nil {
				t.Fatal(err)
			}
		}); got > 2 {
			t.Errorf("%s: decodeFrame allocates %.0f times a frame, want <= 2", s.name, got)
		}
	}
}

// FuzzOVLDecode: whatever the bytes, the decoder returns audio or an
// error. It never panics, an accepted packet decodes to exactly N frames
// of audio per OVL frame it holds (so a frame cannot inflate past
// ncoeff x chans x 2 bytes), and the memory a packet costs is bounded by
// a multiple of that output, not by what its headers claim.
func FuzzOVLDecode(f *testing.F) {
	hostile := ovlFrame(2, MaxQuality, 4096, nil)
	f.Add(hostile, false)
	f.Add(ovlFrame(2, MaxQuality, 4094, make([]byte, 4)), false)
	f.Add(ovlFrame(1, 0, 16, make([]byte, 2)), true)
	for _, s := range goldenStreams {
		mono := s.p.Channels == 1
		for _, q := range goldenQualities {
			frames, _ := readGolden(f, s.name, q)
			f.Add(frames, mono)
			f.Add(frames[:len(frames)/2], mono) // truncated mid-frame
			flipped := append([]byte(nil), frames...)
			flipped[ovlHeader+len(flipped)/3] ^= 0x10 // a bit inside some payload
			f.Add(flipped, mono)
			f.Add(append(append([]byte(nil), frames...), hostile...), mono)
		}
	}
	f.Fuzz(func(t *testing.T, pkt []byte, mono bool) {
		p := audio.CDQuality
		if mono {
			p.Channels = 1
		}
		dec, err := NewDecoder("ovl", p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := dec.Decode(pkt)
		runtime.ReadMemStats(&after)
		// What the packet's frames may decode to, read off the headers
		// alone: N frames of 16-bit audio each.
		want := 0
		for rest := pkt; err == nil && len(rest) > 0; {
			want += int(binary.BigEndian.Uint16(rest[4:6])) * p.BytesPerFrame()
			rest = rest[ovlHeader+int(binary.BigEndian.Uint16(rest[6:8])):]
		}
		if err == nil && len(out) != want {
			t.Fatalf("decoded %d bytes from frames naming %d", len(out), want)
		}
		// What a frame may cost beyond its audio: the decoder's buffers,
		// rebuilt when a frame names another size than the last did (some
		// 13 bytes to the byte of audio), append's growth of the output,
		// and once per process each size's plan (under 1 MB for all nine).
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+16*uint64(want) {
			t.Fatalf("decode allocated %d bytes for %d bytes of audio", spent, want)
		}
	})
}

var benchSink []byte

func benchHop(b *testing.B, p audio.Params) (*ovlEncoder, []byte) {
	b.Helper()
	e, err := newOVLEncoder(p, MaxQuality)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]int16, e.n*p.Channels)
	audio.Music(p.SampleRate, p.Channels).ReadSamples(samples)
	return e, audio.Encode(p, samples)
}

// BenchmarkOVLEncodeHop prices one hop (N frames, both channels) through
// window, MDCT, quantiser and Rice coder at maximum quality.
func BenchmarkOVLEncodeHop(b *testing.B) {
	e, raw := benchHop(b, audio.CDQuality)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = e.encodeHop(benchSink[:0], raw)
	}
}

// BenchmarkOVLDecodeFrame prices the way back for the same hop.
func BenchmarkOVLDecodeFrame(b *testing.B) {
	e, raw := benchHop(b, audio.CDQuality)
	frame, err := e.encodeHop(nil, raw)
	if err != nil {
		b.Fatal(err)
	}
	d, _ := newOVLDecoder(audio.CDQuality)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = d.decodeFrame(benchSink[:0], e.n, MaxQuality, frame[ovlHeader:]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClip is 100 ms of CD-quality music as raw PCM, the unit the
// whole-codec benches below price: ten of them are the per-second
// encode cost Figure 4 integrates.
func benchClip() []byte {
	p := audio.CDQuality
	samples := make([]int16, p.SampleRate*p.Channels/10)
	audio.Music(p.SampleRate, p.Channels).ReadSamples(samples)
	return audio.Encode(p, samples)
}

// BenchmarkOVLEncode prices the whole encoder — input buffering and
// packet framing around every hop — on 100 ms of CD audio.
func BenchmarkOVLEncode(b *testing.B) {
	enc, err := NewEncoder("ovl", audio.CDQuality, MaxQuality)
	if err != nil {
		b.Fatal(err)
	}
	raw := benchClip()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = enc.Encode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOVLDecode prices the matching decoder, the speaker side, on
// the packet that clip encodes to.
func BenchmarkOVLDecode(b *testing.B) {
	enc, err := NewEncoder("ovl", audio.CDQuality, MaxQuality)
	if err != nil {
		b.Fatal(err)
	}
	pkt, err := enc.Encode(benchClip())
	if err != nil || len(pkt) == 0 {
		b.Fatalf("no packet from 100 ms of audio: %v", err)
	}
	dec, err := NewDecoder("ovl", audio.CDQuality)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = dec.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
