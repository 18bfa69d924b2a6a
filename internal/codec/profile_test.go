package codec

import (
	"testing"

	"repro/internal/audio"
)

// mono16 is the test stream configuration: 16-bit mono, 32 kHz so the
// OVL tiers use the full 256-coefficient MDCT.
var mono16 = audio.Params{SampleRate: 32000, Channels: 1, Encoding: audio.EncodingSLinear16LE}

// tonePCM returns frames of a 440 Hz tone as raw stream bytes.
func tonePCM(t *testing.T, p audio.Params, frames int) []byte {
	t.Helper()
	src := audio.Limit(audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), frames)
	return audio.Encode(p, audio.ReadAll(src))
}

func TestProfileLadderOrder(t *testing.T) {
	if ProfileSource.Down() != ProfileULaw || ProfileULaw.Down() != ProfileOVLHigh ||
		ProfileOVLHigh.Down() != ProfileOVLLow {
		t.Fatalf("ladder down order broken")
	}
	if ProfileOVLLow.Down() != ProfileOVLLow {
		t.Fatalf("bottom rung must clamp on Down")
	}
	if ProfileOVLLow.Up() != ProfileOVLHigh || ProfileOVLHigh.Up() != ProfileULaw ||
		ProfileULaw.Up() != ProfileSource {
		t.Fatalf("ladder up order broken")
	}
	if ProfileSource.Up() != ProfileSource {
		t.Fatalf("top rung must clamp on Up")
	}
	for p := Profile(0); p.Valid(); p++ {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProfile(%q) = %v, %v", p.String(), got, err)
		}
	}
	if Profile(NumProfiles).Valid() {
		t.Fatalf("Profile(NumProfiles) must be invalid")
	}
	if _, err := ParseProfile("mp3"); err == nil {
		t.Fatalf("ParseProfile must reject unknown names")
	}
}

// TestTranscodeRoundTrip walks the whole ladder: a raw source packet is
// transcoded to each lossy tier, split through the framing layer as a
// real relay payload would be, and decoded back. The decoded audio
// must cover at least the original duration (OVL zero-pads the final
// frame) and stay recognizably the same signal.
func TestTranscodeRoundTrip(t *testing.T) {
	p := mono16
	pcm := tonePCM(t, p, 1024) // 4 OVL hops exactly
	ref := audio.Decode(p, pcm)
	for _, profile := range []Profile{ProfileULaw, ProfileOVLHigh, ProfileOVLLow} {
		tc, err := NewTranscoder("raw", p, profile)
		if err != nil {
			t.Fatalf("%s: NewTranscoder: %v", profile, err)
		}
		if tc.Profile() != profile {
			t.Fatalf("%s: Profile() = %s", profile, tc.Profile())
		}
		wire, err := tc.Transcode(pcm)
		if err != nil {
			t.Fatalf("%s: Transcode: %v", profile, err)
		}
		if len(wire) == 0 || len(wire) >= len(pcm) {
			t.Fatalf("%s: transcoded %d bytes from %d; want nonzero and smaller", profile, len(wire), len(pcm))
		}
		name, _ := profile.CodecSpec()
		// Over the framing layer: the transcoded stream must split into
		// independently decodable payloads.
		payloads, err := Split(name, p, wire, 1200)
		if err != nil {
			t.Fatalf("%s: Split: %v", profile, err)
		}
		var decoded []int16
		for _, payload := range payloads {
			dec, err := NewDecoder(name, p)
			if err != nil {
				t.Fatalf("%s: NewDecoder: %v", profile, err)
			}
			out, err := dec.Decode(payload)
			if err != nil {
				t.Fatalf("%s: Decode split payload: %v", profile, err)
			}
			decoded = append(decoded, audio.Decode(p, out)...)
		}
		if len(decoded) < len(ref) {
			t.Fatalf("%s: decoded %d samples, want >= %d", profile, len(decoded), len(ref))
		}
		// The lapped OVL transform smears energy across frame boundaries,
		// so compare loudness rather than waveforms: the round trip must
		// preserve the signal's scale within a factor of two.
		if got, want := audio.RMS(decoded[:len(ref)]), audio.RMS(ref); got < want/2 || got > want*2 {
			t.Fatalf("%s: round-trip RMS %f, source %f", profile, got, want)
		}
	}
}

// TestTranscodeLadderChain steps one stream down the full ladder the
// way a congested relay would: the output of each tier feeds the next
// as its source codec.
func TestTranscodeLadderChain(t *testing.T) {
	p := mono16
	wire := tonePCM(t, p, 1024)
	src := "raw"
	for _, profile := range []Profile{ProfileULaw, ProfileOVLHigh, ProfileOVLLow} {
		tc, err := NewTranscoder(src, p, profile)
		if err != nil {
			t.Fatalf("%s from %s: %v", profile, src, err)
		}
		out, err := tc.Transcode(wire)
		if err != nil {
			t.Fatalf("%s from %s: Transcode: %v", profile, src, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s from %s: empty output", profile, src)
		}
		wire = out
		src, _ = profile.CodecSpec()
	}
	// The end of the chain is a valid OVL stream at the low tier.
	if _, _, err := ovlFrameInfo(wire); err != nil {
		t.Fatalf("chained output is not framed OVL: %v", err)
	}
}

// TestTranscodeMalformedFrames covers the tier boundaries with damaged
// input: truncated and corrupted frames must error, not panic or pass.
func TestTranscodeMalformedFrames(t *testing.T) {
	p := mono16
	pcm := tonePCM(t, p, 512)
	// Build a valid OVL stream to damage.
	tc, err := NewTranscoder("raw", p, ProfileOVLHigh)
	if err != nil {
		t.Fatal(err)
	}
	ovlWire, err := tc.Transcode(pcm)
	if err != nil {
		t.Fatal(err)
	}

	// OVL source truncated mid-frame: the ovl→ovl (high→low) transcoder
	// must surface the decode error.
	down, err := NewTranscoder("ovl", p, ProfileOVLLow)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, ovlHeader - 1, ovlHeader + 1, len(ovlWire) - 1} {
		if _, err := down.Transcode(ovlWire[:cut]); err == nil {
			t.Fatalf("truncated ovl source at %d bytes transcoded without error", cut)
		}
	}
	// Corrupt magic: rejected.
	bad := append([]byte(nil), ovlWire...)
	bad[0] ^= 0xFF
	if _, err := down.Transcode(bad); err == nil {
		t.Fatalf("corrupt ovl magic transcoded without error")
	}
	// A damaged stream must also fail the framing layer, so a relay
	// never splits garbage into payloads.
	if _, err := Split("ovl", p, ovlWire[:len(ovlWire)-1], 1200); err == nil {
		t.Fatalf("Split accepted a truncated ovl stream")
	}

	// µ-law tier boundary: the transcoder buffers a split 16-bit sample
	// rather than emitting a torn one.
	utc, err := NewTranscoder("raw", p, ProfileULaw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := utc.Transcode(pcm[:len(pcm)-1])
	if err != nil {
		t.Fatalf("odd-length raw input: %v", err)
	}
	if len(out) != (len(pcm)-1)/2 {
		t.Fatalf("ulaw tier emitted %d bytes for %d input bytes", len(out), len(pcm)-1)
	}

	// Profiles a stream cannot carry must fail construction, not at
	// transcode time: µ-law needs a 16-bit source.
	if _, err := NewTranscoder("raw", audio.Voice, ProfileULaw); err == nil {
		t.Fatalf("ulaw profile over an 8-bit source must fail")
	}
	if _, err := NewTranscoder("nope", p, ProfileULaw); err == nil {
		t.Fatalf("unknown source codec must fail")
	}
	if _, err := NewTranscoder("raw", p, ProfileSource); err == nil {
		t.Fatalf("ProfileSource has no transcoder")
	}
}

// BenchmarkTranscode prices what a tiered relay pays per upstream packet
// and tier: one 1,260-byte CD-quality raw payload (the producer's packet
// at 44.1 kHz stereo) decoded, re-encoded and flushed.
func BenchmarkTranscode(b *testing.B) {
	p := audio.CDQuality
	samples := make([]int16, 1260/2)
	audio.Music(p.SampleRate, p.Channels).ReadSamples(samples)
	payload := audio.Encode(p, samples)
	for _, profile := range []Profile{ProfileULaw, ProfileOVLHigh, ProfileOVLLow} {
		b.Run(profile.String(), func(b *testing.B) {
			tc, err := NewTranscoder("raw", p, profile)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = tc.Transcode(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
