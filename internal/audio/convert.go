package audio

import (
	"fmt"
	"slices"
)

// Decode converts raw bytes in the wire encoding described by p into
// interleaved 16-bit signed PCM, the internal working format. Trailing
// partial samples are ignored.
func Decode(p Params, data []byte) []int16 { return AppendDecode(nil, p, data) }

// AppendDecode is Decode appending to dst, for a caller that keeps its
// sample buffer from one call to the next.
func AppendDecode(dst []int16, p Params, data []byte) []int16 {
	bps := p.Encoding.BytesPerSample()
	if bps == 0 {
		return dst
	}
	n := len(data) / bps
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	dst = dst[:len(dst)+n]
	switch p.Encoding {
	case EncodingULaw:
		for i := 0; i < n; i++ {
			out[i] = ULawToLinear(data[i])
		}
	case EncodingALaw:
		for i := 0; i < n; i++ {
			out[i] = ALawToLinear(data[i])
		}
	case EncodingSLinear8:
		for i := 0; i < n; i++ {
			out[i] = int16(int8(data[i])) << 8
		}
	case EncodingULinear8:
		for i := 0; i < n; i++ {
			out[i] = (int16(data[i]) - 128) << 8
		}
	case EncodingSLinear16LE:
		for i := 0; i < n; i++ {
			out[i] = int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8)
		}
	case EncodingSLinear16BE:
		for i := 0; i < n; i++ {
			out[i] = int16(uint16(data[2*i])<<8 | uint16(data[2*i+1]))
		}
	case EncodingULinear16LE:
		for i := 0; i < n; i++ {
			u := uint16(data[2*i]) | uint16(data[2*i+1])<<8
			out[i] = int16(u ^ 0x8000)
		}
	case EncodingULinear16BE:
		for i := 0; i < n; i++ {
			u := uint16(data[2*i])<<8 | uint16(data[2*i+1])
			out[i] = int16(u ^ 0x8000)
		}
	}
	return dst
}

// Encode converts interleaved PCM16 samples into the wire encoding
// described by p.
func Encode(p Params, samples []int16) []byte { return AppendEncode(nil, p, samples) }

// AppendEncode is Encode appending to dst.
func AppendEncode(dst []byte, p Params, samples []int16) []byte {
	bps := p.Encoding.BytesPerSample()
	if bps == 0 {
		return dst
	}
	n := len(samples) * bps
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	dst = dst[:len(dst)+n]
	switch p.Encoding {
	case EncodingULaw:
		for i, s := range samples {
			out[i] = LinearToULaw(s)
		}
	case EncodingALaw:
		for i, s := range samples {
			out[i] = LinearToALaw(s)
		}
	case EncodingSLinear8:
		for i, s := range samples {
			out[i] = byte(s >> 8)
		}
	case EncodingULinear8:
		for i, s := range samples {
			out[i] = byte(s>>8) + 128
		}
	case EncodingSLinear16LE:
		for i, s := range samples {
			out[2*i] = byte(s)
			out[2*i+1] = byte(uint16(s) >> 8)
		}
	case EncodingSLinear16BE:
		for i, s := range samples {
			out[2*i] = byte(uint16(s) >> 8)
			out[2*i+1] = byte(s)
		}
	case EncodingULinear16LE:
		for i, s := range samples {
			u := uint16(s) ^ 0x8000
			out[2*i] = byte(u)
			out[2*i+1] = byte(u >> 8)
		}
	case EncodingULinear16BE:
		for i, s := range samples {
			u := uint16(s) ^ 0x8000
			out[2*i] = byte(u >> 8)
			out[2*i+1] = byte(u)
		}
	}
	return dst
}

// SilenceByte returns the byte value that represents silence in encoding
// e — what the high-level audio driver inserts when its ring buffer runs
// dry (§2.1.1).
func SilenceByte(e Encoding) byte {
	switch e {
	case EncodingULaw:
		return 0xFF // +0 in µ-law
	case EncodingALaw:
		return 0xD5 // +0 in A-law
	case EncodingULinear8:
		return 0x80
	case EncodingULinear16LE, EncodingULinear16BE:
		return 0x80 // approximation: used for whole-buffer fills
	default:
		return 0x00
	}
}

// FillSilence overwrites buf with silence in encoding e.
func FillSilence(e Encoding, buf []byte) {
	switch e {
	case EncodingULinear16LE:
		for i := range buf {
			if i%2 == 1 {
				buf[i] = 0x80
			} else {
				buf[i] = 0x00
			}
		}
	case EncodingULinear16BE:
		for i := range buf {
			if i%2 == 0 {
				buf[i] = 0x80
			} else {
				buf[i] = 0x00
			}
		}
	default:
		b := SilenceByte(e)
		for i := range buf {
			buf[i] = b
		}
	}
}

// Convert re-encodes raw audio bytes from one configuration to another,
// resampling and remapping channels as needed. It is the speaker-side
// fallback when the local hardware cannot be opened with the stream's
// exact parameters.
func Convert(from, to Params, data []byte) ([]byte, error) {
	if err := from.Validate(); err != nil {
		return nil, fmt.Errorf("audio: convert source: %w", err)
	}
	if err := to.Validate(); err != nil {
		return nil, fmt.Errorf("audio: convert target: %w", err)
	}
	samples := Decode(from, data)
	samples = RemapChannels(samples, from.Channels, to.Channels)
	if from.SampleRate != to.SampleRate {
		samples = Resample(samples, to.Channels, from.SampleRate, to.SampleRate)
	}
	return Encode(to, samples), nil
}

// RemapChannels converts interleaved PCM between channel counts:
// downmixing averages source channels, upmixing duplicates the last
// source channel.
func RemapChannels(samples []int16, from, to int) []int16 {
	if from == to || from <= 0 || to <= 0 {
		return samples
	}
	frames := len(samples) / from
	out := make([]int16, frames*to)
	for f := 0; f < frames; f++ {
		in := samples[f*from : (f+1)*from]
		if to < from {
			// Downmix: average groups of channels.
			for c := 0; c < to; c++ {
				sum := 0
				count := 0
				for s := c; s < from; s += to {
					sum += int(in[s])
					count++
				}
				out[f*to+c] = int16(sum / count)
			}
		} else {
			for c := 0; c < to; c++ {
				src := c
				if src >= from {
					src = from - 1
				}
				out[f*to+c] = in[src]
			}
		}
	}
	return out
}

// Resample converts interleaved PCM between sample rates with linear
// interpolation. channels must divide len(samples).
func Resample(samples []int16, channels, fromRate, toRate int) []int16 {
	if fromRate == toRate || channels <= 0 || fromRate <= 0 || toRate <= 0 {
		return samples
	}
	inFrames := len(samples) / channels
	if inFrames == 0 {
		return nil
	}
	outFrames := int(int64(inFrames) * int64(toRate) / int64(fromRate))
	if outFrames == 0 {
		outFrames = 1
	}
	out := make([]int16, outFrames*channels)
	for f := 0; f < outFrames; f++ {
		// Source position in fixed point (16 fractional bits).
		pos := int64(f) * int64(fromRate) * 65536 / int64(toRate)
		idx := int(pos >> 16)
		frac := int32(pos & 0xFFFF)
		for c := 0; c < channels; c++ {
			a := int32(samples[idx*channels+c])
			b := a
			if idx+1 < inFrames {
				b = int32(samples[(idx+1)*channels+c])
			}
			out[f*channels+c] = int16(a + (b-a)*frac/65536)
		}
	}
	return out
}
