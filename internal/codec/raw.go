package codec

import "repro/internal/audio"

// The raw codec is a passthrough: the wire format is the stream's own
// encoding. The paper keeps low-bitrate channels raw because compression
// latency and CPU are not worth paying below ~100 kbps (§2.2).

func init() {
	Register(Info{
		Name:  "raw",
		Lossy: false,
		New: func(p audio.Params, quality int) (Encoder, error) {
			return &rawCodec{}, nil
		},
		NewDecoder: func(p audio.Params) (Decoder, error) {
			return &rawCodec{}, nil
		},
	})
}

type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }

func (rawCodec) Encode(raw []byte) ([]byte, error) {
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, nil
}

func (rawCodec) Flush() ([]byte, error) { return nil, nil }

func (c rawCodec) Decode(pkt []byte) ([]byte, error) {
	return c.appendDecode(make([]byte, 0, len(pkt)), pkt)
}

func (rawCodec) appendDecode(dst, pkt []byte) ([]byte, error) { return append(dst, pkt...), nil }

func (rawCodec) Reset() {}
