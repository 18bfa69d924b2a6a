package codec

import (
	"fmt"

	"repro/internal/audio"
)

// Delivery profiles are the relay's quality ladder: a small, ordered
// set of wire encodings a relay can serve one upstream stream at. A
// subscriber requests a profile at subscribe time and the relay may
// step it further down the ladder under queue pressure (and back up
// when the pressure clears), trading fidelity for bitrate instead of
// dropping whole packets. The tiers reuse the registered codecs:
// source passthrough, G.711 µ-law (2:1), and two OVL quality points.
//
// Profile numbers are wire values (proto.Subscribe/SubAck carry one
// byte): ProfileSource is deliberately zero so a subscriber that never
// sets a profile asks for "source passthrough", and the ladder is
// ordered best-first so "downgrade" is numerically +1.

// Profile identifies one rung of the delivery quality ladder.
type Profile uint8

// The ladder, best fidelity first. Downgrading moves toward
// ProfileOVLLow; upgrading moves back toward the subscriber's
// requested profile.
const (
	// ProfileSource forwards the upstream payload untouched (the wire
	// zero value).
	ProfileSource Profile = 0
	// ProfileULaw transcodes to G.711 µ-law: 2:1, negligible CPU.
	ProfileULaw Profile = 1
	// ProfileOVLHigh transcodes to OVL at a high quality index.
	ProfileOVLHigh Profile = 2
	// ProfileOVLLow transcodes to OVL at a low quality index — the
	// bottom rung, the cheapest stream the relay can serve.
	ProfileOVLLow Profile = 3

	// NumProfiles is the number of ladder rungs (valid profiles are
	// 0 .. NumProfiles-1).
	NumProfiles = 4
)

// OVL quality indices backing the two OVL rungs.
const (
	ovlHighQuality = 8
	ovlLowQuality  = 2
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileSource:
		return "source"
	case ProfileULaw:
		return "ulaw"
	case ProfileOVLHigh:
		return "ovl-high"
	case ProfileOVLLow:
		return "ovl-low"
	default:
		return fmt.Sprintf("profile(%d)", uint8(p))
	}
}

// Valid reports whether p names a ladder rung.
func (p Profile) Valid() bool { return p < NumProfiles }

// Down returns the next rung toward the bottom of the ladder,
// clamping at ProfileOVLLow.
func (p Profile) Down() Profile {
	if p >= ProfileOVLLow {
		return ProfileOVLLow
	}
	return p + 1
}

// Up returns the next rung toward the top of the ladder, clamping at
// ProfileSource.
func (p Profile) Up() Profile {
	if p == ProfileSource {
		return ProfileSource
	}
	return p - 1
}

// ParseProfile resolves a profile by its String name ("source",
// "ulaw", "ovl-high", "ovl-low").
func ParseProfile(name string) (Profile, error) {
	for p := Profile(0); p.Valid(); p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("codec: unknown profile %q", name)
}

// CodecSpec returns the registry codec name and quality index a
// profile encodes with. ProfileSource has no codec of its own (it
// forwards whatever the upstream uses) and returns "".
func (p Profile) CodecSpec() (name string, quality int) {
	switch p {
	case ProfileULaw:
		return "ulaw", 0
	case ProfileOVLHigh:
		return "ovl", ovlHighQuality
	case ProfileOVLLow:
		return "ovl", ovlLowQuality
	default:
		return "", 0
	}
}

// Transcoder re-encodes one codec's packets into a profile's wire
// encoding: decode with the source codec, re-encode with the
// profile's. Each Transcode call is self-contained — the decoder is
// reset and the encoder flushed per packet — so every output payload
// decodes independently, which the relay needs because it drops
// packets under pressure and admits subscribers mid-stream. The cost
// is that codecs with frame buffering (OVL) zero-pad each packet's
// final frame.
//
// A Transcoder is not safe for concurrent use; the relay builds one
// per (stream, profile) and drives it from the single fan-out path.
type Transcoder struct {
	profile Profile
	dec     Decoder
	enc     Encoder
	pcm     []byte // the decoded packet, reused from call to call
}

// appendDecoder is a Decoder that can write into its caller's buffer,
// which is how a Transcoder keeps one PCM buffer for the stream's life:
// the decoded audio never leaves Transcode. raw and OVL are; a codec
// registered from outside need not be.
type appendDecoder interface {
	// appendDecode is Decode appending the recovered audio to dst.
	appendDecode(dst, pkt []byte) ([]byte, error)
}

// NewTranscoder builds a transcoder from the named source codec (the
// upstream stream's wire encoding, with its audio parameters) to the
// given profile. It errors when either side cannot be built — an
// unknown source codec, invalid params, or a profile the stream
// cannot carry (µ-law needs a 16-bit source) — in which case the
// caller falls back to source passthrough.
func NewTranscoder(srcCodec string, p audio.Params, profile Profile) (*Transcoder, error) {
	name, quality := profile.CodecSpec()
	if name == "" {
		return nil, fmt.Errorf("codec: profile %s does not transcode", profile)
	}
	dec, err := NewDecoder(srcCodec, p)
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(name, p, quality)
	if err != nil {
		return nil, err
	}
	return &Transcoder{profile: profile, dec: dec, enc: enc}, nil
}

// Profile returns the ladder rung this transcoder encodes for.
func (t *Transcoder) Profile() Profile { return t.profile }

// Transcode converts one source packet payload into the profile's
// encoding. The result is independently decodable.
func (t *Transcoder) Transcode(payload []byte) ([]byte, error) {
	t.dec.Reset()
	var pcm []byte
	var err error
	if ad, ok := t.dec.(appendDecoder); ok {
		if pcm, err = ad.appendDecode(t.pcm[:0], payload); err == nil {
			t.pcm = pcm
		}
	} else {
		pcm, err = t.dec.Decode(payload)
	}
	if err != nil {
		return nil, err
	}
	out, err := t.enc.Encode(pcm)
	if err != nil {
		return nil, err
	}
	tail, err := t.enc.Flush()
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return tail, nil
	}
	return append(out, tail...), nil
}
