package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/audio"
)

// Wire constants.
const (
	// Magic is the two-byte packet prefix "ES".
	Magic = 0x4553
	// Version is the protocol version this package speaks, and the only
	// compatibility rule: every packet type has exactly one body per
	// version, and PeekType refuses any other version outright.
	Version = 2
	// headerLen is the fixed common header: magic(2) version(1) type(1)
	// channel(4).
	headerLen = 8
	// maxString bounds every length-prefixed string on the wire.
	maxString = 255

	// SubscribeBodyLen is the one Subscribe body: seq(4) leasems(4)
	// hops(1) pathid(8) profile(1) shiftms(4).
	SubscribeBodyLen = 22
	// SubAckBodyLen is the fixed SubAck body: seq(4) leasems(4) status(1)
	// profile(1) shiftms(4). A SubRedirect appends the redirect string.
	SubAckBodyLen = 14
	// announceSigLen is the fixed part of an announce's signature
	// section: scheme(1) gen(4) siglen(2).
	announceSigLen = 7
)

// PacketType discriminates the packet kinds.
type PacketType uint8

// Packet kinds.
const (
	TypeControl  PacketType = 1
	TypeData     PacketType = 2
	TypeAnnounce PacketType = 3
	// TypeSubscribe asks a relay for a unicast copy of a channel's
	// control + data stream under a TURN-style lease (§2.3 keeps the
	// producer itself listener-stateless; the relay is where off-LAN
	// subscriber state lives).
	TypeSubscribe PacketType = 4
	// TypeSubAck is the relay's reply: the granted lease, or a refusal.
	TypeSubAck PacketType = 5
	// TypePause freezes or resumes a subscriber's delivery cursor on a
	// DVR-enabled relay. While paused the relay's generation ring keeps
	// recording; resume replays the gap at faster than
	// realtime until the cursor converges on live.
	TypePause PacketType = 6
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	switch t {
	case TypeControl:
		return "control"
	case TypeData:
		return "data"
	case TypeAnnounce:
		return "announce"
	case TypeSubscribe:
		return "subscribe"
	case TypeSubAck:
		return "suback"
	case TypePause:
		return "pause"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// AuthScheme names the packet-authentication mode a channel uses (§5.1).
type AuthScheme uint8

// Authentication schemes.
const (
	AuthNone  AuthScheme = 0
	AuthHMAC  AuthScheme = 1
	AuthChain AuthScheme = 2
	AuthHORS  AuthScheme = 3
	// AuthIdentity is the per-subscriber control-plane scheme: the
	// trailer carries the sender's identity ID and a monotonic sequence,
	// and the tag binds the datagram's UDP source address, so a captured
	// request neither replays from a spoofed source nor forges another
	// subscriber's control actions.
	AuthIdentity AuthScheme = 4
)

// String implements fmt.Stringer.
func (a AuthScheme) String() string {
	switch a {
	case AuthNone:
		return "none"
	case AuthHMAC:
		return "hmac"
	case AuthChain:
		return "chain"
	case AuthHORS:
		return "hors"
	case AuthIdentity:
		return "ident"
	default:
		return fmt.Sprintf("auth(%d)", uint8(a))
	}
}

// Errors returned by parsers.
var (
	ErrShort      = errors.New("proto: packet too short")
	ErrBadMagic   = errors.New("proto: bad magic")
	ErrBadVersion = errors.New("proto: unsupported version")
	ErrBadPacket  = errors.New("proto: malformed packet")
)

// Control is the periodic configuration + wall-clock packet. A speaker
// may not play a channel until it has seen one (§2.3).
type Control struct {
	Channel  uint32       // channel identifier
	Epoch    uint32       // stream generation; bumps on reconfiguration
	Seq      uint64       // control packet sequence
	Producer int64        // producer wall clock, ns since producer epoch
	Params   audio.Params // audio configuration from the VAD
	Codec    string       // codec registry name
	Quality  uint8        // codec quality index
	Auth     AuthScheme   // authentication in use on this channel
	Interval uint32       // control cadence in milliseconds
}

// Data is one timestamped chunk of encoded audio.
type Data struct {
	Channel uint32 // channel identifier
	Epoch   uint32 // must match the controlling Control.Epoch
	Seq     uint64 // data packet sequence (per epoch)
	PlayAt  int64  // producer-relative play deadline, ns
	Payload []byte // codec frames
}

// ChannelInfo is one catalog entry.
type ChannelInfo struct {
	ID     uint32
	Name   string
	Group  string // multicast group "addr:port" carrying the channel
	Codec  string
	Params audio.Params
}

// RelayInfo is one relay's catalog record: where to lease a unicast
// copy of a stream when the multicast group itself is out of reach.
//
// The load vector (HasLoad and the fields after it) is the record's
// optional self-reported load, re-stamped on every advertise so
// discovery can rank candidates and shedding can pick the least-loaded
// sibling. A static catalog record has none (HasLoad false).
type RelayInfo struct {
	Addr    string // unicast "addr:port" subscribers lease from
	Group   string // multicast group relayed, or the upstream relay's address for a chained relay
	Channel uint32 // channel restriction; 0 = whatever the source carries

	HasLoad  bool   // the announce carried a load vector for this record
	Subs     uint32 // current leased subscribers
	Pressure uint8  // queue-pressure score, 0 (idle) to 255 (saturated)
	Hops     uint8  // relay hops from the stream source (1 = joins the group); 0 = unknown
}

// LoadScore orders relay records least-loaded first: subscriber count
// dominates, queue pressure breaks ties among equally-subscribed
// relays, and hops-from-source breaks ties among equally-pressured
// ones (a shorter chain adds less latency and fewer failure points).
// A record without a load vector scores behind every record with one:
// an announcer that reports its load is always preferred over a static
// record that cannot.
func (ri RelayInfo) LoadScore() uint64 {
	if !ri.HasLoad {
		return 1 << 63
	}
	return uint64(ri.Subs)<<16 | uint64(ri.Pressure)<<8 | uint64(ri.Hops)
}

// Announce is the out-of-band channel catalog (§4.3): it lets speakers
// discover channels without listening in on each one. Relays advertise
// themselves here too, so off-LAN speakers and downstream relays can
// find a bridge without static configuration.
type Announce struct {
	Seq      uint64
	Channels []ChannelInfo
	Relays   []RelayInfo

	// Signature section: a forged catalog record is the one remaining
	// way to steer subscribers to a rogue relay, so a catalog may sign
	// each announce with a few-time key. The signature covers every
	// byte that precedes the section plus SigGen, the key generation it
	// was made under (announces outlive any single few-time key, so
	// signers rotate generations and verifiers derive or look up the
	// matching public key). An unsigned announce (scheme AuthNone, no
	// generation, no signature) still parses — whether it is *accepted*
	// is the receiver's policy, not the grammar's.
	SigScheme AuthScheme // scheme the signature uses (AuthNone = unsigned)
	SigGen    uint32     // signing key generation
	Sig       []byte     // signature over the preceding bytes + SigGen
}

// putHeader writes the common header.
func putHeader(buf []byte, t PacketType, channel uint32) {
	binary.BigEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = byte(t)
	binary.BigEndian.PutUint32(buf[4:8], channel)
}

// PeekType validates the common header and returns the packet type and
// channel without parsing the body.
func PeekType(data []byte) (PacketType, uint32, error) {
	if len(data) < headerLen {
		return 0, 0, ErrShort
	}
	if binary.BigEndian.Uint16(data[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if data[2] != Version {
		return 0, 0, ErrBadVersion
	}
	t := PacketType(data[3])
	switch t {
	case TypeControl, TypeData, TypeAnnounce, TypeSubscribe, TypeSubAck, TypePause:
	default:
		return 0, 0, fmt.Errorf("%w: unknown type %d", ErrBadPacket, data[3])
	}
	return t, binary.BigEndian.Uint32(data[4:8]), nil
}

// appendString writes a u8-length-prefixed string.
func appendString(buf []byte, s string) ([]byte, error) {
	if len(s) > maxString {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrBadPacket, len(s))
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...), nil
}

// readString consumes a u8-length-prefixed string.
func readString(data []byte) (string, []byte, error) {
	if len(data) < 1 {
		return "", nil, ErrShort
	}
	n := int(data[0])
	if len(data) < 1+n {
		return "", nil, ErrShort
	}
	return string(data[1 : 1+n]), data[1+n:], nil
}

// appendParams writes an audio configuration.
func appendParams(buf []byte, p audio.Params) []byte {
	var b [6]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(p.SampleRate))
	b[4] = byte(p.Channels)
	b[5] = byte(p.Encoding)
	return append(buf, b[:]...)
}

// readParams consumes an audio configuration and validates it. An
// all-zero configuration is accepted as "not yet configured": catalog
// entries may describe channels whose application has not opened the
// VAD yet.
func readParams(data []byte) (audio.Params, []byte, error) {
	if len(data) < 6 {
		return audio.Params{}, nil, ErrShort
	}
	p := audio.Params{
		SampleRate: int(binary.BigEndian.Uint32(data[0:4])),
		Channels:   int(data[4]),
		Encoding:   audio.Encoding(data[5]),
	}
	if p == (audio.Params{}) {
		return p, data[6:], nil
	}
	if err := p.Validate(); err != nil {
		return audio.Params{}, nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return p, data[6:], nil
}

// Marshal encodes the control packet.
func (c *Control) Marshal() ([]byte, error) {
	buf := make([]byte, headerLen, headerLen+64)
	putHeader(buf, TypeControl, c.Channel)
	var fixed [28]byte
	binary.BigEndian.PutUint32(fixed[0:4], c.Epoch)
	binary.BigEndian.PutUint64(fixed[4:12], c.Seq)
	binary.BigEndian.PutUint64(fixed[12:20], uint64(c.Producer))
	binary.BigEndian.PutUint32(fixed[20:24], c.Interval)
	fixed[24] = c.Quality
	fixed[25] = byte(c.Auth)
	// fixed[26:28] reserved
	buf = append(buf, fixed[:]...)
	buf = appendParams(buf, c.Params)
	return appendString(buf, c.Codec)
}

// UnmarshalControl parses a control packet.
func UnmarshalControl(data []byte) (*Control, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypeControl {
		return nil, fmt.Errorf("%w: expected control, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < 28 {
		return nil, ErrShort
	}
	c := &Control{Channel: ch}
	c.Epoch = binary.BigEndian.Uint32(body[0:4])
	c.Seq = binary.BigEndian.Uint64(body[4:12])
	c.Producer = int64(binary.BigEndian.Uint64(body[12:20]))
	c.Interval = binary.BigEndian.Uint32(body[20:24])
	c.Quality = body[24]
	c.Auth = AuthScheme(body[25])
	body = body[28:]
	if c.Params, body, err = readParams(body); err != nil {
		return nil, err
	}
	// A control packet must carry a playable configuration (unlike a
	// catalog entry, which may be unconfigured).
	if err := c.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	if c.Codec, body, err = readString(body); err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(body))
	}
	return c, nil
}

// Marshal encodes the data packet.
func (d *Data) Marshal() ([]byte, error) {
	buf := make([]byte, headerLen, headerLen+24+len(d.Payload))
	putHeader(buf, TypeData, d.Channel)
	var fixed [22]byte
	binary.BigEndian.PutUint32(fixed[0:4], d.Epoch)
	binary.BigEndian.PutUint64(fixed[4:12], d.Seq)
	binary.BigEndian.PutUint64(fixed[12:20], uint64(d.PlayAt))
	binary.BigEndian.PutUint16(fixed[20:22], uint16(len(d.Payload)))
	if len(d.Payload) > 65535 {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrBadPacket, len(d.Payload))
	}
	buf = append(buf, fixed[:]...)
	return append(buf, d.Payload...), nil
}

// UnmarshalData parses a data packet.
func UnmarshalData(data []byte) (*Data, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypeData {
		return nil, fmt.Errorf("%w: expected data, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < 22 {
		return nil, ErrShort
	}
	d := &Data{Channel: ch}
	d.Epoch = binary.BigEndian.Uint32(body[0:4])
	d.Seq = binary.BigEndian.Uint64(body[4:12])
	d.PlayAt = int64(binary.BigEndian.Uint64(body[12:20]))
	n := int(binary.BigEndian.Uint16(body[20:22]))
	body = body[22:]
	if len(body) != n {
		return nil, fmt.Errorf("%w: payload length %d != declared %d", ErrBadPacket, len(body), n)
	}
	d.Payload = append([]byte(nil), body...)
	return d, nil
}

// Marshal encodes the announce packet: channels, relay records (each
// with its flags byte and, when HasLoad, its load vector inline), then
// the signature section. Signers usually marshal unsigned and sign the
// result (the signature covers the marshaled prefix).
func (a *Announce) Marshal() ([]byte, error) {
	if len(a.Channels) > 255 {
		return nil, fmt.Errorf("%w: %d channels", ErrBadPacket, len(a.Channels))
	}
	if len(a.Relays) > 255 {
		return nil, fmt.Errorf("%w: %d relays", ErrBadPacket, len(a.Relays))
	}
	buf := make([]byte, headerLen, 256)
	putHeader(buf, TypeAnnounce, 0)
	var fixed [9]byte
	binary.BigEndian.PutUint64(fixed[0:8], a.Seq)
	fixed[8] = byte(len(a.Channels))
	buf = append(buf, fixed[:]...)
	var err error
	for _, ci := range a.Channels {
		var idb [4]byte
		binary.BigEndian.PutUint32(idb[:], ci.ID)
		buf = append(buf, idb[:]...)
		if buf, err = appendString(buf, ci.Name); err != nil {
			return nil, err
		}
		if buf, err = appendString(buf, ci.Group); err != nil {
			return nil, err
		}
		if buf, err = appendString(buf, ci.Codec); err != nil {
			return nil, err
		}
		buf = appendParams(buf, ci.Params)
	}
	buf = append(buf, byte(len(a.Relays)))
	for _, ri := range a.Relays {
		if buf, err = appendString(buf, ri.Addr); err != nil {
			return nil, err
		}
		if buf, err = appendString(buf, ri.Group); err != nil {
			return nil, err
		}
		// Channel, then the flags byte; bit 0 announces the 6-byte load
		// vector. Per-record flags let a catalog mix live records (which
		// stamp load) with static ones (which cannot).
		var rb [11]byte
		binary.BigEndian.PutUint32(rb[0:4], ri.Channel)
		if !ri.HasLoad {
			buf = append(buf, rb[:5]...)
			continue
		}
		rb[4] = 1
		binary.BigEndian.PutUint32(rb[5:9], ri.Subs)
		rb[9] = ri.Pressure
		rb[10] = ri.Hops
		buf = append(buf, rb[:]...)
	}
	return AppendAnnounceSig(buf, a.SigScheme, a.SigGen, a.Sig)
}

// AppendAnnounceSig appends the signature section — always present,
// always last — to an announce prefix (everything before the section:
// what SplitAnnounceSig returns, and what a signature covers):
//
//	u8 scheme || u32 gen || u16 siglen || sig
//
// Scheme AuthNone is the unsigned form and carries neither generation
// nor signature; any other scheme carries a nonempty signature. The
// signature must cover prefix plus gen; AppendAnnounceSig only frames
// it, into a fresh buffer.
func AppendAnnounceSig(prefix []byte, scheme AuthScheme, gen uint32, sig []byte) ([]byte, error) {
	if err := checkAnnounceSig(scheme, gen, len(sig)); err != nil {
		return nil, err
	}
	var fixed [announceSigLen]byte
	fixed[0] = byte(scheme)
	binary.BigEndian.PutUint32(fixed[1:5], gen)
	binary.BigEndian.PutUint16(fixed[5:7], uint16(len(sig)))
	out := append(prefix[:len(prefix):len(prefix)], fixed[:]...)
	return append(out, sig...), nil
}

// checkAnnounceSig is the signature section's consistency rule, held on
// both sides of the wire: unsigned means no generation and no
// signature, signed means a nonempty signature the u16 length can state.
func checkAnnounceSig(scheme AuthScheme, gen uint32, siglen int) error {
	if (scheme == AuthNone) != (siglen == 0) || (scheme == AuthNone && gen != 0) || siglen > 65535 {
		return fmt.Errorf("%w: scheme %s with generation %d and a %d-byte signature",
			ErrBadPacket, scheme, gen, siglen)
	}
	return nil
}

// UnmarshalAnnounce parses an announce packet.
func UnmarshalAnnounce(data []byte) (*Announce, error) {
	a, _, err := unmarshalAnnounce(data)
	return a, err
}

// SplitAnnounceSig splits a marshaled announce into the prefix its
// signature covers (everything before the signature section) and the
// signature fields; signed is false for an unsigned announce. The
// packet is fully parsed, so a malformed announce errors here exactly
// as it would in UnmarshalAnnounce.
func SplitAnnounceSig(data []byte) (prefix []byte, scheme AuthScheme, gen uint32, sig []byte, signed bool, err error) {
	a, sigStart, err := unmarshalAnnounce(data)
	if err != nil {
		return nil, AuthNone, 0, nil, false, err
	}
	return data[:sigStart], a.SigScheme, a.SigGen, a.Sig, a.SigScheme != AuthNone, nil
}

// unmarshalAnnounce parses an announce and reports where its signature
// section starts so verifiers can recover the signed prefix.
func unmarshalAnnounce(data []byte) (*Announce, int, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, 0, err
	}
	if t != TypeAnnounce {
		return nil, 0, fmt.Errorf("%w: expected announce, got %s", ErrBadPacket, t)
	}
	if ch != 0 {
		return nil, 0, fmt.Errorf("%w: announce on channel %d", ErrBadPacket, ch)
	}
	body := data[headerLen:]
	if len(body) < 9 {
		return nil, 0, ErrShort
	}
	a := &Announce{Seq: binary.BigEndian.Uint64(body[0:8])}
	count := int(body[8])
	body = body[9:]
	for i := 0; i < count; i++ {
		var ci ChannelInfo
		if len(body) < 4 {
			return nil, 0, ErrShort
		}
		ci.ID = binary.BigEndian.Uint32(body[0:4])
		body = body[4:]
		if ci.Name, body, err = readString(body); err != nil {
			return nil, 0, err
		}
		if ci.Group, body, err = readString(body); err != nil {
			return nil, 0, err
		}
		if ci.Codec, body, err = readString(body); err != nil {
			return nil, 0, err
		}
		if ci.Params, body, err = readParams(body); err != nil {
			return nil, 0, err
		}
		a.Channels = append(a.Channels, ci)
	}
	if len(body) < 1 {
		return nil, 0, ErrShort
	}
	rcount := int(body[0])
	body = body[1:]
	for i := 0; i < rcount; i++ {
		var ri RelayInfo
		if ri.Addr, body, err = readString(body); err != nil {
			return nil, 0, err
		}
		if ri.Group, body, err = readString(body); err != nil {
			return nil, 0, err
		}
		if len(body) < 5 {
			return nil, 0, ErrShort
		}
		ri.Channel = binary.BigEndian.Uint32(body[0:4])
		flags := body[4]
		body = body[5:]
		if flags&^byte(1) != 0 {
			return nil, 0, fmt.Errorf("%w: unknown relay record flags %#x", ErrBadPacket, flags)
		}
		if flags&1 != 0 {
			if len(body) < 6 {
				return nil, 0, ErrShort
			}
			ri.HasLoad = true
			ri.Subs = binary.BigEndian.Uint32(body[0:4])
			ri.Pressure = body[4]
			ri.Hops = body[5]
			body = body[6:]
		}
		a.Relays = append(a.Relays, ri)
	}
	sigStart := len(data) - len(body)
	if len(body) < announceSigLen {
		return nil, 0, ErrShort
	}
	a.SigScheme = AuthScheme(body[0])
	a.SigGen = binary.BigEndian.Uint32(body[1:5])
	slen := int(binary.BigEndian.Uint16(body[5:7]))
	body = body[announceSigLen:]
	if err := checkAnnounceSig(a.SigScheme, a.SigGen, slen); err != nil {
		return nil, 0, err
	}
	if len(body) != slen {
		return nil, 0, fmt.Errorf("%w: signature length %d != declared %d", ErrBadPacket, len(body), slen)
	}
	a.Sig = append([]byte(nil), body...) // nil when unsigned
	return a, sigStart, nil
}

// SubStatus is the relay's verdict on a subscription request.
type SubStatus uint8

// Subscription outcomes.
const (
	SubOK        SubStatus = 0 // lease granted or refreshed
	SubNoChannel SubStatus = 1 // relay does not carry the channel
	SubTableFull SubStatus = 2 // subscriber table at capacity
	SubLoop      SubStatus = 3 // path would revisit this relay or exceed the hop limit
	// SubRedirect is load shedding: no lease was granted, but the
	// SubAck's Redirect field names a sibling relay carrying the same
	// stream — retry there. It is the TURN ALTERNATE-SERVER move applied
	// to §4.3 relay trees.
	SubRedirect SubStatus = 4
)

// String implements fmt.Stringer.
func (s SubStatus) String() string {
	switch s {
	case SubOK:
		return "ok"
	case SubNoChannel:
		return "no-channel"
	case SubTableFull:
		return "table-full"
	case SubLoop:
		return "loop"
	case SubRedirect:
		return "redirect"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Subscribe asks a relay for a unicast copy of a channel's stream. A
// subscriber refreshes its lease by re-sending before expiry; LeaseMs
// zero cancels the subscription. The subscriber's unicast address is the
// datagram's source address — nothing on the wire names it, exactly like
// a TURN allocation refresh.
//
// Hops and PathID exist for relay chaining: a relay subscribing to
// another relay reports how many relay hops are already behind it and
// the path identity of the deepest one, so a relay can refuse a
// subscription whose path would revisit it (SubLoop). A plain speaker
// sends zero for both.
//
// Profile is the requested delivery profile (codec.Profile wire
// values): the quality-ladder rung the subscriber wants the relay to
// serve it at; zero requests source passthrough. The relay answers
// with the profile it actually granted (SubAck.Profile) and may serve
// a lower rung under pressure.
//
// ShiftMs is the requested time shift: "start my stream from this many
// milliseconds ago", served from the relay's DVR generation ring; zero
// means live. The relay clamps the request to what its ring still
// holds and answers with the shift actually granted (SubAck.ShiftMs).
type Subscribe struct {
	Channel uint32 // channel identifier
	Seq     uint32 // request sequence, echoed in the SubAck
	LeaseMs uint32 // requested lease in milliseconds; 0 unsubscribes
	Hops    uint8  // relay hops already on the path (speakers: 0)
	PathID  uint64 // path origin identity (speakers: 0)
	Profile uint8  // requested delivery profile (0 = source passthrough)
	ShiftMs uint32 // requested time shift in milliseconds (0 = live)
}

// SubAck is the relay's reply to a Subscribe.
type SubAck struct {
	Channel uint32    // channel identifier (echo)
	Seq     uint32    // request sequence (echo)
	LeaseMs uint32    // granted lease in milliseconds; 0 on refusal/cancel
	Status  SubStatus // verdict
	// Profile is the delivery profile currently being served (codec
	// profile wire values; 0 = source passthrough). On a refresh it
	// reports the relay's live choice, which the quality ladder may
	// have stepped below the requested rung.
	Profile uint8
	// Redirect is the sibling relay's unicast address; present exactly
	// when Status is SubRedirect (the marshaller refuses any other
	// combination, and the parser rejects a redirect with no address —
	// "go elsewhere" must always say where).
	Redirect string
	// ShiftMs is the time shift actually granted, clamped to the DVR
	// ring's reach; 0 = live. A redirect grants nothing, so it never
	// carries a shift.
	ShiftMs uint32
}

// Marshal encodes the subscribe packet: always the SubscribeBodyLen
// body, every field at a fixed offset.
func (s *Subscribe) Marshal() ([]byte, error) {
	buf := make([]byte, headerLen+SubscribeBodyLen)
	putHeader(buf, TypeSubscribe, s.Channel)
	body := buf[headerLen:]
	binary.BigEndian.PutUint32(body[0:4], s.Seq)
	binary.BigEndian.PutUint32(body[4:8], s.LeaseMs)
	body[8] = s.Hops
	binary.BigEndian.PutUint64(body[9:17], s.PathID)
	body[17] = s.Profile
	binary.BigEndian.PutUint32(body[18:22], s.ShiftMs)
	return buf, nil
}

// UnmarshalSubscribe parses a subscribe packet. The body is exactly
// SubscribeBodyLen bytes; any other length is malformed.
func UnmarshalSubscribe(data []byte) (*Subscribe, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypeSubscribe {
		return nil, fmt.Errorf("%w: expected subscribe, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < SubscribeBodyLen {
		return nil, ErrShort
	}
	if len(body) != SubscribeBodyLen {
		return nil, fmt.Errorf("%w: subscribe body of %d bytes", ErrBadPacket, len(body))
	}
	return &Subscribe{
		Channel: ch,
		Seq:     binary.BigEndian.Uint32(body[0:4]),
		LeaseMs: binary.BigEndian.Uint32(body[4:8]),
		Hops:    body[8],
		PathID:  binary.BigEndian.Uint64(body[9:17]),
		Profile: body[17],
		ShiftMs: binary.BigEndian.Uint32(body[18:22]),
	}, nil
}

// Marshal encodes the suback packet: the fixed SubAckBodyLen body, and
// after it the sibling address exactly when the status is SubRedirect.
// A redirect grants nothing, so combining it with a shift is a
// marshalling error.
func (s *SubAck) Marshal() ([]byte, error) {
	if (s.Status == SubRedirect) != (s.Redirect != "") {
		return nil, fmt.Errorf("%w: status %s with redirect %q", ErrBadPacket, s.Status, s.Redirect)
	}
	if s.Status == SubRedirect && s.ShiftMs != 0 {
		return nil, fmt.Errorf("%w: redirect with shift grant", ErrBadPacket)
	}
	buf := make([]byte, headerLen+SubAckBodyLen, headerLen+SubAckBodyLen+1+len(s.Redirect))
	putHeader(buf, TypeSubAck, s.Channel)
	body := buf[headerLen:]
	binary.BigEndian.PutUint32(body[0:4], s.Seq)
	binary.BigEndian.PutUint32(body[4:8], s.LeaseMs)
	body[8] = byte(s.Status)
	body[9] = s.Profile
	binary.BigEndian.PutUint32(body[10:14], s.ShiftMs)
	if s.Status == SubRedirect {
		return appendString(buf, s.Redirect)
	}
	return buf, nil
}

// UnmarshalSubAck parses a suback packet.
func UnmarshalSubAck(data []byte) (*SubAck, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypeSubAck {
		return nil, fmt.Errorf("%w: expected suback, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < SubAckBodyLen {
		return nil, ErrShort
	}
	a := &SubAck{
		Channel: ch,
		Seq:     binary.BigEndian.Uint32(body[0:4]),
		LeaseMs: binary.BigEndian.Uint32(body[4:8]),
		Status:  SubStatus(body[8]),
		Profile: body[9],
		ShiftMs: binary.BigEndian.Uint32(body[10:14]),
	}
	body = body[SubAckBodyLen:]
	if a.Status == SubRedirect {
		if a.ShiftMs != 0 {
			return nil, fmt.Errorf("%w: redirect with shift grant", ErrBadPacket)
		}
		if a.Redirect, body, err = readString(body); err != nil {
			return nil, err
		}
		if a.Redirect == "" {
			return nil, fmt.Errorf("%w: redirect with empty address", ErrBadPacket)
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(body))
	}
	return a, nil
}

// Pause freezes or resumes a subscriber's delivery on a DVR-enabled
// relay. It rides the same return path as Subscribe — the subscriber
// is the datagram's source address, and on an authenticated relay the
// packet must arrive wrapped in the same §5.1 trailer. While paused
// the relay stops delivering but its generation ring keeps recording;
// Resume replays the gap through the catch-up path at faster than
// realtime until the cursor converges on live. A relay without a ring
// for the channel ignores the request — pause without history would
// silently eat audio.
type Pause struct {
	Channel uint32 // channel identifier; must name the leased channel (0 = wildcard)
	// Seq must strictly increase across the pauses one subscriber
	// sends: the relay rejects a seq at or below the last one it
	// consumed, so a captured-and-replayed pause (which verifies — it
	// was once genuine) cannot re-park the subscriber later. Pause is
	// not acked; the seq doubles as the tracing handle.
	Seq    uint32
	Paused bool // true freezes the cursor, false resumes it
}

// Pause state codes (the body's state byte).
const (
	PauseStateResume = 0
	PauseStatePause  = 1
)

// Marshal encodes the pause packet: a 5-byte body of seq plus one
// state byte.
func (p *Pause) Marshal() ([]byte, error) {
	buf := make([]byte, headerLen+5)
	putHeader(buf, TypePause, p.Channel)
	binary.BigEndian.PutUint32(buf[headerLen:headerLen+4], p.Seq)
	if p.Paused {
		buf[headerLen+4] = PauseStatePause
	}
	return buf, nil
}

// UnmarshalPause parses a pause packet. The state byte must be one of
// the defined codes; anything else is malformed, leaving room for
// future cursor verbs without silently misreading them.
func UnmarshalPause(data []byte) (*Pause, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypePause {
		return nil, fmt.Errorf("%w: expected pause, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < 5 {
		return nil, ErrShort
	}
	if len(body) != 5 {
		return nil, fmt.Errorf("%w: pause body of %d bytes", ErrBadPacket, len(body))
	}
	p := &Pause{
		Channel: ch,
		Seq:     binary.BigEndian.Uint32(body[0:4]),
	}
	switch body[4] {
	case PauseStateResume:
	case PauseStatePause:
		p.Paused = true
	default:
		return nil, fmt.Errorf("%w: unknown pause state %d", ErrBadPacket, body[4])
	}
	return p, nil
}
