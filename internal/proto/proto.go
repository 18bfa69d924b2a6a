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
	// Version is the protocol version this package speaks.
	Version = 1
	// headerLen is the fixed common header: magic(2) version(1) type(1)
	// channel(4).
	headerLen = 8
	// maxString bounds every length-prefixed string on the wire.
	maxString = 255
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
// sibling. Records from pre-load announcers parse with HasLoad false.
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
// A record without a load vector scores behind every record with one —
// in a mixed deployment an announcer that reports its load is always
// preferred over one that cannot.
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

	// Signature section (absent on legacy announcers): a forged catalog
	// record is the one remaining way to steer subscribers to a rogue
	// relay, so a catalog may sign each announce with a few-time key.
	// The signature covers every byte that precedes the section plus
	// SigGen, the key generation it was made under (announces outlive
	// any single few-time key, so signers rotate generations and
	// verifiers derive or look up the matching public key). An unsigned
	// announce still parses — whether it is *accepted* is the
	// receiver's policy, not the grammar's.
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

// Marshal encodes the announce packet. A catalog with no relays omits
// the relay section entirely, staying byte-compatible with pre-relay
// parsers. A signature section, when present, is always last; Marshal
// emits one when Sig is nonempty (signers usually marshal unsigned and
// append via AppendAnnounceSig, since the signature covers the
// marshaled prefix).
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
	if len(a.Relays) > 0 {
		buf = append(buf, byte(len(a.Relays)))
		for _, ri := range a.Relays {
			if buf, err = appendString(buf, ri.Addr); err != nil {
				return nil, err
			}
			if buf, err = appendString(buf, ri.Group); err != nil {
				return nil, err
			}
			var chb [4]byte
			binary.BigEndian.PutUint32(chb[:], ri.Channel)
			buf = append(buf, chb[:]...)
		}
		hasLoad := false
		for _, ri := range a.Relays {
			if ri.HasLoad {
				hasLoad = true
				break
			}
		}
		if hasLoad {
			// Load section: a count byte (must match the relay count)
			// then one flags byte per record, followed by the 6-byte
			// load vector when flags bit 0 is set. Per-record flags let
			// a catalog mix live records (which stamp load) with static
			// ones (which cannot).
			buf = append(buf, byte(len(a.Relays)))
			for _, ri := range a.Relays {
				if !ri.HasLoad {
					buf = append(buf, 0)
					continue
				}
				var lb [7]byte
				lb[0] = 1
				binary.BigEndian.PutUint32(lb[1:5], ri.Subs)
				lb[5] = ri.Pressure
				lb[6] = ri.Hops
				buf = append(buf, lb[:]...)
			}
		}
	}
	if len(a.Sig) == 0 {
		// Unsigned: omit the section entirely, staying byte-compatible
		// with pre-signature parsers.
		return buf, nil
	}
	if a.SigScheme == AuthNone {
		return nil, fmt.Errorf("%w: signature without a scheme", ErrBadPacket)
	}
	return AppendAnnounceSig(buf, a.SigScheme, a.SigGen, a.Sig)
}

// AppendAnnounceSig appends the signature section to an announce
// marshaled without one. The section is always last and opens with a
// zero marker byte — a value no relay-count or load-count byte the
// parser could confuse it with ever takes (both sections are omitted
// entirely when empty) — so signed and unsigned announces coexist at
// every section combination:
//
//	0x00 marker || u8 scheme || u32 gen || u16 siglen || sig
//
// The signature must cover pkt plus gen; AppendAnnounceSig only frames
// it.
func AppendAnnounceSig(pkt []byte, scheme AuthScheme, gen uint32, sig []byte) ([]byte, error) {
	if scheme == AuthNone {
		return nil, fmt.Errorf("%w: signature without a scheme", ErrBadPacket)
	}
	if len(sig) == 0 || len(sig) > 65535 {
		return nil, fmt.Errorf("%w: signature of %d bytes", ErrBadPacket, len(sig))
	}
	out := make([]byte, 0, len(pkt)+8+len(sig))
	out = append(out, pkt...)
	var fixed [8]byte
	fixed[0] = 0 // section marker
	fixed[1] = byte(scheme)
	binary.BigEndian.PutUint32(fixed[2:6], gen)
	binary.BigEndian.PutUint16(fixed[6:8], uint16(len(sig)))
	out = append(out, fixed[:]...)
	return append(out, sig...), nil
}

// UnmarshalAnnounce parses an announce packet.
func UnmarshalAnnounce(data []byte) (*Announce, error) {
	a, _, err := unmarshalAnnounce(data)
	return a, err
}

// SplitAnnounceSig splits a marshaled announce into the prefix its
// signature covers and the signature fields. For a legacy unsigned
// announce signed is false and prefix is the whole packet. The packet
// is fully parsed, so a malformed announce errors here exactly as it
// would in UnmarshalAnnounce.
func SplitAnnounceSig(data []byte) (prefix []byte, scheme AuthScheme, gen uint32, sig []byte, signed bool, err error) {
	a, sigStart, err := unmarshalAnnounce(data)
	if err != nil {
		return nil, AuthNone, 0, nil, false, err
	}
	if a.SigScheme == AuthNone {
		return data, AuthNone, 0, nil, false, nil
	}
	return data[:sigStart], a.SigScheme, a.SigGen, a.Sig, true, nil
}

// unmarshalAnnounce parses an announce and reports where its signature
// section starts (len(data) when unsigned) so verifiers can recover the
// signed prefix. Each optional section is recognized by its first byte:
// the relay and load sections open with a nonzero count (both are
// omitted entirely when empty), the signature section with a zero
// marker.
func unmarshalAnnounce(data []byte) (*Announce, int, error) {
	t, _, err := PeekType(data)
	if err != nil {
		return nil, 0, err
	}
	if t != TypeAnnounce {
		return nil, 0, fmt.Errorf("%w: expected announce, got %s", ErrBadPacket, t)
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
	if len(body) > 0 && body[0] != 0 {
		// Relay section (absent in pre-relay announces).
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
			if len(body) < 4 {
				return nil, 0, ErrShort
			}
			ri.Channel = binary.BigEndian.Uint32(body[0:4])
			body = body[4:]
			a.Relays = append(a.Relays, ri)
		}
		if len(body) > 0 && body[0] != 0 {
			// Load section (absent in pre-load announces).
			if int(body[0]) != rcount {
				return nil, 0, fmt.Errorf("%w: load section counts %d relays, record section %d",
					ErrBadPacket, body[0], rcount)
			}
			body = body[1:]
			for i := 0; i < rcount; i++ {
				if len(body) < 1 {
					return nil, 0, ErrShort
				}
				flags := body[0]
				body = body[1:]
				if flags&^byte(1) != 0 {
					return nil, 0, fmt.Errorf("%w: unknown load flags %#x", ErrBadPacket, flags)
				}
				if flags&1 == 0 {
					continue
				}
				if len(body) < 6 {
					return nil, 0, ErrShort
				}
				ri := &a.Relays[i]
				ri.HasLoad = true
				ri.Subs = binary.BigEndian.Uint32(body[0:4])
				ri.Pressure = body[4]
				ri.Hops = body[5]
				body = body[6:]
			}
		}
	}
	sigStart := len(data) - len(body)
	if len(body) > 0 {
		// Signature section (absent in pre-signature announces): the
		// zero marker byte, then scheme, generation, and the signature.
		if len(body) < 8 {
			return nil, 0, ErrShort
		}
		a.SigScheme = AuthScheme(body[1])
		if a.SigScheme == AuthNone {
			return nil, 0, fmt.Errorf("%w: signature without a scheme", ErrBadPacket)
		}
		a.SigGen = binary.BigEndian.Uint32(body[2:6])
		slen := int(binary.BigEndian.Uint16(body[6:8]))
		body = body[8:]
		if slen == 0 {
			return nil, 0, fmt.Errorf("%w: empty signature", ErrBadPacket)
		}
		if len(body) < slen {
			return nil, 0, ErrShort
		}
		a.Sig = append([]byte(nil), body[:slen]...)
		body = body[slen:]
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(body))
	}
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
// serve it at. Zero — also what every legacy body reads as — requests
// source passthrough. The relay answers with the profile it actually
// granted (SubAck.Profile) and may serve a lower rung under pressure.
//
// ShiftMs is the requested time shift: "start my stream from this many
// milliseconds ago", served from the relay's DVR generation ring. Zero
// — the only value a legacy body can read as — means live. The relay
// clamps the request to what its ring still holds and answers with the
// shift actually granted (SubAck.ShiftMs).
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
	// ring's reach; 0 = live. It is emitted only when nonzero — a
	// trailing section a legacy parser would reject — which is safe
	// because only a subscriber that requested a shift (proving it
	// speaks the extension) can be granted one. A redirect grants
	// nothing, so it never carries a shift.
	ShiftMs uint32
}

// Marshal encodes the subscribe packet. Every optional section is
// omitted when it is all-zero, so each subscriber emits the shortest
// body an older parser still accepts: a plain speaker requesting
// source quality emits the legacy 8-byte body, a speaker requesting a
// profile appends one byte (9), a chained relay emits the 17-byte
// pathed body, and a pathed request with a profile appends the byte
// to that (18). A time-shift request appends 4 more bytes after the
// profile byte — which it forces present, even at Source, so the
// shift's offset is unambiguous — giving bodies of 13 (shift, no
// path) or 22 (path + shift).
func (s *Subscribe) Marshal() ([]byte, error) {
	n := 17
	if s.Hops == 0 && s.PathID == 0 {
		n = 8
	}
	if s.Profile != 0 || s.ShiftMs != 0 {
		n++
	}
	if s.ShiftMs != 0 {
		n += 4
	}
	buf := make([]byte, headerLen+n)
	putHeader(buf, TypeSubscribe, s.Channel)
	binary.BigEndian.PutUint32(buf[headerLen:headerLen+4], s.Seq)
	binary.BigEndian.PutUint32(buf[headerLen+4:headerLen+8], s.LeaseMs)
	p := headerLen + 8
	if s.Hops != 0 || s.PathID != 0 {
		buf[p] = s.Hops
		binary.BigEndian.PutUint64(buf[p+1:p+9], s.PathID)
		p += 9
	}
	if s.Profile != 0 || s.ShiftMs != 0 {
		buf[p] = s.Profile
		p++
	}
	if s.ShiftMs != 0 {
		binary.BigEndian.PutUint32(buf[p:p+4], s.ShiftMs)
	}
	return buf, nil
}

// UnmarshalSubscribe parses a subscribe packet. Six body lengths are
// accepted: 8 (legacy, no path or profile), 9 (profile only), 17
// (path only), 18 (path + profile), 13 (profile + shift), and 22
// (path + profile + shift). Absent fields read as zero — exactly what
// a sender predating them would mean.
func UnmarshalSubscribe(data []byte) (*Subscribe, error) {
	t, ch, err := PeekType(data)
	if err != nil {
		return nil, err
	}
	if t != TypeSubscribe {
		return nil, fmt.Errorf("%w: expected subscribe, got %s", ErrBadPacket, t)
	}
	body := data[headerLen:]
	if len(body) < 8 {
		return nil, ErrShort
	}
	switch len(body) {
	case 8, 9, 13, 17, 18, 22:
	default:
		return nil, fmt.Errorf("%w: subscribe body of %d bytes", ErrBadPacket, len(body))
	}
	s := &Subscribe{
		Channel: ch,
		Seq:     binary.BigEndian.Uint32(body[0:4]),
		LeaseMs: binary.BigEndian.Uint32(body[4:8]),
	}
	if len(body) >= 17 {
		s.Hops = body[8]
		s.PathID = binary.BigEndian.Uint64(body[9:17])
	}
	switch len(body) {
	case 9, 18:
		s.Profile = body[len(body)-1]
	case 13, 22:
		s.Profile = body[len(body)-5]
		s.ShiftMs = binary.BigEndian.Uint32(body[len(body)-4:])
	}
	return s, nil
}

// Marshal encodes the suback packet. A SubRedirect carries the sibling
// address after the fixed body; every other status keeps the exact
// 10-byte body — unless a time shift was granted, in which case 4
// bytes of ShiftMs follow. Only a subscriber that requested a shift
// can be granted one, so the trailing section is never sent to a
// legacy parser that would reject it. A redirect grants nothing, so
// combining it with a shift is a marshalling error.
func (s *SubAck) Marshal() ([]byte, error) {
	if (s.Status == SubRedirect) != (s.Redirect != "") {
		return nil, fmt.Errorf("%w: status %s with redirect %q", ErrBadPacket, s.Status, s.Redirect)
	}
	if s.Status == SubRedirect && s.ShiftMs != 0 {
		return nil, fmt.Errorf("%w: redirect with shift grant", ErrBadPacket)
	}
	buf := make([]byte, headerLen+10, headerLen+10+1+len(s.Redirect))
	putHeader(buf, TypeSubAck, s.Channel)
	binary.BigEndian.PutUint32(buf[headerLen:headerLen+4], s.Seq)
	binary.BigEndian.PutUint32(buf[headerLen+4:headerLen+8], s.LeaseMs)
	buf[headerLen+8] = byte(s.Status)
	// Byte 9 was reserved-zero before delivery profiles; a pre-profile
	// parser reads a profile grant as that reserved byte and ignores it.
	buf[headerLen+9] = s.Profile
	if s.Status == SubRedirect {
		return appendString(buf, s.Redirect)
	}
	if s.ShiftMs != 0 {
		var sb [4]byte
		binary.BigEndian.PutUint32(sb[:], s.ShiftMs)
		buf = append(buf, sb[:]...)
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
	if len(body) < 10 {
		return nil, ErrShort
	}
	a := &SubAck{
		Channel: ch,
		Seq:     binary.BigEndian.Uint32(body[0:4]),
		LeaseMs: binary.BigEndian.Uint32(body[4:8]),
		Status:  SubStatus(body[8]),
		Profile: body[9],
	}
	body = body[10:]
	if a.Status == SubRedirect {
		if a.Redirect, body, err = readString(body); err != nil {
			return nil, err
		}
		if a.Redirect == "" {
			return nil, fmt.Errorf("%w: redirect with empty address", ErrBadPacket)
		}
	} else if len(body) == 4 {
		a.ShiftMs = binary.BigEndian.Uint32(body[0:4])
		body = body[4:]
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
