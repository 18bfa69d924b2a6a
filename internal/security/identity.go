package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/proto"
)

// Per-subscriber identity authentication (proto.AuthIdentity).
//
// The shared-key HMAC scheme proves a control packet was built by *a*
// key holder — so any subscriber can forge any other's cancel or
// pause, and a captured signed Subscribe replays from a spoofed source
// until the key rotates. This scheme closes both holes with TURN-style
// per-allocation credentials: every subscriber signs with its own
// credential, derived from one chain master key by subscriber ID, and
// the trailer carries who signed and a monotonic sequence:
//
//	u32 identity || u64 seq || 16-byte tag
//
// Request tags additionally bind the datagram's UDP source address —
// the address the relay will create forwarding state for — so the
// exact captured bytes verify only from the address they were sent
// from. The relay pairs the trailer's sequence with a per-identity
// last-seq window in the subscriber session, which kills same-source
// replays too. Reply (ack) tags use a distinct direction label, so a
// captured ack can never pass as a request.
const identTrailerLen = 4 + 8 + hmacTagLen

// Derivation and direction labels. Distinct labels keep the three
// HMAC uses (credential derivation, request tags, ack tags) in
// separate domains.
const (
	identCredLabel = "es-ident-cred:"
	identReqLabel  = "es-ident-req:"
	identAckLabel  = "es-ident-ack:"
)

// identCredCacheCap bounds the derived-credential cache: verification
// derives the credential for whatever identity a packet claims, and an
// attacker cycling random identities must cost CPU, not memory.
const identCredCacheCap = 4096

// Keyring holds the chain master key and derives each identity's
// credential from it. The relay side of a chain holds the ring (it
// must verify every identity); a subscriber is provisioned with only
// its own credential and can sign for itself and nobody else.
type Keyring struct {
	master []byte

	mu    sync.Mutex
	creds map[uint32][]byte
}

// NewKeyring builds a keyring over the chain master key.
func NewKeyring(master []byte) *Keyring {
	return &Keyring{
		master: append([]byte(nil), master...),
		creds:  make(map[uint32][]byte),
	}
}

// Credential returns identity id's signing credential:
// HMAC(master, "es-ident-cred:" || u32 id). Write it (hex-encoded) to
// a subscriber's key file to provision that subscriber.
func (k *Keyring) Credential(id uint32) []byte {
	k.mu.Lock()
	if c, ok := k.creds[id]; ok {
		k.mu.Unlock()
		return c
	}
	k.mu.Unlock()
	m := hmac.New(sha256.New, k.master)
	m.Write([]byte(identCredLabel))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], id)
	m.Write(b[:])
	c := m.Sum(nil)
	k.mu.Lock()
	if len(k.creds) < identCredCacheCap {
		k.creds[id] = c
	}
	k.mu.Unlock()
	return c
}

// Signer returns a client-side authenticator that signs as identity id
// from the given UDP source address. Chained relays use this for their
// upstream lease: one master key per chain, each hop signing with its
// own derived credential.
func (k *Keyring) Signer(id uint32, source string) *IdentityAuth {
	return NewIdentitySigner(k.Credential(id), id, source)
}

// SignerAt is Signer with an explicit starting sequence; see
// NewIdentitySignerAt.
func (k *Keyring) SignerAt(id uint32, source string, seqBase uint64) *IdentityAuth {
	return NewIdentitySignerAt(k.Credential(id), id, source, seqBase)
}

// Relay returns the relay-side authenticator: it verifies requests
// from any identity on the ring and signs replies per recipient.
func (k *Keyring) Relay() *KeyringAuth {
	return &KeyringAuth{ring: k}
}

// identTag computes the 16-byte trailer tag. source is length-prefixed
// so the (source, inner) split is unambiguous; ack-direction tags pass
// an empty source (the subscriber already gates acks on the relay's
// address and its own request-seq window).
func identTag(cred []byte, label, source string, id uint32, seq uint64, inner []byte) []byte {
	m := hmac.New(sha256.New, cred)
	m.Write([]byte(label))
	var hdr [14]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(len(source)))
	m.Write(hdr[0:2])
	m.Write([]byte(source))
	binary.BigEndian.PutUint32(hdr[2:6], id)
	binary.BigEndian.PutUint64(hdr[6:14], seq)
	m.Write(hdr[2:14])
	m.Write(inner)
	return m.Sum(nil)[:hmacTagLen]
}

// IdentityAuth is the subscriber side of the identity scheme: it signs
// requests as one identity from one source address, with a sequence
// that rises on every Sign, and verifies the relay's replies.
type IdentityAuth struct {
	id     uint32
	source string
	cred   []byte

	mu  sync.Mutex
	seq uint64
}

// NewIdentitySigner builds a signer from a provisioned credential.
// source must be the UDP source address the relay will see — the tag
// binds it, so a wildcard bind that rewrites the source on the wire
// will not verify.
func NewIdentitySigner(cred []byte, id uint32, source string) *IdentityAuth {
	return NewIdentitySignerAt(cred, id, source, 0)
}

// NewIdentitySignerAt starts the signer's sequence at seqBase. The
// relay's replay window requires the sequence to rise across a
// subscriber's whole session, so a restarting client that would
// otherwise reset to zero should seed with something monotonic (the
// daemons use wall-clock nanoseconds); within one process the default
// zero base is fine.
func NewIdentitySignerAt(cred []byte, id uint32, source string, seqBase uint64) *IdentityAuth {
	return &IdentityAuth{
		id:     id,
		source: source,
		cred:   append([]byte(nil), cred...),
		seq:    seqBase,
	}
}

// Scheme implements Authenticator.
func (a *IdentityAuth) Scheme() proto.AuthScheme { return proto.AuthIdentity }

// Sign implements Authenticator: request direction, next sequence,
// source bound into the tag.
func (a *IdentityAuth) Sign(pkt []byte) []byte {
	a.mu.Lock()
	a.seq++
	seq := a.seq
	a.mu.Unlock()
	trailer := make([]byte, identTrailerLen)
	binary.BigEndian.PutUint32(trailer[0:4], a.id)
	binary.BigEndian.PutUint64(trailer[4:12], seq)
	copy(trailer[12:], identTag(a.cred, identReqLabel, a.source, a.id, seq, pkt))
	return wrap(proto.AuthIdentity, pkt, trailer)
}

// Verify implements Authenticator: ack direction, addressed to this
// identity. Freshness (which request the ack answers, and from whom)
// is the lease layer's existing seq-echo window and source gate.
func (a *IdentityAuth) Verify(pkt []byte) ([]byte, bool) {
	inner, trailer, ok := unwrap(proto.AuthIdentity, pkt)
	if !ok || len(trailer) != identTrailerLen {
		return nil, false
	}
	if binary.BigEndian.Uint32(trailer[0:4]) != a.id {
		return nil, false
	}
	seq := binary.BigEndian.Uint64(trailer[4:12])
	if !hmac.Equal(trailer[12:], identTag(a.cred, identAckLabel, "", a.id, seq, inner)) {
		return nil, false
	}
	return inner, true
}

// KeyringAuth is the relay side of the identity scheme, a
// RelayAuthenticator. It deliberately has no sourceless Verify — a
// request verified without its source address would reopen the
// spoofed-source replay this scheme exists to close — and no Sign: a
// relay's own upstream lease signs as that relay's identity, through
// Keyring.Signer.
type KeyringAuth struct {
	ring *Keyring

	mu  sync.Mutex
	seq uint64
}

// Scheme implements RelayAuthenticator.
func (a *KeyringAuth) Scheme() proto.AuthScheme { return proto.AuthIdentity }

// BindsIdentity implements RelayAuthenticator.
func (a *KeyringAuth) BindsIdentity() bool { return true }

// SignFor wraps one reply, ack direction, signed under the recipient
// identity's credential.
func (a *KeyringAuth) SignFor(id uint32, pkt []byte) []byte {
	a.mu.Lock()
	a.seq++
	seq := a.seq
	a.mu.Unlock()
	cred := a.ring.Credential(id)
	trailer := make([]byte, identTrailerLen)
	binary.BigEndian.PutUint32(trailer[0:4], id)
	binary.BigEndian.PutUint64(trailer[4:12], seq)
	copy(trailer[12:], identTag(cred, identAckLabel, "", id, seq, pkt))
	return wrap(proto.AuthIdentity, pkt, trailer)
}

// SignForBatch implements RelayAuthenticator.
func (a *KeyringAuth) SignForBatch(ids []uint32, pkts [][]byte) [][]byte {
	out := make([][]byte, len(pkts))
	for i, pkt := range pkts {
		out[i] = a.SignFor(ids[i], pkt)
	}
	return out
}

// VerifySession unwraps one request that arrived from src: request
// direction, tag recomputed under the claimed identity's credential with the
// packet's actual UDP source bound in.
func (a *KeyringAuth) VerifySession(pkt []byte, src string) (inner []byte, id uint32, seq uint64, ok bool) {
	inner, trailer, ok := unwrap(proto.AuthIdentity, pkt)
	if !ok || len(trailer) != identTrailerLen {
		return nil, 0, 0, false
	}
	id = binary.BigEndian.Uint32(trailer[0:4])
	seq = binary.BigEndian.Uint64(trailer[4:12])
	cred := a.ring.Credential(id)
	if !hmac.Equal(trailer[12:], identTag(cred, identReqLabel, src, id, seq, inner)) {
		return nil, 0, 0, false
	}
	return inner, id, seq, true
}

// VerifySessionBatch implements RelayAuthenticator over a
// mixed-identity admission batch. Unlike the shared-key batch there is
// no keyed state to amortize — every packet verifies under its own
// credential — but one call still keeps the admission pipeline's shape
// scheme-independent.
func (a *KeyringAuth) VerifySessionBatch(pkts [][]byte, srcs []string) (inners [][]byte, ids []uint32, seqs []uint64, oks []bool) {
	inners = make([][]byte, len(pkts))
	ids = make([]uint32, len(pkts))
	seqs = make([]uint64, len(pkts))
	oks = make([]bool, len(pkts))
	for i, pkt := range pkts {
		inners[i], ids[i], seqs[i], oks[i] = a.VerifySession(pkt, srcs[i])
	}
	return inners, ids, seqs, oks
}
