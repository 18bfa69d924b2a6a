package security

import (
	"crypto/hmac"
	"crypto/sha256"

	"repro/internal/proto"
)

// hmacTagLen is the truncated tag size; 16 bytes keeps per-packet
// overhead small at a comfortable security margin for stream integrity.
const hmacTagLen = 16

// HMACAuth authenticates packets with a shared group secret. It is the
// cheapest scheme and the interim measure the paper suggests alongside
// VLAN isolation: integrity against off-path injection, but any holder
// of the group key can forge.
type HMACAuth struct {
	key []byte
}

// NewHMAC returns an authenticator for the shared key.
func NewHMAC(key []byte) *HMACAuth {
	return &HMACAuth{key: append([]byte(nil), key...)}
}

// Scheme implements Authenticator.
func (a *HMACAuth) Scheme() proto.AuthScheme { return proto.AuthHMAC }

func (a *HMACAuth) tag(data []byte) []byte {
	m := hmac.New(sha256.New, a.key)
	m.Write(data)
	return m.Sum(nil)[:hmacTagLen]
}

// Sign implements Authenticator.
func (a *HMACAuth) Sign(pkt []byte) []byte {
	return wrap(proto.AuthHMAC, pkt, a.tag(pkt))
}

// Verify implements Authenticator.
func (a *HMACAuth) Verify(pkt []byte) ([]byte, bool) {
	inner, trailer, ok := unwrap(proto.AuthHMAC, pkt)
	if !ok || len(trailer) != hmacTagLen {
		return nil, false
	}
	if !hmac.Equal(trailer, a.tag(inner)) {
		return nil, false
	}
	return inner, true
}

// BindsIdentity implements RelayAuthenticator: the shared key proves
// "a key holder", never which one.
func (a *HMACAuth) BindsIdentity() bool { return false }

// VerifySessionBatch implements RelayAuthenticator: one keyed hash,
// Reset between packets, instead of a fresh HMAC construction (two hash
// states plus the key schedule) per packet. After the first Sum the
// hmac package caches the padded-key states, so every subsequent
// packet costs only the data hashing itself. The shared-key tag binds
// neither the source address nor an identity, so srcs is ignored and
// ids and seqs stay zero.
func (a *HMACAuth) VerifySessionBatch(pkts [][]byte, _ []string) (inners [][]byte, ids []uint32, seqs []uint64, oks []bool) {
	inners = make([][]byte, len(pkts))
	ids = make([]uint32, len(pkts))
	seqs = make([]uint64, len(pkts))
	oks = make([]bool, len(pkts))
	m := hmac.New(sha256.New, a.key)
	var sum [sha256.Size]byte
	for i, pkt := range pkts {
		inner, trailer, ok := unwrap(proto.AuthHMAC, pkt)
		if !ok || len(trailer) != hmacTagLen {
			continue
		}
		m.Reset()
		m.Write(inner)
		if hmac.Equal(trailer, m.Sum(sum[:0])[:hmacTagLen]) {
			inners[i], oks[i] = inner, true
		}
	}
	return inners, ids, seqs, oks
}

// SignForBatch implements RelayAuthenticator, amortized like
// VerifySessionBatch; every recipient shares the key, so ids is
// ignored.
func (a *HMACAuth) SignForBatch(_ []uint32, pkts [][]byte) [][]byte {
	out := make([][]byte, len(pkts))
	m := hmac.New(sha256.New, a.key)
	var sum [sha256.Size]byte
	for i, pkt := range pkts {
		m.Reset()
		m.Write(pkt)
		out[i] = wrap(proto.AuthHMAC, pkt, m.Sum(sum[:0])[:hmacTagLen])
	}
	return out
}
