package security

import (
	"encoding/binary"
	"fmt"

	"repro/internal/proto"
)

// Authenticator signs outgoing packets and verifies incoming ones: the
// stream schemes, and the client side of the control plane (a
// subscriber signing its requests and verifying the relay's replies).
// The relay side is RelayAuthenticator.
type Authenticator interface {
	// Scheme identifies the wire scheme byte.
	Scheme() proto.AuthScheme
	// Sign wraps pkt with an authentication trailer.
	Sign(pkt []byte) []byte
	// Verify unwraps a packet produced by Sign, returning the inner
	// packet and whether authentication succeeded.
	Verify(pkt []byte) ([]byte, bool)
}

// RelayAuthenticator is the relay side of the control plane: the one
// interface a relay verifies requests and signs replies through,
// whatever the scheme. It is batch-shaped (a relay admits a gather pass
// at a time; a batch of one is the single case) and source-aware
// (srcs[i] is the UDP source pkts[i] arrived from). Batching changes
// cost — the shared-key scheme keys one hash for the whole pass —
// never a verdict.
//
// A scheme either binds identities (the per-subscriber scheme,
// proto.AuthIdentity: every request names who signed it and carries a
// monotonic sequence, the tag binds the UDP source, and replies are
// signed per recipient) or it does not (the shared key, proto.AuthHMAC:
// one identity, 0, and no sequence). BindsIdentity says which, so the
// relay asks the scheme rather than its type.
type RelayAuthenticator interface {
	// Scheme identifies the wire scheme byte.
	Scheme() proto.AuthScheme
	// BindsIdentity reports whether verified requests carry an identity
	// and a sequence the relay must hold a lease's later requests to.
	// When false, ids and seqs from VerifySessionBatch are all zero.
	BindsIdentity() bool
	// VerifySessionBatch verifies every request: inners[i] is pkts[i]
	// unwrapped when oks[i], nil otherwise; ids[i] and seqs[i] are who
	// signed it and with what sequence. All four results have len(pkts).
	VerifySessionBatch(pkts [][]byte, srcs []string) (inners [][]byte, ids []uint32, seqs []uint64, oks []bool)
	// SignForBatch wraps each reply for its recipient identity. A scheme
	// that binds none ignores ids (nil is allowed).
	SignForBatch(ids []uint32, pkts [][]byte) [][]byte
}

// wrap appends trailer, its length, and the scheme byte.
func wrap(scheme proto.AuthScheme, inner, trailer []byte) []byte {
	out := make([]byte, 0, len(inner)+len(trailer)+3)
	out = append(out, inner...)
	out = append(out, trailer...)
	var ln [2]byte
	binary.BigEndian.PutUint16(ln[:], uint16(len(trailer)))
	out = append(out, ln[:]...)
	return append(out, byte(scheme))
}

// unwrap splits a wrapped packet into inner packet and trailer,
// validating the scheme byte.
func unwrap(scheme proto.AuthScheme, pkt []byte) (inner, trailer []byte, ok bool) {
	if len(pkt) < 3 {
		return nil, nil, false
	}
	if proto.AuthScheme(pkt[len(pkt)-1]) != scheme {
		return nil, nil, false
	}
	tlen := int(binary.BigEndian.Uint16(pkt[len(pkt)-3 : len(pkt)-1]))
	if len(pkt) < 3+tlen {
		return nil, nil, false
	}
	cut := len(pkt) - 3 - tlen
	return pkt[:cut], pkt[cut : cut+tlen], true
}

// PeekScheme reports which scheme wrapped the packet.
func PeekScheme(pkt []byte) (proto.AuthScheme, error) {
	if len(pkt) < 3 {
		return proto.AuthNone, fmt.Errorf("security: packet too short")
	}
	return proto.AuthScheme(pkt[len(pkt)-1]), nil
}
