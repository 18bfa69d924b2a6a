package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/proto"
)

// Catalog announce signing.
//
// proto.Announce steers discovery: a forged catalog record points
// subscribers at a rogue relay, which no control-plane authenticator
// can catch because the victim then leases from the attacker with a
// perfectly genuine handshake. A catalog configured with an
// AnnounceSigner therefore signs every announce, and watchers given an
// AnnounceVerifier reject anything unsigned or forged before a record
// enters their candidate set.
//
// The catalog path is a one-way broadcast, which is exactly what the
// §5.1 few-time HORS signatures fit: verification is k hash
// evaluations (cheap enough to absorb a flood of forgeries), and the
// few-time budget is handled by rotating key *generations* — each
// generation's key pair derives deterministically from the master key,
// signs at most HORSBudget announces, and then retires. The generation
// rides in the signature section, so a verifier holding the master key
// derives the matching public key on demand; a verifier that must not
// hold the master can be provisioned with published public keys
// (AnnouncePublic) instead.

// announceGenLabel separates announce key derivation from every other
// use of the master key.
const announceGenLabel = "es-announce-gen:"

// announcePubCacheCap bounds the derived-public-key cache: an attacker
// stamping random generations on forged announces must cost CPU, not
// memory.
const announcePubCacheCap = 32

// announceKey derives generation gen's few-time signing key.
func announceKey(master []byte, gen uint32) *HORSKey {
	m := hmac.New(sha256.New, master)
	m.Write([]byte(announceGenLabel))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], gen)
	m.Write(b[:])
	return GenerateHORS(m.Sum(nil))
}

// AnnouncePublic returns generation gen's verification key, for
// publishing to verifiers that must not hold the master key.
func AnnouncePublic(master []byte, gen uint32) *HORSPublicKey {
	return announceKey(master, gen).Public()
}

// announceMsg is what the signature actually covers: the generation
// (so a signature cannot be replanted under another generation's key)
// followed by the marshaled announce up to the signature section.
func announceMsg(gen uint32, prefix []byte) []byte {
	msg := make([]byte, 4+len(prefix))
	binary.BigEndian.PutUint32(msg[0:4], gen)
	copy(msg[4:], prefix)
	return msg
}

// AnnounceSigner signs marshaled announces, rotating to a fresh key
// generation whenever the current key's few-time budget is spent.
type AnnounceSigner struct {
	master []byte

	mu  sync.Mutex
	gen uint32
	key *HORSKey
}

// NewAnnounceSigner builds a signer over the master key. Generations
// start at 1: an unsigned announce carries generation 0.
func NewAnnounceSigner(master []byte) *AnnounceSigner {
	return &AnnounceSigner{master: append([]byte(nil), master...)}
}

// Sign replaces the signature section of a marshaled announce — the
// empty one Announce.Marshal emits for an unsigned announce — with one
// made under the current generation's key.
func (s *AnnounceSigner) Sign(pkt []byte) ([]byte, error) {
	prefix, _, _, _, _, err := proto.SplitAnnounceSig(pkt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key == nil || s.key.Exhausted() {
		s.gen++
		s.key = announceKey(s.master, s.gen)
	}
	sig := s.key.sign(announceMsg(s.gen, prefix))
	return proto.AppendAnnounceSig(prefix, proto.AuthHORS, s.gen, sig)
}

// AnnounceSigner returns a catalog signer over the keyring's master
// key — one master key secures a chain's control plane and its catalog
// alike.
func (k *Keyring) AnnounceSigner() *AnnounceSigner { return NewAnnounceSigner(k.master) }

// AnnounceVerifier returns a catalog verifier over the keyring's
// master key.
func (k *Keyring) AnnounceVerifier() *AnnounceVerifier { return NewAnnounceVerifier(k.master) }

// AnnounceVerifier checks announce signatures. It is safe for
// concurrent use.
type AnnounceVerifier struct {
	mu     sync.Mutex
	derive func(gen uint32) *HORSPublicKey // nil: only provisioned pubs
	pubs   map[uint32]*HORSPublicKey
}

// NewAnnounceVerifier builds a verifier that derives each generation's
// public key from the master key on demand.
func NewAnnounceVerifier(master []byte) *AnnounceVerifier {
	m := append([]byte(nil), master...)
	return &AnnounceVerifier{
		derive: func(gen uint32) *HORSPublicKey { return announceKey(m, gen).Public() },
		pubs:   make(map[uint32]*HORSPublicKey),
	}
}

// NewAnnouncePubVerifier builds a verifier from published public keys
// only — for receivers that must not hold the master key. Generations
// outside the provisioned set fail verification.
func NewAnnouncePubVerifier(pubs map[uint32]*HORSPublicKey) *AnnounceVerifier {
	cp := make(map[uint32]*HORSPublicKey, len(pubs))
	for g, p := range pubs {
		cp[g] = p
	}
	return &AnnounceVerifier{pubs: cp}
}

// pub returns generation gen's public key, deriving and caching it
// when the verifier holds the master key.
func (v *AnnounceVerifier) pub(gen uint32) *HORSPublicKey {
	v.mu.Lock()
	p, ok := v.pubs[gen]
	v.mu.Unlock()
	if ok || v.derive == nil {
		return p
	}
	p = v.derive(gen)
	v.mu.Lock()
	if len(v.pubs) >= announcePubCacheCap {
		// Evict the lowest cached generation: signers only move
		// forward, so old generations are the ones done mattering.
		low, first := uint32(0), true
		for g := range v.pubs {
			if first || g < low {
				low, first = g, false
			}
		}
		delete(v.pubs, low)
	}
	v.pubs[gen] = p
	v.mu.Unlock()
	return p
}

// VerifyAnnounce checks a marshaled announce. ok reports a valid
// signature; legacy reports the announce was unsigned (scheme None:
// whether to accept an unsigned announce is the caller's policy — a
// verifying watcher refuses, an unconfigured one has no verifier to
// ask). A malformed packet is neither ok nor legacy.
func (v *AnnounceVerifier) VerifyAnnounce(pkt []byte) (ok, legacy bool) {
	prefix, scheme, gen, sig, signed, err := proto.SplitAnnounceSig(pkt)
	if err != nil {
		return false, false
	}
	if !signed {
		return false, true
	}
	if scheme != proto.AuthHORS {
		return false, false
	}
	pub := v.pub(gen)
	if pub == nil {
		return false, false
	}
	return pub.verify(announceMsg(gen, prefix), sig), false
}
