package security

import (
	"bytes"
	"testing"

	"repro/internal/proto"
)

var testPkt = []byte("ES test packet payload 0123456789")

func TestHMACRoundTrip(t *testing.T) {
	a := NewHMAC([]byte("group secret"))
	wrapped := a.Sign(testPkt)
	inner, ok := a.Verify(wrapped)
	if !ok {
		t.Fatal("verification failed")
	}
	if !bytes.Equal(inner, testPkt) {
		t.Fatal("inner packet mangled")
	}
	if a.Scheme() != proto.AuthHMAC {
		t.Fatal("wrong scheme")
	}
}

func TestHMACRejectsTampering(t *testing.T) {
	a := NewHMAC([]byte("group secret"))
	wrapped := a.Sign(testPkt)
	for i := 0; i < len(wrapped); i++ {
		mut := append([]byte(nil), wrapped...)
		mut[i] ^= 0x01
		if inner, ok := a.Verify(mut); ok && bytes.Equal(inner, testPkt) {
			// Flipping the scheme byte to a wrong value must fail; any
			// accepted mutation returning the same inner is a forgery.
			t.Fatalf("accepted packet with byte %d flipped", i)
		}
	}
}

func TestHMACRejectsWrongKey(t *testing.T) {
	a := NewHMAC([]byte("key A"))
	b := NewHMAC([]byte("key B"))
	if _, ok := b.Verify(a.Sign(testPkt)); ok {
		t.Fatal("cross-key verification succeeded")
	}
}

func TestHMACRejectsGarbage(t *testing.T) {
	a := NewHMAC([]byte("k"))
	for _, pkt := range [][]byte{nil, {1}, {1, 2}, make([]byte, 200)} {
		if _, ok := a.Verify(pkt); ok {
			t.Fatal("garbage accepted")
		}
	}
}

func TestChainRoundTrip(t *testing.T) {
	sender := NewChain([]byte("seed"), 100)
	receiver := NewChainVerifier(sender.Anchor())
	for i := 0; i < 50; i++ {
		wrapped := sender.Sign(testPkt)
		inner, ok := receiver.Verify(wrapped)
		if !ok {
			t.Fatalf("packet %d rejected", i)
		}
		if !bytes.Equal(inner, testPkt) {
			t.Fatal("inner mangled")
		}
	}
	if sender.Remaining() != 50 {
		t.Fatalf("remaining = %d", sender.Remaining())
	}
}

func TestChainToleratesLoss(t *testing.T) {
	sender := NewChain([]byte("seed"), 100)
	receiver := NewChainVerifier(sender.Anchor())
	// Drop packets 0..8, deliver packet 9.
	var wrapped []byte
	for i := 0; i < 10; i++ {
		wrapped = sender.Sign(testPkt)
	}
	if _, ok := receiver.Verify(wrapped); !ok {
		t.Fatal("receiver did not tolerate a gap")
	}
}

func TestChainRejectsReplay(t *testing.T) {
	sender := NewChain([]byte("seed"), 100)
	receiver := NewChainVerifier(sender.Anchor())
	w1 := sender.Sign(testPkt)
	if _, ok := receiver.Verify(w1); !ok {
		t.Fatal("first packet rejected")
	}
	// Replaying the same (or any earlier-indexed) packet must fail.
	if _, ok := receiver.Verify(w1); ok {
		t.Fatal("replay accepted")
	}
}

func TestChainRejectsForeignChain(t *testing.T) {
	sender := NewChain([]byte("seed"), 100)
	attacker := NewChain([]byte("other"), 100)
	receiver := NewChainVerifier(sender.Anchor())
	if _, ok := receiver.Verify(attacker.Sign(testPkt)); ok {
		t.Fatal("foreign chain accepted")
	}
}

func TestChainRejectsTamperedPayload(t *testing.T) {
	sender := NewChain([]byte("seed"), 100)
	receiver := NewChainVerifier(sender.Anchor())
	wrapped := sender.Sign(testPkt)
	wrapped[0] ^= 1
	if _, ok := receiver.Verify(wrapped); ok {
		t.Fatal("tampered payload accepted")
	}
}

func TestChainExhaustion(t *testing.T) {
	sender := NewChain([]byte("seed"), 2)
	receiver := NewChainVerifier(sender.Anchor())
	sender.Sign(testPkt)
	sender.Sign(testPkt)
	// Third signature is past the chain; must not verify.
	if _, ok := receiver.Verify(sender.Sign(testPkt)); ok {
		t.Fatal("exhausted chain still verifying")
	}
}

func TestHORSRoundTrip(t *testing.T) {
	key := GenerateHORS([]byte("hors seed"))
	sender := &HORSAuth{Key: key, Pub: key.Public()}
	receiver := &HORSAuth{Pub: key.Public()}
	wrapped := sender.Sign(testPkt)
	inner, ok := receiver.Verify(wrapped)
	if !ok {
		t.Fatal("verification failed")
	}
	if !bytes.Equal(inner, testPkt) {
		t.Fatal("inner mangled")
	}
	if key.Uses() != 1 {
		t.Fatalf("uses = %d", key.Uses())
	}
}

func TestHORSRejectsTamperedPayload(t *testing.T) {
	key := GenerateHORS([]byte("hors seed"))
	sender := &HORSAuth{Key: key, Pub: key.Public()}
	receiver := &HORSAuth{Pub: key.Public()}
	wrapped := sender.Sign(testPkt)
	// Flip a payload byte: the revealed secrets no longer match the
	// digest's indices.
	wrapped[4] ^= 1
	if _, ok := receiver.Verify(wrapped); ok {
		t.Fatal("tampered payload accepted")
	}
}

func TestHORSRejectsForgedSecrets(t *testing.T) {
	key := GenerateHORS([]byte("hors seed"))
	other := GenerateHORS([]byte("attacker"))
	receiver := &HORSAuth{Pub: key.Public()}
	forged := (&HORSAuth{Key: other, Pub: other.Public()}).Sign(testPkt)
	if _, ok := receiver.Verify(forged); ok {
		t.Fatal("foreign key accepted")
	}
}

func TestHORSDifferentMessagesDifferentIndices(t *testing.T) {
	a := horsIndices([]byte("message one"))
	b := horsIndices([]byte("message two"))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == horsK {
		t.Fatal("index function is constant")
	}
}

// TestUnwrapMalformedTable is the proto-style malformed sweep over the
// trailer framing, run against all three schemes: every mutation of a
// validly wrapped packet that breaks the `inner || trailer || u16 len
// || u8 scheme` grammar must be rejected — never a panic, never a
// partially accepted packet.
func TestUnwrapMalformedTable(t *testing.T) {
	hm := NewHMAC([]byte("k"))
	chainSender := NewChain([]byte("seed"), 50)
	horsKey := GenerateHORS([]byte("hors"))
	schemes := []struct {
		name   string
		sign   Authenticator
		verify func() Authenticator // fresh receiver per case (chain is stateful)
	}{
		{"hmac", hm, func() Authenticator { return hm }},
		{"chain", chainSender, func() Authenticator { return NewChainVerifier(chainSender.Anchor()) }},
		{"hors", &HORSAuth{Key: horsKey, Pub: horsKey.Public()},
			func() Authenticator { return &HORSAuth{Pub: horsKey.Public()} }},
	}
	for _, s := range schemes {
		wrapped := s.sign.Sign(testPkt)
		if _, ok := s.verify().Verify(wrapped); !ok {
			t.Fatalf("%s: baseline packet does not verify", s.name)
		}
		overhead := len(wrapped) - len(testPkt) // trailer + 3-byte frame
		cases := []struct {
			name string
			pkt  func() []byte
		}{
			{"nil", func() []byte { return nil }},
			{"one byte", func() []byte { return []byte{1} }},
			{"two bytes (shorter than the frame)", func() []byte { return []byte{1, 2} }},
			{"frame only, zero-length trailer", func() []byte {
				return wrap(s.sign.Scheme(), nil, nil)
			}},
			{"zero-length trailer on a real packet", func() []byte {
				return wrap(s.sign.Scheme(), testPkt, nil)
			}},
			{"trailer truncated by one byte", func() []byte {
				// Re-framing after the cut keeps the scheme byte and
				// declared length intact while the bytes go missing.
				mut := append([]byte(nil), wrapped[:len(wrapped)-4]...)
				return append(mut, wrapped[len(wrapped)-3:]...)
			}},
			{"tlen at the packet boundary (inner empty)", func() []byte {
				mut := append([]byte(nil), wrapped...)
				tlen := len(mut) - 3 // claims the whole packet is trailer
				mut[len(mut)-3] = byte(tlen >> 8)
				mut[len(mut)-2] = byte(tlen)
				return mut
			}},
			{"tlen one past the packet boundary", func() []byte {
				mut := append([]byte(nil), wrapped...)
				tlen := len(mut) - 2
				mut[len(mut)-3] = byte(tlen >> 8)
				mut[len(mut)-2] = byte(tlen)
				return mut
			}},
			{"tlen maximal (65535)", func() []byte {
				mut := append([]byte(nil), wrapped...)
				mut[len(mut)-3], mut[len(mut)-2] = 0xFF, 0xFF
				return mut
			}},
			{"wrong scheme byte", func() []byte {
				mut := append([]byte(nil), wrapped...)
				mut[len(mut)-1] ^= 0x7F
				return mut
			}},
			{"scheme byte AuthNone", func() []byte {
				mut := append([]byte(nil), wrapped...)
				mut[len(mut)-1] = byte(proto.AuthNone)
				return mut
			}},
			{"trailer zeroed", func() []byte {
				mut := append([]byte(nil), wrapped...)
				for i := len(testPkt); i < len(testPkt)+overhead-3; i++ {
					mut[i] = 0
				}
				return mut
			}},
		}
		for _, c := range cases {
			if inner, ok := s.verify().Verify(c.pkt()); ok {
				t.Errorf("%s: %s accepted (inner %d bytes)", s.name, c.name, len(inner))
			}
		}
	}
}

func TestUnwrapBoundaryExact(t *testing.T) {
	// unwrap itself (framing only, no MAC) must accept a trailer that
	// consumes the whole packet — an empty inner is the scheme layer's
	// problem to reject — and refuse anything declaring more bytes than
	// exist.
	trailer := []byte{1, 2, 3, 4}
	pkt := wrap(proto.AuthHMAC, nil, trailer)
	inner, tr, ok := unwrap(proto.AuthHMAC, pkt)
	if !ok || len(inner) != 0 || !bytes.Equal(tr, trailer) {
		t.Fatalf("boundary-exact unwrap = (%v, %v, %v)", inner, tr, ok)
	}
	pkt[len(pkt)-3], pkt[len(pkt)-2] = 0, byte(len(trailer)+1)
	if _, _, ok := unwrap(proto.AuthHMAC, pkt); ok {
		t.Fatal("tlen past the boundary accepted")
	}
}

func TestPeekScheme(t *testing.T) {
	a := NewHMAC([]byte("k"))
	s, err := PeekScheme(a.Sign(testPkt))
	if err != nil || s != proto.AuthHMAC {
		t.Fatalf("peek = (%v, %v)", s, err)
	}
	if _, err := PeekScheme([]byte{1}); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestCrossSchemeRejected(t *testing.T) {
	h := NewHMAC([]byte("k"))
	c := NewChain([]byte("seed"), 10)
	if _, ok := h.Verify(c.Sign(testPkt)); ok {
		t.Fatal("HMAC verifier accepted chain packet")
	}
	if _, ok := NewChainVerifier(c.Anchor()).Verify(h.Sign(testPkt)); ok {
		t.Fatal("chain verifier accepted HMAC packet")
	}
}

func BenchmarkHMACSign(b *testing.B) {
	a := NewHMAC([]byte("group secret"))
	pkt := make([]byte, 1400)
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		a.Sign(pkt)
	}
}

func BenchmarkHMACVerify(b *testing.B) {
	a := NewHMAC([]byte("group secret"))
	pkt := a.Sign(make([]byte, 1400))
	for i := 0; i < b.N; i++ {
		if _, ok := a.Verify(pkt); !ok {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkHORSSign(b *testing.B) {
	key := GenerateHORS([]byte("seed"))
	a := &HORSAuth{Key: key, Pub: key.Public()}
	pkt := make([]byte, 1400)
	for i := 0; i < b.N; i++ {
		a.Sign(pkt)
	}
}

func BenchmarkHORSVerify(b *testing.B) {
	key := GenerateHORS([]byte("seed"))
	sender := &HORSAuth{Key: key, Pub: key.Public()}
	receiver := &HORSAuth{Pub: key.Public()}
	pkt := sender.Sign(make([]byte, 1400))
	for i := 0; i < b.N; i++ {
		if _, ok := receiver.Verify(pkt); !ok {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkHORSVerifyGarbage(b *testing.B) {
	// The DoS case: cost of rejecting a garbage packet.
	key := GenerateHORS([]byte("seed"))
	receiver := &HORSAuth{Pub: key.Public()}
	garbage := wrap(proto.AuthHORS, make([]byte, 1400), make([]byte, horsK*32))
	for i := 0; i < b.N; i++ {
		if _, ok := receiver.Verify(garbage); ok {
			b.Fatal("garbage accepted")
		}
	}
}

func TestHMACBatchMatchesPerPacket(t *testing.T) {
	a := NewHMAC([]byte("group secret"))
	forger := NewHMAC([]byte("wrong key"))

	pkts := [][]byte{
		a.Sign([]byte("first packet")),
		forger.Sign([]byte("forged packet")),
		a.Sign([]byte("third packet")),
		[]byte("ga"), // too short to even unwrap
		a.Sign([]byte("")),
	}
	inners, ids, seqs, oks := a.VerifySessionBatch(pkts, nil)
	if len(inners) != len(pkts) || len(ids) != len(pkts) || len(seqs) != len(pkts) || len(oks) != len(pkts) {
		t.Fatalf("batch sizes: %d inners, %d ids, %d seqs, %d oks for %d packets",
			len(inners), len(ids), len(seqs), len(oks), len(pkts))
	}
	for i, pkt := range pkts {
		wantInner, wantOK := a.Verify(pkt)
		if oks[i] != wantOK {
			t.Errorf("packet %d: batch verdict %v, per-packet %v", i, oks[i], wantOK)
		}
		if wantOK && !bytes.Equal(inners[i], wantInner) {
			t.Errorf("packet %d: batch inner %q, per-packet %q", i, inners[i], wantInner)
		}
		if ids[i] != 0 || seqs[i] != 0 {
			t.Errorf("packet %d: shared key reported identity %d seq %d, want none", i, ids[i], seqs[i])
		}
	}

	plain := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	signed := a.SignForBatch(nil, plain)
	for i, pkt := range plain {
		if !bytes.Equal(signed[i], a.Sign(pkt)) {
			t.Errorf("packet %d: batch signature differs from per-packet Sign", i)
		}
	}
}

// TestRelayAuthenticatorTable drives both relay-side schemes through
// the one interface the relay's control pipeline uses: the same table
// of genuine and hostile requests, one VerifySessionBatch call each,
// and replies signed with SignForBatch verifying at the client they
// were addressed to.
func TestRelayAuthenticatorTable(t *testing.T) {
	const src, elsewhere = "10.0.0.7:5004", "10.0.66.1:5004"
	ring := NewKeyring([]byte("master"))
	shared := NewHMAC([]byte("group secret"))
	schemes := []struct {
		name   string
		relay  RelayAuthenticator
		client func() Authenticator // a fresh genuine signer at src
		forger Authenticator        // right scheme, wrong key
		other  Authenticator        // a genuine signer of the other scheme
		binds  bool
	}{
		{"hmac", shared, func() Authenticator { return shared },
			NewHMAC([]byte("wrong key")), ring.Signer(7, src), false},
		{"ident", ring.Relay(), func() Authenticator { return ring.Signer(7, src) },
			NewKeyring([]byte("someone else's master")).Signer(7, src), shared, true},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			if sc.relay.BindsIdentity() != sc.binds {
				t.Fatalf("BindsIdentity = %v, want %v", sc.relay.BindsIdentity(), sc.binds)
			}
			client := sc.client()
			body := []byte("subscribe body")
			good := client.Sign(body)
			trailer := len(good) - len(body)
			wrongScheme := append([]byte(nil), good...)
			wrongScheme[len(wrongScheme)-1] ^= 0x40
			cases := []struct {
				name string
				pkt  []byte
				src  string
				ok   bool
			}{
				{"genuine", good, src, true},
				{"forged tag", sc.forger.Sign(body), src, false},
				{"wrong scheme byte", wrongScheme, src, false},
				{"other scheme's trailer", sc.other.Sign(body), src, false},
				{"truncated trailer", good[:len(good)-trailer/2], src, false},
				{"no trailer at all", body, src, false},
				{"genuine, second of the pass", client.Sign(body), src, true},
				// The source is part of the verdict exactly when the
				// scheme binds identities.
				{"genuine bytes, another source", client.Sign(body), elsewhere, !sc.binds},
			}
			pkts := make([][]byte, len(cases))
			srcs := make([]string, len(cases))
			for i, c := range cases {
				pkts[i], srcs[i] = c.pkt, c.src
			}
			inners, ids, seqs, oks := sc.relay.VerifySessionBatch(pkts, srcs)
			if len(inners) != len(cases) || len(ids) != len(cases) || len(seqs) != len(cases) || len(oks) != len(cases) {
				t.Fatalf("result lengths %d/%d/%d/%d, want %d each", len(inners), len(ids), len(seqs), len(oks), len(cases))
			}
			var lastSeq uint64
			for i, c := range cases {
				if oks[i] != c.ok {
					t.Errorf("%s: ok = %v, want %v", c.name, oks[i], c.ok)
					continue
				}
				switch {
				case !c.ok:
					if inners[i] != nil {
						t.Errorf("%s: rejected but inner = %q", c.name, inners[i])
					}
				case !bytes.Equal(inners[i], body):
					t.Errorf("%s: inner = %q, want the body", c.name, inners[i])
				case !sc.binds:
					if ids[i] != 0 || seqs[i] != 0 {
						t.Errorf("%s: identity %d seq %d from a scheme that binds none", c.name, ids[i], seqs[i])
					}
				case ids[i] != 7 || seqs[i] <= lastSeq:
					t.Errorf("%s: identity %d seq %d, want identity 7 and a seq above %d", c.name, ids[i], seqs[i], lastSeq)
				default:
					lastSeq = seqs[i]
				}
			}

			// Replies: signed in one call, each verifies at its
			// recipient; under ident, only at its recipient.
			acks := [][]byte{[]byte("ack one"), []byte("ack two")}
			signed := sc.relay.SignForBatch([]uint32{7, 8}, acks)
			if len(signed) != len(acks) {
				t.Fatalf("SignForBatch returned %d replies for %d", len(signed), len(acks))
			}
			if inner, ok := client.Verify(signed[0]); !ok || !bytes.Equal(inner, acks[0]) {
				t.Errorf("the reply addressed to this client did not verify (ok=%v inner=%q)", ok, inner)
			}
			if _, ok := client.Verify(signed[1]); ok == sc.binds {
				t.Errorf("a reply addressed to identity 8 verified=%v at identity 7, want %v", ok, !sc.binds)
			}
			if _, ok := sc.forger.Verify(signed[0]); ok {
				t.Error("a reply verified under the wrong key")
			}
		})
	}
}
