package lease

import (
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/security"
	"repro/internal/vclock"
)

// harness attaches a subscriber and a fake relay endpoint to one
// simulated segment.
func harness(t *testing.T) (*vclock.Sim, *Subscriber, lan.Conn) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	return sim, New(sim, cc, "lease-test"), rc
}

// TestRefreshStaysInsideShortGrantedLease is the regression test for
// the lease-flap bug: with a relay-clamped 1s lease, the old speaker
// refresh waited max(lease/3, 1s) = 1s — landing at or after expiry.
// Refreshes must arrive strictly inside every granted lease.
func TestRefreshStaysInsideShortGrantedLease(t *testing.T) {
	sim, sub, relay := harness(t)
	const granted = time.Second
	var gaps []time.Duration
	sim.Go("relay", func() {
		var last time.Time
		for {
			pkt, err := relay.Recv(0)
			if err != nil {
				return
			}
			req, err := proto.UnmarshalSubscribe(pkt.Data)
			if err != nil || req.LeaseMs == 0 {
				continue
			}
			now := sim.Now()
			if !last.IsZero() {
				gaps = append(gaps, now.Sub(last))
			}
			last = now
			ack, _ := (&proto.SubAck{Seq: req.Seq, LeaseMs: uint32(granted / time.Millisecond)}).Marshal()
			relay.Send(pkt.From, ack)
		}
	})
	sim.Go("sub", func() {
		sub.Subscribe("10.0.0.1:5006", 1, 15*time.Second)
		sim.Sleep(100 * time.Millisecond)
		// The relay granted 1s; simulate the ack reception loop (Seq 1
		// echoes the first subscribe).
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: uint32(granted / time.Millisecond)})
		sim.Sleep(5 * time.Second)
		sub.Close()
		relay.Close()
	})
	sim.WaitIdle()
	if len(gaps) < 3 {
		t.Fatalf("only %d refreshes in 5s of a 1s lease", len(gaps))
	}
	for i, g := range gaps[1:] { // gaps[0] spans the pre-ack pacing
		if g >= granted {
			t.Fatalf("refresh gap %d = %v, not inside the %v granted lease (gaps %v)", i+1, g, granted, gaps)
		}
	}
}

func TestSubscribeCancelAndPath(t *testing.T) {
	sim, sub, relay := harness(t)
	type seen struct {
		channel uint32
		leaseMs uint32
		hops    uint8
		pathID  uint64
	}
	var got []seen
	sim.Go("relay", func() {
		for {
			pkt, err := relay.Recv(0)
			if err != nil {
				return
			}
			if req, err := proto.UnmarshalSubscribe(pkt.Data); err == nil {
				got = append(got, seen{req.Channel, req.LeaseMs, req.Hops, req.PathID})
			}
		}
	})
	sim.Go("sub", func() {
		sub.SetPath(func() (uint8, uint64) { return 2, 77 })
		sub.Subscribe("10.0.0.1:5006", 9, 10*time.Second)
		sim.Sleep(50 * time.Millisecond)
		sub.Cancel()
		if tgt := sub.Target(); tgt != "" {
			t.Errorf("target after cancel = %q", tgt)
		}
		sim.Sleep(50 * time.Millisecond)
		sub.Close()
		relay.Close()
	})
	sim.WaitIdle()
	if len(got) != 2 {
		t.Fatalf("relay saw %d packets, want subscribe + cancel: %+v", len(got), got)
	}
	if got[0] != (seen{9, 10000, 2, 77}) {
		t.Fatalf("subscribe = %+v", got[0])
	}
	if got[1] != (seen{9, 0, 2, 77}) {
		t.Fatalf("cancel = %+v", got[1])
	}
	st := sub.Stats()
	if st.Subscribes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHandleAckAccounting(t *testing.T) {
	sim, sub, _ := harness(t)
	sim.Go("sub", func() {
		sub.Subscribe("10.0.0.1:5006", 0, 10*time.Second)
		if st := sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: 3000}); st != proto.SubOK {
			t.Errorf("status = %v", st)
		}
		if g := sub.Granted(); g != 3*time.Second {
			t.Errorf("granted = %v, want 3s", g)
		}
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubTableFull})
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubLoop})
		st := sub.Stats()
		if st.Acks != 3 || st.Refusals != 2 || st.Loops != 1 {
			t.Errorf("stats = %+v", st)
		}
		sub.Close()
	})
	sim.WaitIdle()
}

// TestStaleAckFromPreviousTargetIgnored is the regression test for the
// stale-ack bug: HandleAck never checked ack.Seq against the last sent
// seq, so after re-targeting, a late ack from the *previous* relay (or
// a duplicated datagram from that exchange) installed a grant the
// current relay never made and mis-paced the refresh loop against it.
func TestStaleAckFromPreviousTargetIgnored(t *testing.T) {
	sim, sub, _ := harness(t)
	sim.Go("sub", func() {
		// Lease from relay A; its grant (echoing seq 1) applies.
		sub.Subscribe("10.0.0.1:5006", 1, 10*time.Second)
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: 60000})
		if g := sub.Granted(); g != time.Minute {
			t.Errorf("granted from A = %v, want 1m", g)
		}
		// Re-target to relay B: the next subscribe is seq 2, and A's
		// duplicated/late ack still echoes seq 1. It must not install
		// A's 60s grant as if B had made it.
		sub.Subscribe("10.0.0.9:5006", 1, 10*time.Second)
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: 60000})
		if g := sub.Granted(); g != 0 {
			t.Errorf("granted after stale ack = %v, want 0 (no grant from B yet)", g)
		}
		// An ack echoing a seq never sent (forged/foreign) is ignored too.
		sub.HandleAck(&proto.SubAck{Seq: 99, Status: proto.SubOK, LeaseMs: 1000})
		if g := sub.Granted(); g != 0 {
			t.Errorf("granted after foreign ack = %v, want 0", g)
		}
		// B's real answer applies.
		sub.HandleAck(&proto.SubAck{Seq: 2, Status: proto.SubOK, LeaseMs: 2000})
		if g := sub.Granted(); g != 2*time.Second {
			t.Errorf("granted from B = %v, want 2s", g)
		}
		st := sub.Stats()
		if st.Stale != 2 || st.Acks != 2 {
			t.Errorf("stats = %+v, want 2 stale / 2 accepted", st)
		}
		sub.Close()
	})
	sim.WaitIdle()
}

// TestAuthSignsSubscribesAndVerifiesAcks exercises the §5.1 control
// plane from the subscriber side: with an authenticator installed every
// outgoing subscribe verifies under the shared key, a signed grant is
// accepted through HandleAckData, and an unsigned or wrong-key grant is
// dropped before it can touch the lease state.
func TestAuthSignsSubscribesAndVerifiesAcks(t *testing.T) {
	sim, sub, relayConn := harness(t)
	auth := security.NewHMAC([]byte("control key"))
	var verified, rejected int
	sim.Go("relay", func() {
		for {
			pkt, err := relayConn.Recv(0)
			if err != nil {
				return
			}
			if inner, ok := auth.Verify(pkt.Data); ok {
				if _, err := proto.UnmarshalSubscribe(inner); err == nil {
					verified++
				}
			} else {
				rejected++
			}
		}
	})
	sim.Go("sub", func() {
		sub.SetAuth(auth)
		sub.Subscribe("10.0.0.1:5006", 1, 10*time.Second)
		sim.Sleep(50 * time.Millisecond)

		ack, _ := (&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: 3000}).Marshal()
		// Unsigned and wrong-key grants are dropped with ErrAuthFailed.
		if _, err := sub.HandleAckData("10.0.0.1:5006", ack); err != ErrAuthFailed {
			t.Errorf("unsigned ack: err = %v, want ErrAuthFailed", err)
		}
		wrong := security.NewHMAC([]byte("wrong key"))
		if _, err := sub.HandleAckData("10.0.0.1:5006", wrong.Sign(ack)); err != ErrAuthFailed {
			t.Errorf("wrong-key ack: err = %v, want ErrAuthFailed", err)
		}
		if g := sub.Granted(); g != 0 {
			t.Errorf("granted after forged acks = %v, want 0", g)
		}
		// A correctly signed grant from an off-path source is still
		// refused: only the leased relay's address may answer.
		if _, err := sub.HandleAckData("10.0.0.66:5006", auth.Sign(ack)); err != nil {
			t.Errorf("off-path ack: err = %v, want silent stale drop", err)
		}
		if g := sub.Granted(); g != 0 {
			t.Errorf("granted after off-path ack = %v, want 0", g)
		}
		// The genuine signed grant from the leased relay applies.
		if st, err := sub.HandleAckData("10.0.0.1:5006", auth.Sign(ack)); err != nil || st != proto.SubOK {
			t.Errorf("signed ack: (%v, %v)", st, err)
		}
		if g := sub.Granted(); g != 3*time.Second {
			t.Errorf("granted = %v, want 3s", g)
		}
		if st := sub.Stats(); st.AuthDropped != 2 || st.Acks != 1 || st.Stale != 1 {
			t.Errorf("stats = %+v", st)
		}
		sub.Close()
		relayConn.Close()
	})
	sim.WaitIdle()
	if verified == 0 || rejected != 0 {
		t.Fatalf("relay saw %d verified / %d rejected subscribes, want all signed", verified, rejected)
	}
}

// TestAckWhileDetachedIgnored: after Cancel the subscriber holds no
// lease, and any ack still in flight — even one echoing a valid seq —
// must not resurrect a grant.
func TestAckWhileDetachedIgnored(t *testing.T) {
	sim, sub, _ := harness(t)
	sim.Go("sub", func() {
		sub.Subscribe("10.0.0.1:5006", 1, 10*time.Second)
		sub.Cancel()
		sub.HandleAck(&proto.SubAck{Seq: 1, Status: proto.SubOK, LeaseMs: 60000})
		if g := sub.Granted(); g != 0 {
			t.Errorf("granted while detached = %v, want 0", g)
		}
		if st := sub.Stats(); st.Stale != 1 || st.Acks != 0 {
			t.Errorf("stats = %+v, want the detached ack counted stale", st)
		}
		sub.Close()
	})
	sim.WaitIdle()
}

// TestShiftSurvivesLostSubscribes: loss is not a verdict on the relay.
// With the first four subscribes of a shifted join lost on the segment,
// the fifth must still ask for the shift — the relay honors a shift
// only when the lease is created — and the grant must report it.
func TestShiftSurvivesLostSubscribes(t *testing.T) {
	sim, sub, relay := harness(t)
	const lost = 4
	const shift = 10 * time.Second
	var seen int
	var answered *proto.Subscribe
	sim.Go("relay", func() {
		for {
			pkt, err := relay.Recv(0)
			if err != nil {
				return
			}
			req, err := proto.UnmarshalSubscribe(pkt.Data)
			if err != nil || req.LeaseMs == 0 {
				continue
			}
			if seen++; seen <= lost {
				continue // dropped on the wire: never answered
			}
			if answered == nil {
				answered = req
			}
			ack, _ := (&proto.SubAck{Seq: req.Seq, Status: proto.SubOK, LeaseMs: 1000, ShiftMs: req.ShiftMs}).Marshal()
			relay.Send(pkt.From, ack)
		}
	})
	sim.Go("rx", func() {
		for {
			pkt, err := sub.conn.Recv(0)
			if err != nil {
				return
			}
			sub.HandleAckData(pkt.From, pkt.Data)
		}
	})
	sim.Go("sub", func() {
		sub.SetShift(shift)
		sub.Subscribe("10.0.0.1:5006", 1, 3*time.Second)
		sim.Sleep(10 * time.Second)
		if g := sub.GrantedShift(); g != shift {
			t.Errorf("granted shift = %v, want %v: four lost subscribes cost the shift", g, shift)
		}
		sub.Close()
		relay.Close()
		sub.conn.Close()
	})
	sim.WaitIdle()
	if answered == nil {
		t.Fatalf("relay saw only %d subscribes, never a fifth", seen)
	}
	if want := uint32(shift / time.Millisecond); answered.ShiftMs != want {
		t.Errorf("subscribe %d asked for shift %d ms, want %d", lost+1, answered.ShiftMs, want)
	}
}

// redirectAck builds one SubRedirect ack for seq naming to.
func redirectAck(t *testing.T, seq uint32, to string) []byte {
	t.Helper()
	data, err := (&proto.SubAck{Seq: seq, Status: proto.SubRedirect, Redirect: to}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recvSubscribe reads the next subscribe at a fake relay endpoint.
func recvSubscribe(t *testing.T, conn lan.Conn) *proto.Subscribe {
	t.Helper()
	pkt, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatalf("relay endpoint heard nothing: %v", err)
	}
	req, err := proto.UnmarshalSubscribe(pkt.Data)
	if err != nil {
		t.Fatalf("relay endpoint got a non-subscribe: %v", err)
	}
	return req
}

// TestRedirectRetargetsAndResubscribes: a SubRedirect moves the lease
// to the named sibling and chases it immediately — the sibling hears a
// fresh subscribe without waiting out a refresh interval — and a
// granted lease at the new target resets the chain budget.
func TestRedirectRetargetsAndResubscribes(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	shedder, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := seg.Attach("10.0.0.3:5006")
	if err != nil {
		t.Fatal(err)
	}
	sub := New(sim, cc, "redirect-test")
	sim.Go("test", func() {
		defer func() { sub.Close(); shedder.Close(); sibling.Close() }()
		sub.Subscribe("10.0.0.1:5006", 1, 10*time.Second)
		req := recvSubscribe(t, shedder)
		st, err := sub.HandleAckData("10.0.0.1:5006", redirectAck(t, req.Seq, "10.0.0.3:5006"))
		if err != nil || st != proto.SubRedirect {
			t.Fatalf("redirect not applied: status %v, err %v", st, err)
		}
		if sub.Target() != "10.0.0.3:5006" {
			t.Fatalf("target = %q after redirect", sub.Target())
		}
		// The chase arrives at the sibling, same channel and lease ask.
		req2 := recvSubscribe(t, sibling)
		if req2.Channel != 1 || req2.LeaseMs != 10_000 {
			t.Fatalf("chase subscribe = %+v", req2)
		}
		// A grant from the *old* target must not reach the lease now.
		if sub.HandleAckData("10.0.0.1:5006", nil); sub.Stats().Stale != 1 {
			t.Fatalf("stale = %d, old target not gated out", sub.Stats().Stale)
		}
		// The sibling grants: lease installs, redirect budget resets.
		ackData, _ := (&proto.SubAck{Seq: req2.Seq, Status: proto.SubOK, LeaseMs: 5000}).Marshal()
		if _, err := sub.HandleAckData("10.0.0.3:5006", ackData); err != nil {
			t.Fatal(err)
		}
		if sub.Granted() != 5*time.Second {
			t.Fatalf("granted = %v", sub.Granted())
		}
		st2 := sub.Stats()
		if st2.Redirects != 1 || st2.Refusals != 0 {
			t.Fatalf("stats = %+v, want one followed redirect and no refusals", st2)
		}
	})
	sim.WaitIdle()
}

// TestRedirectChainCapped: two relays bouncing a subscriber between
// them stop being followed after MaxRedirects hops — the subscriber
// surfaces ErrRedirectLimit, keeps its current target, and counts the
// refused redirect as a refusal rather than chasing forever.
func TestRedirectChainCapped(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []lan.Addr{"10.0.0.1:5006", "10.0.0.3:5006"}
	conns := make([]lan.Conn, 2)
	for i, a := range addrs {
		if conns[i], err = seg.Attach(a); err != nil {
			t.Fatal(err)
		}
	}
	sub := New(sim, cc, "redirect-cap-test")
	sim.Go("test", func() {
		defer func() { sub.Close(); conns[0].Close(); conns[1].Close() }()
		sub.Subscribe(addrs[0], 0, 10*time.Second)
		cur := 0
		for i := 0; i < MaxRedirects; i++ {
			req := recvSubscribe(t, conns[cur])
			next := 1 - cur
			st, err := sub.HandleAckData(addrs[cur], redirectAck(t, req.Seq, string(addrs[next])))
			if err != nil || st != proto.SubRedirect {
				t.Fatalf("hop %d: status %v, err %v", i, st, err)
			}
			cur = next
			if sub.Target() != addrs[cur] {
				t.Fatalf("hop %d: target = %q", i, sub.Target())
			}
		}
		// Budget spent: the next bounce is refused, target keeps.
		req := recvSubscribe(t, conns[cur])
		st, err := sub.HandleAckData(addrs[cur], redirectAck(t, req.Seq, string(addrs[1-cur])))
		if err != ErrRedirectLimit {
			t.Fatalf("over-budget redirect: status %v, err %v, want ErrRedirectLimit", st, err)
		}
		if sub.Target() != addrs[cur] {
			t.Fatalf("target moved to %q after refused redirect", sub.Target())
		}
		stats := sub.Stats()
		if stats.Redirects != MaxRedirects || stats.Refusals != 1 {
			t.Fatalf("stats = %+v, want %d followed and 1 refused", stats, MaxRedirects)
		}
	})
	sim.WaitIdle()
}

// TestRedirectRejectsForgedAndNonsense: with control-plane auth on,
// only a correctly signed redirect moves the lease — forged and
// unsigned ones are dropped (ErrAuthFailed) with the target unmoved.
// And even a well-signed redirect pointing nowhere usable (back at the
// sender, or at a multicast group) is refused, not followed.
func TestRedirectRejectsForgedAndNonsense(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	auth := security.NewHMAC([]byte("chain key"))
	sub := New(sim, cc, "redirect-auth-test")
	sub.SetAuth(auth)
	sim.Go("test", func() {
		defer func() { sub.Close(); relay.Close() }()
		sub.Subscribe("10.0.0.1:5006", 1, 10*time.Second)
		pkt, err := relay.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		inner, ok := auth.Verify(pkt.Data)
		if !ok {
			t.Fatal("subscribe not signed")
		}
		req, err := proto.UnmarshalSubscribe(inner)
		if err != nil {
			t.Fatal(err)
		}
		raw := redirectAck(t, req.Seq, "10.0.0.9:5006")
		// Unsigned: dropped before the lease state.
		if _, err := sub.HandleAckData("10.0.0.1:5006", raw); err != ErrAuthFailed {
			t.Fatalf("unsigned redirect: err %v, want ErrAuthFailed", err)
		}
		// Signed with the wrong key: same fate.
		forged := security.NewHMAC([]byte("attacker key")).Sign(raw)
		if _, err := sub.HandleAckData("10.0.0.1:5006", forged); err != ErrAuthFailed {
			t.Fatalf("forged redirect: err %v, want ErrAuthFailed", err)
		}
		if sub.Target() != "10.0.0.1:5006" {
			t.Fatalf("target moved to %q on a rejected redirect", sub.Target())
		}
		// Well-signed but pointing back at the sender: a refusal in
		// redirect's clothing, counted but never followed.
		self := auth.Sign(redirectAck(t, req.Seq, "10.0.0.1:5006"))
		if st, err := sub.HandleAckData("10.0.0.1:5006", self); err != nil || st != proto.SubRedirect {
			t.Fatalf("self-redirect: status %v, err %v", st, err)
		}
		// Well-signed but multicast: a lease cannot live there.
		mc := auth.Sign(redirectAck(t, req.Seq, "239.72.5.9:5004"))
		if _, err := sub.HandleAckData("10.0.0.1:5006", mc); err != nil {
			t.Fatal(err)
		}
		stats := sub.Stats()
		if sub.Target() != "10.0.0.1:5006" || stats.Redirects != 0 {
			t.Fatalf("target %q, stats %+v: a nonsense redirect was followed", sub.Target(), stats)
		}
		if stats.AuthDropped != 2 || stats.Refusals != 2 {
			t.Fatalf("stats = %+v, want 2 auth drops and 2 refusals", stats)
		}
	})
	sim.WaitIdle()
}
