package relay

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/relay/lease"
	"repro/internal/security"
	"repro/internal/vclock"
)

// TestLeaseHolderCheck drives holds, the one function every control
// request must pass before it may act on an existing lease, directly.
func TestLeaseHolderCheck(t *testing.T) {
	_, _, r := newTestRelay(t, Config{TraceSample: 1})
	subscribe, pause := &proto.Subscribe{LeaseMs: 10000}, &proto.Pause{Paused: true}
	cases := []struct {
		name             string
		sub              subscriber // the lease as it stands
		q                request
		ok               bool
		ctlSeq           uint64 // the lease's window afterwards
		mismatch, replay int64
		traced           obs.Reason
	}{
		{name: "no session: a shared-key subscribe is not windowed",
			sub: subscriber{ctlSeq: 9}, q: request{sub: subscribe}, ok: true, ctlSeq: 9},
		{name: "wrong identity",
			sub: subscriber{identity: 1, ctlSeq: 4}, q: request{sub: subscribe, session: true, identity: 2, seq: 100},
			ctlSeq: 4, mismatch: 1, traced: obs.ReasonAuth},
		{name: "stale seq",
			sub: subscriber{identity: 1, ctlSeq: 4}, q: request{sub: subscribe, session: true, identity: 1, seq: 4},
			ctlSeq: 4, replay: 1, traced: obs.ReasonStale},
		{name: "fresh seq consumed",
			sub: subscriber{identity: 1, ctlSeq: 4}, q: request{sub: subscribe, session: true, identity: 1, seq: 5},
			ok: true, ctlSeq: 5},
		{name: "a session pause rides the same window",
			sub: subscriber{identity: 1, ctlSeq: 5}, q: request{pause: pause, session: true, identity: 1, seq: 5},
			ctlSeq: 5, replay: 1, traced: obs.ReasonStale},
		{name: "non-session pause, fresh Pause.Seq",
			sub: subscriber{ctlSeq: 2}, q: request{pause: pause, seq: 3}, ok: true, ctlSeq: 3},
		{name: "non-session pause, replayed Pause.Seq", // traced; es.relay.replay.dropped counts sessions only
			sub: subscriber{ctlSeq: 3}, q: request{pause: pause, seq: 3}, ctlSeq: 3, traced: obs.ReasonStale},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.q.from, tc.q.send = "10.0.0.2:5004", true
			before := r.tracer.DropCount(obs.PathControl, tc.traced)
			var tl tally
			if got := r.holds(&tc.sub, &tc.q, &tl); got != tc.ok {
				t.Fatalf("holds = %v, want %v", got, tc.ok)
			}
			if tc.sub.ctlSeq != tc.ctlSeq {
				t.Errorf("lease window = %d, want %d", tc.sub.ctlSeq, tc.ctlSeq)
			}
			if tc.q.send != tc.ok {
				t.Errorf("send = %v after holds = %v: a refused request must stay silent", tc.q.send, tc.ok)
			}
			if tl.identityMismatch != tc.mismatch || tl.stale != tc.replay {
				t.Errorf("tally = %d mismatch / %d replay, want %d / %d", tl.identityMismatch, tl.stale, tc.mismatch, tc.replay)
			}
			if tc.traced != obs.ReasonNone {
				if d := r.tracer.DropCount(obs.PathControl, tc.traced) - before; d != 1 {
					t.Errorf("traced %d %v drop(s), want 1", d, tc.traced)
				}
			}
		})
	}
}

// TestSubscribeThenPauseBackToBack: a Pause sent right behind the
// Subscribe it belongs to is applied behind it. Both ride the admission
// queue, so the pause cannot overtake the queued Subscribe on the
// receive goroutine and find no lease to park.
func TestSubscribeThenPauseBackToBack(t *testing.T) {
	for _, scheme := range []string{"none", "ident"} {
		t.Run(scheme, func(t *testing.T) {
			const from = lan.Addr("10.0.0.2:5004")
			cfg := Config{Channel: 1, DVR: true, DVRDepth: 10 * time.Second}
			var signer security.Authenticator
			if scheme == "ident" {
				ring := security.NewKeyring([]byte("pause master"))
				cfg.Auth, signer = ring.Relay(), ring.Signer(1, string(from))
			}
			sim, seg, r := newTestRelay(t, cfg)
			conn, err := seg.Attach(from)
			if err != nil {
				t.Fatal(err)
			}
			var table []SubscriberInfo
			sim.Go("relay", r.Run)
			sim.Go("listener", func() {
				ls := lease.New(sim, conn, "listener")
				ls.SetAuth(signer)
				ls.Subscribe(r.Addr(), 1, 10*time.Second)
				ls.Pause()
				sim.Sleep(50 * time.Millisecond)
				table = r.Subscribers()
				ls.Close()
				r.Stop()
				conn.Close()
			})
			sim.WaitIdle()
			if len(table) != 1 || !table[0].Paused {
				t.Fatalf("table = %+v, want the one lease, paused", table)
			}
			if st := r.Stats(); st.Subscribes != 1 || st.AuthDropped != 0 || st.ReplayDropped != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestPauseFloodShedAtTheDoor: pauses are control requests like any
// other — they wait in the bounded admission queue, and a flood beyond
// its bound is dropped at the door, counted and traced as queue-full on
// the control path, before any verification is spent on it.
func TestPauseFloodShedAtTheDoor(t *testing.T) {
	const extra = 5
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, Auth: security.NewHMAC([]byte("door key"))})
	data, err := (&proto.Pause{Channel: 1, Seq: 1, Paused: true}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The worker is "running" but has not been scheduled yet: everything
	// arriving meanwhile queues up.
	r.admitMu.Lock()
	r.admitRunning = true
	r.admitMu.Unlock()
	for i := 0; i < admitQueueLen+extra; i++ {
		r.handlePacket(lan.Packet{From: "10.0.66.6:5004", To: r.Addr(), Data: data}) // unsigned
	}
	st := r.Stats()
	if st.AdmitOverflow != extra {
		t.Fatalf("AdmitOverflow = %d, want %d", st.AdmitOverflow, extra)
	}
	if n := r.tracer.DropCount(obs.PathControl, obs.ReasonQueueFull); n != extra {
		t.Fatalf("queue-full control drops = %d, want %d", n, extra)
	}
	if st.AuthDropped != 0 {
		t.Fatalf("AuthDropped = %d before the worker ran: pauses verified on the receive path", st.AuthDropped)
	}
	// The worker then drains what was let in, a gather pass at a time.
	sim.Go("admit", r.admitWorker)
	sim.Go("stop", r.Stop)
	sim.WaitIdle()
	st = r.Stats()
	if st.AuthDropped != admitQueueLen || st.AdmitBatches != admitQueueLen/DefaultAdmitBatch {
		t.Fatalf("after the drain: %d auth drops in %d passes, want %d in %d",
			st.AuthDropped, st.AdmitBatches, admitQueueLen, admitQueueLen/DefaultAdmitBatch)
	}
}

// TestNewUpstreamNeedsUpstreamAuth: a chained relay that demands
// signatures must be given the client side of the scheme for its own
// upstream lease. Falling back to Auth built, under the identity
// scheme, a relay that signed its lease as identity 0 and rejected
// every grant — silently.
func TestNewUpstreamNeedsUpstreamAuth(t *testing.T) {
	ring := security.NewKeyring([]byte("chain master"))
	build := func(cfg Config) error {
		sim := vclock.NewSim(time.Time{})
		conn, err := lan.NewSegment(sim, lan.SegmentConfig{}).Attach("10.0.0.2:5006")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Upstream = "10.0.0.1:5006"
		_, err = New(sim, conn, cfg)
		return err
	}
	if err := build(Config{Auth: ring.Relay()}); err == nil || !strings.Contains(err.Error(), "UpstreamAuth") {
		t.Fatalf("Upstream + Auth without UpstreamAuth: err = %v, want one naming UpstreamAuth", err)
	}
	if err := build(Config{Auth: ring.Relay(), UpstreamAuth: ring.Signer(100, "10.0.0.2:5006")}); err != nil {
		t.Fatalf("Upstream + Auth + UpstreamAuth refused: %v", err)
	}
	if err := build(Config{}); err != nil {
		t.Fatalf("open chained relay refused: %v", err)
	}
}
