package relay

import (
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay/lease"
)

// controlPkt marshals a Control packet for a raw 16-bit stream — the
// shape every ladder tier can transcode.
func controlPkt(t testing.TB, ch, epoch uint32) []byte {
	t.Helper()
	data, err := (&proto.Control{
		Channel: ch, Epoch: epoch, Seq: 1,
		Params: audio.CDQuality, Codec: "raw",
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// dataPkt marshals a Data packet with n bytes of silent 16-bit PCM.
func dataPkt(t testing.TB, ch, epoch uint32, seq uint64, n int) []byte {
	t.Helper()
	payload := make([]byte, n)
	data, err := (&proto.Data{
		Channel: ch, Epoch: epoch, Seq: seq, PlayAt: int64(seq) * 1000, Payload: payload,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestChainAwareLeaseSizing(t *testing.T) {
	_, _, r := newTestRelay(t, Config{MaxLease: time.Minute})
	now := r.clock.Now()

	// A plain speaker (hops 0) gets exactly what it asked for; a
	// chained subscriber's grant scales with the relays behind it.
	mk := func(from lan.Addr, hops uint8, leaseMs uint32) lan.Packet {
		data, err := (&proto.Subscribe{Seq: 1, LeaseMs: leaseMs, Hops: hops, PathID: 7}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return lan.Packet{From: from, To: "10.0.0.1:5006", Data: data}
	}
	r.handleRequest(mk("10.0.0.2:5004", 0, 5000))
	r.handleRequest(mk("10.0.0.3:5004", 3, 5000))
	r.handleRequest(mk("10.0.0.4:5004", 3, 30_000)) // 4x30s clamps at MaxLease

	subs := r.Subscribers()
	if len(subs) != 3 {
		t.Fatalf("subscribers = %d, want 3", len(subs))
	}
	if d := subs[0].Expires.Sub(now); d != 5*time.Second {
		t.Errorf("hops=0 lease = %v, want 5s", d)
	}
	if d := subs[1].Expires.Sub(now); d != 20*time.Second {
		t.Errorf("hops=3 lease = %v, want 4x scaled 20s", d)
	}
	if d := subs[2].Expires.Sub(now); d != time.Minute {
		t.Errorf("hops=3 big lease = %v, want MaxLease clamp %v", d, time.Minute)
	}
}

// TestChainedRefreshCadenceAtHopsThree is the satellite regression for
// chain-aware lease sizing end to end: a hops=3 subscriber (a relay
// fronting a three-deep subtree) asks for 5s, is granted 4x, and its
// refresh loop — paced off the *granted* lease — must both slow down
// to the scaled cadence and still land every refresh strictly inside
// the lease (the relay never expires it).
func TestChainedRefreshCadenceAtHopsThree(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{MaxLease: time.Minute})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	sub := lease.New(sim, cc, "chained-sub")
	sub.SetPath(func() (uint8, uint64) { return 3, 42 })

	var granted time.Duration
	var refreshes, expired int64
	sim.Go("relay", r.Run)
	sim.Go("acks", func() {
		for {
			pkt, err := cc.Recv(0)
			if err != nil {
				return
			}
			sub.HandleAckData(pkt.From, pkt.Data)
		}
	})
	sim.Go("test", func() {
		sub.Subscribe(r.Addr(), 0, 5*time.Second)
		sim.Sleep(30 * time.Second)
		granted = sub.Granted()
		st := r.Stats()
		refreshes, expired = st.Refreshes, st.Expired
		sub.Close()
		cc.Close()
		r.Stop()
	})
	sim.WaitIdle()

	if granted != 20*time.Second {
		t.Fatalf("granted = %v, want 4x-scaled 20s", granted)
	}
	if expired != 0 {
		t.Fatalf("chained subscriber expired %d times; refreshes must land inside the scaled lease", expired)
	}
	// Pacing is granted/3 ≈ 6.7s: 30s of runtime fits 3-5 refreshes.
	// Many more would mean the loop still paces off the request.
	if refreshes < 2 || refreshes > 5 {
		t.Fatalf("refreshes in 30s = %d, want 3-5 (granted/3 cadence)", refreshes)
	}
}

func TestFanoutEncodesOncePerProfile(t *testing.T) {
	_, _, r := newTestRelay(t, Config{QueueLen: 64})
	// Three source subscribers, two ulaw, one ovl-low: three distinct
	// tiers, six subscribers.
	for i, p := range []codec.Profile{
		codec.ProfileSource, codec.ProfileSource, codec.ProfileSource,
		codec.ProfileULaw, codec.ProfileULaw, codec.ProfileOVLLow,
	} {
		addr := lan.Addr("10.0.0." + string(rune('2'+i)) + ":5004")
		if !r.subscribe(addr, &proto.Subscribe{Profile: uint8(p)}, time.Minute) {
			t.Fatalf("subscribe %d failed", i)
		}
	}

	const payload = 800
	r.fanout(0, controlPkt(t, 0, 1))
	r.fanout(0, dataPkt(t, 0, 1, 1, payload))
	r.fanout(0, dataPkt(t, 0, 1, 2, payload))

	// Two active non-source profiles, two data packets: four encodes —
	// not one per subscriber (which would be six and twelve).
	if st := r.Stats(); st.TranscodeEncodes != 4 {
		t.Fatalf("TranscodeEncodes = %d, want 4 (2 active profiles x 2 packets); stats %+v",
			st.TranscodeEncodes, st)
	}
	if st := r.Stats(); st.TranscodeErrors != 0 {
		t.Fatalf("TranscodeErrors = %d", st.TranscodeErrors)
	}

	sent := drain(r)
	// The source subscriber is sent the original bytes.
	src := sent["10.0.0.2:5004"]
	if len(src) != 3 {
		t.Fatalf("source subscriber sent %d packets, want 3", len(src))
	}
	srcData, err := proto.UnmarshalData(src[1])
	if err != nil || len(srcData.Payload) != payload || srcData.Epoch != 1 {
		t.Fatalf("source data = %+v, err %v", srcData, err)
	}

	// The ulaw subscriber sees a rewritten Control (tier codec, derived
	// epoch) and half-size payloads carrying the same seq and deadline.
	ul := sent["10.0.0.5:5004"]
	if len(ul) != 3 {
		t.Fatalf("ulaw subscriber sent %d packets, want 3", len(ul))
	}
	ctl, err := proto.UnmarshalControl(ul[0])
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Codec != "ulaw" || ctl.Epoch == 1 {
		t.Fatalf("rewritten control = codec %q epoch %d, want ulaw with a derived epoch", ctl.Codec, ctl.Epoch)
	}
	d, err := proto.UnmarshalData(ul[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != payload/2 {
		t.Fatalf("ulaw payload = %d bytes, want 2:1 %d", len(d.Payload), payload/2)
	}
	if d.Epoch != ctl.Epoch || d.Seq != 1 || d.PlayAt != srcData.PlayAt-1000+1000 {
		t.Fatalf("ulaw data = %+v, want control epoch %d seq/deadline preserved", d, ctl.Epoch)
	}

	// Both ulaw subscribers share the one encoded buffer.
	ul2 := sent["10.0.0.6:5004"]
	if &ul2[1][0] != &ul[1][0] {
		t.Fatal("ulaw subscribers got different encodings of one packet")
	}
}

func TestLadderDowngradeAndRecovery(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{
		QueueLen:        4,
		Ladder:          true,
		SweepInterval:   100 * time.Millisecond,
		LadderDwell:     300 * time.Millisecond,
		LadderDownDrops: 4,
	})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Profile: uint8(codec.ProfileULaw)}, time.Hour) {
		t.Fatal("subscribe failed")
	}

	profile := func() codec.Profile { return r.Subscribers()[0].Profile }
	burst := func(epoch uint32) {
		// No shard worker is draining: 20 packets against QueueLen 4
		// are guaranteed drops, the ladder's downgrade signal.
		for i := 0; i < 20; i++ {
			r.fanout(0, dataPkt(t, 0, epoch, uint64(i), 100))
		}
	}

	var afterFirst, afterSecond, recovered codec.Profile
	var st Stats
	var pressAtBottom uint8
	sim.Go("sweep", r.sweep)
	sim.Go("test", func() {
		r.fanout(0, controlPkt(t, 0, 1))
		burst(1)
		sim.Sleep(150 * time.Millisecond) // one sweep
		afterFirst = profile()
		burst(1)
		sim.Sleep(150 * time.Millisecond) // one more sweep
		afterSecond = profile()
		pressAtBottom = r.Pressure()
		// Quiet period: no drops for well past the dwell. Two upgrade
		// steps bring the subscriber back to its requested tier.
		sim.Sleep(900 * time.Millisecond)
		recovered = profile()
		st = r.Stats()
		r.Stop()
	})
	sim.WaitIdle()

	// One tier per sweep, not a cliff: ulaw -> ovl-high -> ovl-low.
	if afterFirst != codec.ProfileOVLHigh {
		t.Fatalf("after first congested sweep profile = %v, want one-tier step to ovl-high", afterFirst)
	}
	if afterSecond != codec.ProfileOVLLow {
		t.Fatalf("after second congested sweep profile = %v, want ovl-low", afterSecond)
	}
	if pressAtBottom == 0 {
		t.Fatal("pressure = 0 with a ladder-degraded subscriber")
	}
	if recovered != codec.ProfileULaw {
		t.Fatalf("after quiet dwell profile = %v, want requested ulaw", recovered)
	}
	if st.LadderDown != 2 || st.LadderUp != 2 {
		t.Fatalf("ladder stats = down %d / up %d, want 2/2 (stats %+v)", st.LadderDown, st.LadderUp, st)
	}
}

func TestSubAckCarriesGrantedProfile(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{})
	sub, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	var acks []*proto.SubAck
	sim.Go("relay", r.Run)
	sim.Go("subscriber", func() {
		defer sub.Close()
		for i, profile := range []uint8{uint8(codec.ProfileOVLHigh), 200} {
			data, _ := (&proto.Subscribe{Seq: uint32(i + 1), LeaseMs: 5000, Profile: profile}).Marshal()
			if err := sub.Send(r.Addr(), data); err != nil {
				t.Error(err)
				return
			}
			pkt, err := sub.Recv(2 * time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			ack, err := proto.UnmarshalSubAck(pkt.Data)
			if err != nil {
				t.Error(err)
				return
			}
			acks = append(acks, ack)
		}
		r.Stop()
	})
	sim.WaitIdle()
	if len(acks) != 2 {
		t.Fatalf("acks = %d, want 2", len(acks))
	}
	if acks[0].Status != proto.SubOK || acks[0].Profile != uint8(codec.ProfileOVLHigh) {
		t.Fatalf("ack 1 = %+v, want granted ovl-high", acks[0])
	}
	// An unknown profile byte (a newer ladder than this relay) maps to
	// source passthrough rather than a refusal.
	if acks[1].Status != proto.SubOK || acks[1].Profile != uint8(codec.ProfileSource) {
		t.Fatalf("ack 2 = %+v, want granted source for unknown request", acks[1])
	}
}

// TestTierShedRedirectsLadderFloorSubscriber: with Config.ShedTier, a
// subscriber the ladder has already pushed to the bottom rung is
// answered at its next refresh with a redirect to a less-loaded
// sibling — and with no eligible sibling it keeps being served; the
// relay never sheds into the void.
func TestTierShedRedirectsLadderFloorSubscriber(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{
		QueueLen:        4,
		Ladder:          true,
		ShedTier:        true,
		SweepInterval:   100 * time.Millisecond,
		LadderDwell:     time.Hour,
		LadderDownDrops: 4,
	})
	// Two subscribers one rung above the floor: a single congested
	// sweep lands both on ovl-low and marks them for steering.
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Profile: uint8(codec.ProfileOVLHigh)}, time.Hour) ||
		!r.subscribe("10.0.0.3:5004", &proto.Subscribe{Profile: uint8(codec.ProfileOVLHigh)}, time.Hour) {
		t.Fatal("subscribe failed")
	}
	sub3, err := seg.Attach("10.0.0.3:5004")
	if err != nil {
		t.Fatal(err)
	}

	var floor codec.Profile
	var noSibStats, shedStats Stats
	var nsubs int
	var ack *proto.SubAck
	sim.Go("sweep", r.sweep)
	sim.Go("test", func() {
		defer sub3.Close()
		r.fanout(0, controlPkt(t, 0, 1))
		// No shard worker is draining: 20 packets against QueueLen 4
		// are guaranteed drops, the ladder's downgrade signal.
		for i := 0; i < 20; i++ {
			r.fanout(0, dataPkt(t, 0, 1, uint64(i), 100))
		}
		sim.Sleep(150 * time.Millisecond) // one sweep
		floor = r.Subscribers()[0].Profile
		// No sibling list installed: the floor-rung refresh is served
		// normally, not redirected.
		r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 2, 10000))
		noSibStats = r.Stats()
		r.SetSiblings(func() []proto.RelayInfo {
			return []proto.RelayInfo{
				{Addr: "10.0.0.8:5006", Group: string(testGroup), HasLoad: true, Subs: 40},
				{Addr: "10.0.0.9:5006", Group: string(testGroup), HasLoad: true, Subs: 2},
				{Addr: string(r.Addr()), Group: string(testGroup)}, // self: never a steer target
			}
		})
		// The second floor-rung subscriber refreshes over the wire so
		// the redirect ack is observable.
		data, err := (&proto.Subscribe{Channel: 0, Seq: 2, LeaseMs: 10000}).Marshal()
		if err != nil {
			t.Error(err)
			return
		}
		if err := sub3.Send(r.Addr(), data); err != nil {
			t.Error(err)
			return
		}
		if pkt, err := r.conn.Recv(time.Second); err == nil {
			r.handlePacket(pkt)
		}
		apkt, err := sub3.Recv(time.Second)
		if err != nil {
			t.Errorf("no ack: %v", err)
		} else if ack, err = proto.UnmarshalSubAck(apkt.Data); err != nil {
			t.Errorf("bad ack: %v", err)
		}
		shedStats = r.Stats()
		nsubs = r.NumSubscribers()
		r.Stop()
	})
	sim.WaitIdle()

	if floor != codec.ProfileOVLLow {
		t.Fatalf("profile after congested sweep = %v, want the ovl-low floor", floor)
	}
	if noSibStats.TierSheds != 0 || noSibStats.Refreshes != 1 {
		t.Fatalf("no-sibling refresh stats = %+v, want served with 0 tier sheds", noSibStats)
	}
	if ack == nil || ack.Status != proto.SubRedirect || ack.Redirect != "10.0.0.9:5006" || ack.LeaseMs != 0 {
		t.Fatalf("ack = %+v, want a zero-lease redirect to the least-loaded sibling", ack)
	}
	if shedStats.TierSheds != 1 {
		t.Fatalf("TierSheds = %d, want 1", shedStats.TierSheds)
	}
	if nsubs != 1 {
		t.Fatalf("subscribers = %d after tier shed, want 1", nsubs)
	}
}
