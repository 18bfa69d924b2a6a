package relay

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/security"
	"repro/internal/vclock"
)

const testGroup = lan.Addr("239.72.5.1:5004")

// newTestRelay builds a relay on a fresh sim segment without starting
// Run — the white-box tests drive packet handling directly.
func newTestRelay(t *testing.T, cfg Config) (*vclock.Sim, *lan.Segment, *Relay) {
	t.Helper()
	return newTestRelayOn(t, lan.SegmentConfig{}, cfg)
}

// newTestRelayOn is newTestRelay on a segment of the caller's choosing:
// the flush-timing tests give it a latency, so that a packet's arrival
// on the simulated clock says when the relay sent it.
func newTestRelayOn(t *testing.T, segCfg lan.SegmentConfig, cfg Config) (*vclock.Sim, *lan.Segment, *Relay) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, segCfg)
	conn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Group = testGroup
	r, err := New(sim, conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, seg, r
}

// subscribePkt builds an inbound subscribe packet from addr.
func subscribePkt(t *testing.T, from lan.Addr, channel, seq, leaseMs uint32) lan.Packet {
	t.Helper()
	data, err := (&proto.Subscribe{Channel: channel, Seq: seq, LeaseMs: leaseMs}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return lan.Packet{From: from, To: "10.0.0.1:5006", Data: data}
}

// subscribe adds or refreshes one lease directly, around the control
// pipeline (no verification, no shedding, no lease clamping), through
// the same insert and refresh the pipeline uses; it reports false when
// the table is full. Tests use it to install precise table states —
// sub-MinLease expiries included — without going through a Subscribe
// packet.
func (r *Relay) subscribe(addr lan.Addr, req *proto.Subscribe, lease time.Duration) bool {
	now := r.clock.Now()
	sh := r.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sub, ok := sh.subs[addr]; ok {
		r.refresh(sh, sub, req, now.Add(lease), now)
		r.count(func(s *Stats) { s.Refreshes++ })
		return true
	}
	r.mu.Lock()
	full := r.nsubs >= r.cfg.MaxSubscribers
	if !full {
		r.nsubs++
		r.stats.Subscribes++
	}
	r.mu.Unlock()
	if !full {
		r.insert(sh, addr, req, now.Add(lease), now)
	}
	return !full
}

// drain plays shard worker by hand (the white-box tests run none):
// gather passes over every shard until one takes nothing, without
// flushing. It returns what each subscriber would have been sent, in
// order.
func drain(r *Relay) map[lan.Addr][][]byte {
	out := make(map[lan.Addr][][]byte)
	for _, sh := range r.shards {
		b := &batch{slots: make([][]byte, 4096)}
		sh.mu.Lock()
		for {
			if progress, _ := r.gather(sh, b); !progress {
				break
			}
		}
		settle(b)
		sh.mu.Unlock()
		for _, d := range b.dgs {
			out[d.To] = append(out[d.To], d.Data)
		}
	}
	return out
}

func TestRejectsNonMulticastGroup(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5006")
	if _, err := New(sim, conn, Config{Group: "10.0.0.9:5004"}); err == nil {
		t.Fatal("unicast group accepted")
	}
}

func TestSubscribeRefreshUnsubscribe(t *testing.T) {
	_, _, r := newTestRelay(t, Config{Channel: 1})

	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 1, 1, 10000))
	if n := r.NumSubscribers(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	// Refresh extends, not duplicates.
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 1, 2, 10000))
	if n := r.NumSubscribers(); n != 1 {
		t.Fatalf("after refresh subscribers = %d, want 1", n)
	}
	// Wildcard channel 0 is accepted by a channel-pinned relay.
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 10000))
	if n := r.NumSubscribers(); n != 2 {
		t.Fatalf("after wildcard subscribers = %d, want 2", n)
	}
	// Wrong channel is refused.
	r.handleRequest(subscribePkt(t, "10.0.0.4:5004", 9, 1, 10000))
	if n := r.NumSubscribers(); n != 2 {
		t.Fatalf("after foreign-channel subscribers = %d, want 2", n)
	}
	// Zero lease cancels.
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 1, 3, 0))
	if n := r.NumSubscribers(); n != 1 {
		t.Fatalf("after unsubscribe subscribers = %d, want 1", n)
	}
	st := r.Stats()
	if st.Subscribes != 2 || st.Refreshes != 1 || st.Unsubscribes != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSubscribeRetransmittedInOnePass: a Subscribe and its
// retransmission gathered into one admission pass (a lease client's
// retry after a relay stall does it) are one lease — the second is the
// refresh it would have been a pass later. Inserting both leaked a table
// slot and left an orphan in the shard's order whose expiry deleted the
// live entry's map key.
func TestSubscribeRetransmittedInOnePass(t *testing.T) {
	_, _, r := newTestRelay(t, Config{})
	r.admitBatch([]lan.Packet{
		subscribePkt(t, "10.0.0.2:5004", 0, 1, 10000),
		subscribePkt(t, "10.0.0.2:5004", 0, 2, 10000),
	})
	if n, subs := r.NumSubscribers(), r.Subscribers(); n != 1 || len(subs) != 1 {
		t.Fatalf("one address leased twice: count %d, table %+v", n, subs)
	}
	if st := r.Stats(); st.Subscribes != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v, want 1 subscribe and 1 refresh", st)
	}
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 3, 0))
	if n, subs := r.NumSubscribers(), r.Subscribers(); n != 0 || len(subs) != 0 {
		t.Fatalf("after the cancel: count %d, table %+v, want an empty table", n, subs)
	}
}

// TestOnePassAppliesInArrivalOrder: requests gathered into one pass act
// in the order they arrived — a cancel ends the lease the Subscribe
// ahead of it created a moment ago, and a Subscribe behind a cancel
// starts a new one. Applying cancels ahead of the pass's grants left
// [sub, cancel] holding a live lease. Each sequence runs on an open
// relay and under the identity scheme with rising trailer sequences;
// a cancel that arrives behind a newer sequence is a replay, and the
// lease stays.
func TestOnePassAppliesInArrivalOrder(t *testing.T) {
	const from = lan.Addr("10.0.0.2:5004")
	const sub, cancel = 10000, 0 // LeaseMs
	type step struct {
		leaseMs uint32
		seq     uint64 // identity-trailer sequence (ident runs only)
	}
	cases := []struct {
		name                  string
		steps                 []step
		identOnly             bool
		leases                int
		subs, unsubs, replays int64
		acks                  int
	}{
		{name: "sub,cancel", steps: []step{{sub, 1}, {cancel, 2}}, leases: 0, subs: 1, unsubs: 1, acks: 1},
		{name: "sub,cancel,sub", steps: []step{{sub, 1}, {cancel, 2}, {sub, 3}}, leases: 1, subs: 2, unsubs: 1, acks: 2},
		{name: "cancel,sub", steps: []step{{cancel, 1}, {sub, 2}}, leases: 1, subs: 1, acks: 1},
		{name: "sub(seq 5),cancel(seq 4)", steps: []step{{sub, 5}, {cancel, 4}}, identOnly: true,
			leases: 1, subs: 1, replays: 1, acks: 1},
	}
	for _, tc := range cases {
		for _, scheme := range []string{"none", "ident"} {
			if tc.identOnly && scheme != "ident" {
				continue
			}
			t.Run(tc.name+"/"+scheme, func(t *testing.T) {
				var cfg Config
				ring := security.NewKeyring([]byte("one-pass master"))
				if scheme == "ident" {
					cfg.Auth = ring.Relay()
				}
				sim, seg, r := newTestRelay(t, cfg)
				client, err := seg.Attach(from)
				if err != nil {
					t.Fatal(err)
				}
				pass := make([]lan.Packet, len(tc.steps))
				for i, st := range tc.steps {
					pass[i] = subscribePkt(t, from, 0, uint32(i+1), st.leaseMs)
					if scheme == "ident" {
						signer := security.NewIdentitySignerAt(ring.Credential(1), 1, string(from), st.seq-1)
						pass[i].Data = signer.Sign(pass[i].Data)
					}
				}
				acks := 0
				sim.Go("test", func() {
					defer client.Close()
					r.admitBatch(pass)
					for {
						if _, err := client.Recv(100 * time.Millisecond); err != nil {
							return
						}
						acks++
					}
				})
				sim.WaitIdle()
				if n, table := r.NumSubscribers(), r.Subscribers(); n != tc.leases || len(table) != tc.leases {
					t.Errorf("leases: count %d, table %+v, want %d", n, table, tc.leases)
				}
				st := r.Stats()
				if st.Subscribes != tc.subs || st.Unsubscribes != tc.unsubs || st.ReplayDropped != tc.replays ||
					st.Refreshes != 0 || st.AdmitBatches != 1 {
					t.Errorf("stats = %+v, want %d subscribes, %d unsubscribes, %d replay drops in one pass",
						st, tc.subs, tc.unsubs, tc.replays)
				}
				if acks != tc.acks {
					t.Errorf("acks sent = %d, want %d (cancels and replays are not answered)", acks, tc.acks)
				}
			})
		}
	}
}

func TestSubscriberTableCap(t *testing.T) {
	_, _, r := newTestRelay(t, Config{MaxSubscribers: 2})
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 1, 10000))
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 10000))
	r.handleRequest(subscribePkt(t, "10.0.0.4:5004", 0, 1, 10000))
	if n := r.NumSubscribers(); n != 2 {
		t.Fatalf("subscribers = %d, want 2 (capped)", n)
	}
	if st := r.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// A refresh of an existing subscriber still succeeds at the cap.
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 2, 10000))
	if st := r.Stats(); st.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", st.Refreshes)
	}
}

func TestLeaseClamping(t *testing.T) {
	_, _, r := newTestRelay(t, Config{MaxLease: 10 * time.Second})
	// Below MinLease rounds up; above MaxLease clamps down. The granted
	// value comes back in the expiry horizon.
	now := r.clock.Now()
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 1, 1)) // 1 ms
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 3_600_000))
	subs := r.Subscribers()
	if len(subs) != 2 {
		t.Fatalf("subscribers = %d", len(subs))
	}
	if d := subs[0].Expires.Sub(now); d != MinLease {
		t.Errorf("tiny lease granted %v, want %v", d, MinLease)
	}
	if d := subs[1].Expires.Sub(now); d != 10*time.Second {
		t.Errorf("huge lease granted %v, want %v", d, 10*time.Second)
	}
}

func TestFanoutDropOldest(t *testing.T) {
	_, _, r := newTestRelay(t, Config{QueueLen: 4})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 0}, time.Minute) {
		t.Fatal("subscribe failed")
	}
	// No worker is running: the cursor lags, then the clamp kicks in.
	for i := 0; i < 10; i++ {
		r.fanout(0, []byte{byte(i)})
	}
	subs := r.Subscribers()
	if len(subs) != 1 {
		t.Fatalf("subscribers = %d", len(subs))
	}
	if subs[0].Queued != 4 {
		t.Errorf("queued = %d, want 4", subs[0].Queued)
	}
	if subs[0].Dropped != 6 {
		t.Errorf("dropped = %d, want 6", subs[0].Dropped)
	}
	if st := r.Stats(); st.FanoutDropped != 6 {
		t.Errorf("stats dropped = %d, want 6", st.FanoutDropped)
	}
	// The survivors are the newest packets, oldest first.
	var got []byte
	for _, p := range drain(r)["10.0.0.2:5004"] {
		got = append(got, p[0])
	}
	if string(got) != string([]byte{6, 7, 8, 9}) {
		t.Errorf("queue = %v, want [6 7 8 9]", got)
	}
}

func TestShardingSpreadsSubscribers(t *testing.T) {
	_, _, r := newTestRelay(t, Config{Shards: 4})
	addrs := []lan.Addr{}
	for i := 0; i < 32; i++ {
		a := lan.Addr("10.0.1." + string(rune('0'+i/10)) + string(rune('0'+i%10)) + ":5004")
		addrs = append(addrs, a)
		if !r.subscribe(a, &proto.Subscribe{Channel: 0}, time.Minute) {
			t.Fatal("subscribe failed")
		}
	}
	nonEmpty := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		if len(sh.subs) > 0 {
			nonEmpty++
		}
		sh.mu.Unlock()
	}
	if nonEmpty < 2 {
		t.Fatalf("all %d subscribers hashed to %d shard(s)", len(addrs), nonEmpty)
	}
	if n := r.NumSubscribers(); n != 32 {
		t.Fatalf("subscribers = %d", n)
	}
}

func TestLeaseExpirySweep(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{SweepInterval: 500 * time.Millisecond})
	var midCount, endCount int
	var endStats Stats
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 1, 2000))
		r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 60000))
		// Queue something on the short-lease subscriber so expiry must
		// also free the queue.
		r.fanout(0, []byte{1, 2, 3})
		sim.Sleep(1 * time.Second)
		midCount = r.NumSubscribers()
		sim.Sleep(3 * time.Second)
		endCount = r.NumSubscribers()
		endStats = r.Stats()
		r.Stop()
	})
	sim.WaitIdle()
	if midCount != 2 {
		t.Fatalf("subscribers before expiry = %d, want 2", midCount)
	}
	if endCount != 1 {
		t.Fatalf("subscribers after expiry = %d, want 1", endCount)
	}
	if endStats.Expired != 1 {
		t.Fatalf("expired = %d, want 1 (stats %+v)", endStats.Expired, endStats)
	}
	subs := r.Subscribers()
	if len(subs) != 1 || subs[0].Addr != "10.0.0.3:5004" {
		t.Fatalf("survivor = %+v", subs)
	}
}

func TestSubAckReturnsGrantedLease(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{MaxLease: 10 * time.Second})
	sub, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	var ack *proto.SubAck
	sim.Go("relay", r.Run)
	sim.Go("subscriber", func() {
		defer sub.Close()
		data, _ := (&proto.Subscribe{Channel: 0, Seq: 7, LeaseMs: 3_600_000}).Marshal()
		if err := sub.Send(r.Addr(), data); err != nil {
			t.Error(err)
			return
		}
		pkt, err := sub.Recv(2 * time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		ack, _ = proto.UnmarshalSubAck(pkt.Data)
		r.Stop()
	})
	sim.WaitIdle()
	if ack == nil {
		t.Fatal("no suback")
	}
	if ack.Seq != 7 || ack.Status != proto.SubOK {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.LeaseMs != 10000 {
		t.Fatalf("granted lease = %d ms, want clamped 10000", ack.LeaseMs)
	}
}

func TestUnicastInjectionNotRelayed(t *testing.T) {
	// A data packet that did NOT arrive off the multicast group (e.g.
	// forged and sent straight to the relay's unicast address) must not
	// be fanned out — that would be a one-in, N-out amplifier.
	_, _, r := newTestRelay(t, Config{Channel: 1})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 1}, time.Minute) {
		t.Fatal("subscribe failed")
	}
	data, err := (&proto.Data{Channel: 1, Epoch: 1, Seq: 1, Payload: []byte{1}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.handlePacket(lan.Packet{From: "10.0.0.66:1234", To: "10.0.0.1:5006", Data: data})
	if st := r.Stats(); st.UpstreamData != 0 || st.UpstreamForeign != 1 {
		t.Fatalf("injected packet counted as upstream: %+v", st)
	}
	if subs := r.Subscribers(); subs[0].Queued != 0 {
		t.Fatalf("injected packet queued for fan-out: %+v", subs[0])
	}
	// The same packet arriving off the group is relayed.
	r.handlePacket(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: data})
	if st := r.Stats(); st.UpstreamData != 1 {
		t.Fatalf("group packet not relayed: %+v", st)
	}
	if subs := r.Subscribers(); subs[0].Queued != 1 {
		t.Fatalf("group packet not queued: %+v", subs[0])
	}
}

// flushLatency is the flush-timing tests' segment latency: a packet the
// relay sends at t arrives at t + flushLatency on the simulated clock.
const flushLatency = 100 * time.Microsecond

// TestChainedFanInFromUpstreamAddressOnly checks the chained relay's
// fan-in gate: Control and Data are relayed from the address the
// upstream lease is held against and from nothing else — not from
// another port on the upstream's host (any process there could
// otherwise inject one packet and have it amplified to every
// subscriber), and, once a SubRedirect has moved the lease to a
// sibling, not from the relay it left.
func TestChainedFanInFromUpstreamAddressOnly(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conns := attachAll(t, seg, "10.0.0.1:5006", "10.0.0.1:7000", "10.0.0.5:5006",
		"10.0.0.2:5006", "10.0.0.3:5004")
	up, neighbour, sibling, rconn, sub := conns[0], conns[1], conns[2], conns[3], conns[4]
	r, err := New(sim, rconn, Config{Upstream: up.LocalAddr(), UpstreamLease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// answer reads the relay's next upstream Subscribe on c and acks it.
	answer := func(c lan.Conn, ack proto.SubAck) bool {
		pkt, err := c.Recv(10 * time.Second)
		if err != nil {
			t.Errorf("%s: no subscribe from the relay: %v", c.LocalAddr(), err)
			return false
		}
		req, err := proto.UnmarshalSubscribe(pkt.Data)
		if err != nil {
			t.Errorf("%s: %v", c.LocalAddr(), err)
			return false
		}
		ack.Seq, ack.Channel = req.Seq, req.Channel
		data, _ := ack.Marshal()
		return c.Send(pkt.From, data) == nil
	}
	// inject sends one Data packet from c and reports whether the
	// subscriber received it.
	seq := uint64(0)
	inject := func(c lan.Conn) bool {
		seq++
		dp, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: seq, Payload: []byte{byte(seq)}}).Marshal()
		if err := c.Send(r.Addr(), dp); err != nil {
			t.Error(err)
		}
		pkt, err := sub.Recv(100 * time.Millisecond)
		if err != nil {
			return false
		}
		d, err := proto.UnmarshalData(pkt.Data)
		return err == nil && d.Seq == seq
	}
	type step struct {
		from    lan.Conn
		relayed bool
	}
	var got []step
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer r.Stop()
		if !answer(up, proto.SubAck{Status: proto.SubOK, LeaseMs: 2000}) {
			return
		}
		req, _ := (&proto.Subscribe{Seq: 1, LeaseMs: 60000}).Marshal()
		if err := sub.Send(r.Addr(), req); err != nil {
			t.Error(err)
			return
		}
		if _, err := sub.Recv(time.Second); err != nil {
			t.Errorf("no suback: %v", err)
			return
		}
		got = append(got, step{neighbour, inject(neighbour)}, step{up, inject(up)})
		// The next refresh is shed to the sibling; the lease follows.
		if !answer(up, proto.SubAck{Status: proto.SubRedirect, Redirect: string(sibling.LocalAddr())}) ||
			!answer(sibling, proto.SubAck{Status: proto.SubOK, LeaseMs: 2000}) {
			return
		}
		got = append(got, step{up, inject(up)}, step{sibling, inject(sibling)})
	})
	sim.WaitIdle()
	want := []step{{neighbour, false}, {up, true}, {up, false}, {sibling, true}}
	if len(got) != len(want) {
		t.Fatalf("ran %d of %d steps", len(got), len(want))
	}
	for i, w := range want {
		if got[i].relayed != w.relayed {
			t.Errorf("step %d: data from %s relayed = %v, want %v", i, w.from.LocalAddr(), got[i].relayed, w.relayed)
		}
	}
	if st := r.Stats(); st.UpstreamForeign != 2 || st.UpstreamData != 2 || st.UpstreamRedirects != 1 {
		t.Errorf("foreign/data/redirects = %d/%d/%d, want 2/2/1", st.UpstreamForeign, st.UpstreamData, st.UpstreamRedirects)
	}
	if n := r.tracer.DropCount(obs.PathUpstream, obs.ReasonForeign); n != 2 {
		t.Errorf("traced %d foreign drops, want 2", n)
	}
}

// starvedReplayConfig is a one-shard DVR relay whose replays are paced at
// one packet a second: a time-shifted join's seed token buys its first
// recorded packet, and the next refill instant is up to a second away.
func starvedReplayConfig() Config {
	return Config{Channel: 1, DVR: true, DVRBurst: 1, Shards: 1, Batch: 8}
}

// attachAll attaches one endpoint per address.
func attachAll(t *testing.T, seg *lan.Segment, addrs ...lan.Addr) []lan.Conn {
	t.Helper()
	conns := make([]lan.Conn, len(addrs))
	for i, a := range addrs {
		c, err := seg.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

// recvStream returns the next stream packet c receives, skipping the
// SubAcks that answer its Subscribe on the same socket; it reports false,
// and the failure, when none comes within a second.
func recvStream(t *testing.T, c lan.Conn) (lan.Packet, bool) {
	t.Helper()
	for {
		pkt, err := c.Recv(time.Second)
		if err != nil {
			t.Errorf("%s: no stream packet: %v", c.LocalAddr(), err)
			return lan.Packet{}, false
		}
		if typ, _, err := proto.PeekType(pkt.Data); err == nil && (typ == proto.TypeControl || typ == proto.TypeData) {
			return pkt, true
		}
	}
}

func TestDrainedLiveBatchFlushedAtOnce(t *testing.T) {
	// Three packets against a batch size of 8: the pass that takes them
	// leaves the shard dry, so they leave as one batch at that instant.
	// No timer sits on a live packet's path.
	sim, seg, r := newTestRelayOn(t, lan.SegmentConfig{Latency: flushLatency}, Config{Batch: 8})
	sub := attachAll(t, seg, "10.0.0.2:5004")[0]
	var st Stats
	sim.Go("test", func() {
		defer sub.Close()
		defer r.Stop()
		sim.Sleep(7 * time.Millisecond)
		if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 0}, time.Minute) {
			t.Error("subscribe failed")
		}
		injected := sim.Now()
		r.fanout(0, []byte{1})
		r.fanout(0, []byte{2})
		r.fanout(0, []byte{3})
		// The workers start only now, so that all three wait behind the
		// cursor whenever the first pass runs.
		sim.Go("relay", r.Run)
		for want := byte(1); want <= 3; want++ {
			pkt, err := sub.Recv(time.Second)
			if err != nil {
				t.Errorf("packet %d: %v", want, err)
				return
			}
			if len(pkt.Data) != 1 || pkt.Data[0] != want {
				t.Errorf("packet %d carries %v", want, pkt.Data)
			}
			if at := pkt.Recv.Sub(injected); at != flushLatency {
				t.Errorf("packet %d arrived %v after injection, want the segment's %v", want, at, flushLatency)
			}
		}
		st = r.Stats()
	})
	sim.WaitIdle()
	if st.FanoutSent != 3 || st.Batches != 1 {
		t.Fatalf("want one batch carrying all 3: %+v", st)
	}
	if st.FlushQuiesce != 1 || st.FlushDeadline != 0 || st.FlushSize != 0 {
		t.Fatalf("want that batch flushed because the shard ran dry: %+v", st)
	}
}

func TestReplayOnlyBatchFlushedWhenDry(t *testing.T) {
	// A batch of replayed packets alone, with the replay's token bucket
	// empty, leaves the moment the pass runs dry, like any other batch: no
	// timer holds it for company, and no flush counts as a deadline flush.
	sim, seg, r := newTestRelayOn(t, lan.SegmentConfig{Latency: flushLatency}, starvedReplayConfig())
	sub := attachAll(t, seg, "10.0.0.2:5004")[0]
	var st Stats
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer sub.Close()
		defer r.Stop()
		feedStream(t, r, 1, 1)
		// The seed token buys the first recorded packet; the next is a
		// second away, so the pass after it goes dry at this instant.
		dry := sim.Now()
		r.Inject(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 1_000))
		pkt, ok := recvStream(t, sub)
		if !ok {
			return
		}
		if at := pkt.Recv.Sub(dry); at != flushLatency {
			t.Errorf("replay-only batch arrived %v after the join, want the segment's %v", at, flushLatency)
		}
		if want := controlPkt(t, 1, 1); !bytes.Equal(pkt.Data, want) {
			t.Errorf("replayed %x, want the recorded Control %x", pkt.Data, want)
		}
		st = r.Stats()
	})
	sim.WaitIdle()
	if st.FanoutSent != 1 || st.Batches != 1 || st.DVRBacklog != 1 {
		t.Fatalf("want one batch carrying the one replayed packet: %+v", st)
	}
	if st.FlushQuiesce != 1 || st.FlushDeadline != 0 || st.FlushSize != 0 {
		t.Fatalf("want that batch flushed because the shard ran dry: %+v", st)
	}
}

func TestLiveBesideReplayNotHeld(t *testing.T) {
	// One shard holds a token-starved replay and a live subscriber. The
	// replay's packets leave alone, each at the instant its token comes
	// due — nothing is parked to wait for company — and a live packet
	// arriving while the replay waits for its next token is sent at once.
	// Each subscriber's packets stay in order, and every payload is the
	// bytes that came in.
	sim, seg, r := newTestRelayOn(t, lan.SegmentConfig{Latency: flushLatency}, starvedReplayConfig())
	conns := attachAll(t, seg, "10.0.0.2:5004", "10.0.0.3:5004")
	replay, live := conns[0], conns[1]
	var st Stats
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer replay.Close()
		defer live.Close()
		defer r.Stop()
		feedStream(t, r, 1, 1) // recorded: a Control, then Data 1..10
		recorded := [][]byte{controlPkt(t, 1, 1), dataPkt(t, 1, 1, 1, 320)}
		// The seed token buys the replay's first packet at the join; the
		// stream took the relay's first second, so the next refill
		// instant, one quantum (a second) on, is two seconds from its
		// origin.
		due := []time.Time{sim.Now(), r.origin.Add(2 * time.Second)}
		r.Inject(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 1_000))
		r.Inject(subscribePkt(t, "10.0.0.3:5004", 1, 1, 60_000))
		// Round 0 comes just after the replay's first packet left, round 1
		// half a second after its second.
		for i, after := range []time.Duration{3 * time.Millisecond, 1500 * time.Millisecond} {
			data := dataPkt(t, 1, 1, uint64(11+i), 320)
			sim.Sleep(after)
			if got := r.Stats(); got.DVRBacklog != int64(i+1) || got.FanoutSent != int64(2*i+1) {
				t.Errorf("round %d: want the replay's packet %d sent, not parked: %+v", i, i+1, got)
			}
			injected := sim.Now()
			r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: data})
			for _, c := range []struct {
				name string
				conn lan.Conn
				want []byte
				sent time.Time
			}{{"live", live, data, injected}, {"replay", replay, recorded[i], due[i]}} {
				pkt, ok := recvStream(t, c.conn)
				if !ok {
					return
				}
				if at := pkt.Recv.Sub(c.sent); at != flushLatency {
					t.Errorf("round %d: %s subscriber's packet arrived %v after it was due, want %v",
						i, c.name, at, flushLatency)
				}
				if !bytes.Equal(pkt.Data, c.want) {
					t.Errorf("round %d: %s subscriber got %x, want %x", i, c.name, pkt.Data, c.want)
				}
			}
		}
		st = r.Stats()
	})
	sim.WaitIdle()
	if st.FanoutSent != 4 || st.Batches != 4 || st.DVRBacklog != 2 {
		t.Fatalf("want four batches of one packet each, two live and two replayed: %+v", st)
	}
	if st.FlushQuiesce != 4 || st.FlushDeadline != 0 || st.FlushSize != 0 {
		t.Fatalf("want every batch flushed because the shard ran dry: %+v", st)
	}
}

// simConn is a relay socket on the simulated segment that logs every
// WriteBatch carrying stream packets — its instant on the simulated
// clock and its size. With hold set, the first such write blocks on the
// simulated clock for that long before it sends, the way a full send
// buffer would. Acks pass straight through.
type simConn struct {
	lan.Conn
	sim  *vclock.Sim
	hold time.Duration // how long the next stream write stalls

	mu      sync.Mutex
	batches []loggedBatch
}

// loggedBatch is one stream WriteBatch a simConn saw.
type loggedBatch struct {
	at time.Time
	n  int
}

// logBatches puts a simConn in front of r's socket; r must not be running.
func logBatches(r *Relay, hold time.Duration) *simConn {
	c := &simConn{Conn: r.conn, sim: r.clock.(*vclock.Sim), hold: hold}
	r.conn = c
	return c
}

func (c *simConn) WriteBatch(dgs []lan.Datagram) (int, error) {
	if typ, _, _ := proto.PeekType(dgs[0].Data); typ == proto.TypeControl || typ == proto.TypeData {
		c.mu.Lock()
		c.batches = append(c.batches, loggedBatch{at: c.sim.Now(), n: len(dgs)})
		hold := c.hold
		c.hold = 0
		c.mu.Unlock()
		c.sim.Sleep(hold)
	}
	return lan.WriteBatch(c.Conn, dgs)
}

// logged returns the stream batches written so far.
func (c *simConn) logged() []loggedBatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.batches)
}

func TestStaggeredCohortSharesRefillInstants(t *testing.T) {
	// Eight subscribers join a time shift 1 ms apart, so their replays
	// start at eight phases. Once each has spent its seed token, every
	// replay batch carries one packet for each of the eight, and the
	// batches leave q = 1s/DVRBurst apart, on multiples of q from the
	// relay's origin: the buckets refill at instants the whole relay
	// shares, and the pass at each one finds the whole cohort due.
	const cohort, q = 8, 10 * time.Millisecond
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRBurst: 100, Shards: 1})
	log := logBatches(r, 0)
	var joined time.Time
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer r.Stop()
		feedStream(t, r, 1, 3)
		for i := 1; i <= cohort; i++ {
			r.Inject(shiftSubPkt(t, lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)), 1, 1, 60_000, 2_000))
			sim.Sleep(time.Millisecond)
		}
		joined = sim.Now()
		sim.Sleep(time.Second) // the backlog is two seconds of stream: 21 packets each
	})
	sim.WaitIdle()
	var sizes []int
	var prev time.Time
	off := 0 // batches of another size, or at another spacing
	for _, b := range log.logged() {
		if b.at.Before(joined) {
			continue // the seed tokens', one join at a time
		}
		if b.n != cohort || b.at.Sub(r.origin)%q != 0 || !prev.IsZero() && b.at.Sub(prev) != q {
			off++
		}
		sizes, prev = append(sizes, b.n), b.at
	}
	if off > 0 || len(sizes) < 15 {
		t.Errorf("%d of the %d replay batches after the joins are not %d packets on the relay's %v grid: sizes %v",
			off, len(sizes), cohort, q, sizes)
	}
}

func TestPartialBatchFlushedOnShutdown(t *testing.T) {
	// Three replays' first packets are gathered into one batch, and its
	// WriteBatch stalls the way a full send buffer does. Stop must wait
	// for that send to finish before any socket closes: nothing gathered
	// is lost at shutdown.
	const stall = 500 * time.Millisecond // short of the replays' next refill instant
	sim, seg, r := newTestRelay(t, starvedReplayConfig())
	sends := logBatches(r, stall)
	addrs := []lan.Addr{"10.0.0.2:5004", "10.0.0.3:5004", "10.0.0.4:5004"}
	subs := attachAll(t, seg, addrs...)
	var parked, st Stats
	var stalledAt, stopped time.Time
	got := make([]int, len(subs))
	sim.Go("test", func() {
		feedStream(t, r, 1, 1)
		for _, a := range addrs {
			r.Inject(shiftSubPkt(t, a, 1, 1, 60_000, 1_000))
		}
		// The workers start only now, so that their first pass gathers
		// all three seed packets.
		sim.Go("relay", r.Run)
		stalledAt = sim.Now()
		sim.Sleep(10 * time.Millisecond) // far short of the stall
		parked = r.Stats()
		r.Stop()
		stopped = sim.Now()
		st = r.Stats()
		sim.Sleep(10 * time.Millisecond) // let deliveries land
		for i, c := range subs {
			for {
				pkt, err := c.Recv(time.Millisecond)
				if err != nil {
					break
				}
				if typ, _, _ := proto.PeekType(pkt.Data); typ == proto.TypeControl {
					got[i]++
				}
			}
			c.Close()
		}
	})
	sim.WaitIdle()
	if b := sends.logged(); len(b) != 1 || b[0].n != 3 {
		t.Fatalf("want one stalled batch of the 3 seed packets, got %+v", b)
	}
	if parked.DVRBacklog != 3 || parked.Batches != 0 || parked.FanoutSent != 0 {
		t.Fatalf("before Stop: want 3 packets gathered and none sent: %+v", parked)
	}
	if waited := stopped.Sub(stalledAt); waited < stall {
		t.Fatalf("Stop returned %v into a %v stalled send", waited, stall)
	}
	if st.Batches != 1 || st.FlushQuiesce != 1 || st.FanoutSent != 3 || st.SendErrors != 0 {
		t.Fatalf("stalled flush missing or lossy: %+v", st)
	}
	for i, n := range got {
		if n != 1 {
			t.Fatalf("%s received %d of the 1 packet in flight for it at shutdown", addrs[i], n)
		}
	}
}

func TestSubscriberExpiringMidBatch(t *testing.T) {
	// The sweeper removes a subscriber while its packet sits in a
	// worker's batch, inside a WriteBatch that stalls. The flush must
	// still complete and the accounting stay consistent — a send to a
	// departed address is just a UDP datagram nobody reads.
	sim, _, r := newTestRelay(t, starvedReplayConfig())
	logBatches(r, 5*time.Second)
	var st Stats
	var subs int
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		feedStream(t, r, 1, 1)
		// The lease (clamped up to MinLease) runs out at 1s and is swept
		// by 2s; the stalled send returns at 5s.
		r.Inject(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 1, 1_000))
		sim.Sleep(4 * time.Second)
		if mid := r.Stats(); mid.Expired != 1 || mid.DVRBacklog != 1 || mid.Batches != 0 {
			t.Errorf("want the lease gone with its packet still in the stalled send: %+v", mid)
		}
		sim.Sleep(2 * time.Second)
		st = r.Stats()
		subs = r.NumSubscribers()
		r.Stop()
	})
	sim.WaitIdle()
	if st.Expired != 1 || subs != 0 {
		t.Fatalf("subscriber not expired: %d subs, stats %+v", subs, st)
	}
	if st.FanoutSent != 1 || st.Batches != 1 || st.FlushQuiesce != 1 || st.SendErrors != 0 {
		t.Fatalf("mid-batch expiry corrupted the flush: %+v", st)
	}
}

func TestFlushSkipsPoisonedDestination(t *testing.T) {
	// One subscriber whose sends always fail must cost only its own
	// packets: flush skips the failing datagram and retries the rest of
	// the batch, so subscribers ordered after it still get everything.
	sim, _, r := newTestRelay(t, Config{Shards: 1, Batch: 8})
	for _, a := range []lan.Addr{"10.0.0.2:5004", "bad-address", "10.0.0.3:5004"} {
		if !r.subscribe(a, &proto.Subscribe{Channel: 0}, time.Minute) {
			t.Fatalf("subscribe %s failed", a)
		}
	}
	var st Stats
	var subs []SubscriberInfo
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		r.fanout(0, []byte{1})
		r.fanout(0, []byte{2})
		sim.Sleep(50 * time.Millisecond)
		st = r.Stats()
		subs = r.Subscribers()
		r.Stop()
	})
	sim.WaitIdle()
	if st.FanoutSent != 4 || st.SendErrors != 2 {
		t.Fatalf("sent/errors = %d/%d, want 4/2 (stats %+v)", st.FanoutSent, st.SendErrors, st)
	}
	for _, s := range subs {
		want := int64(2)
		if s.Addr == "bad-address" {
			want = 0
		}
		if s.Sent != want {
			t.Fatalf("%s sent = %d, want %d (after poisoned peer)", s.Addr, s.Sent, want)
		}
	}
}

// TestDataLeavesFromListenAddress checks that every shard worker sends
// from the relay's one address: with eight shards, each subscriber's
// SubAck and its data come from r.Addr(), the address it leased at (the
// one a NAT pinhole opened by its Subscribe would match).
func TestDataLeavesFromListenAddress(t *testing.T) {
	const nsubs = 32 // enough that every one of the eight shards holds some
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(sim, conn, Config{Group: testGroup, Shards: 8, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]lan.Conn, nsubs)
	for i := range subs {
		if subs[i], err = seg.Attach(lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ackFrom := make([]lan.Addr, nsubs)
	dataFrom := make([]lan.Addr, nsubs)
	sim.Go("relay", r.Run)
	sim.Go("subscribers", func() {
		defer r.Stop()
		data, _ := (&proto.Subscribe{Channel: 0, Seq: 1, LeaseMs: 60000}).Marshal()
		for i, sub := range subs {
			if err := sub.Send(r.Addr(), data); err != nil {
				t.Error(err)
				return
			}
			pkt, err := sub.Recv(time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			ackFrom[i] = pkt.From
		}
		// Feed one data packet in off the group.
		dp, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: 1, Payload: []byte{9}}).Marshal()
		r.handlePacket(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: dp})
		for i, sub := range subs {
			pkt, err := sub.Recv(time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			dataFrom[i] = pkt.From
		}
	})
	sim.WaitIdle()
	used := make(map[int]bool)
	for _, sub := range subs {
		used[r.shardFor(sub.LocalAddr()).index] = true
	}
	if len(used) != 8 {
		t.Fatalf("subscribers landed on %d of 8 shards; the test needs every shard", len(used))
	}
	for i, sub := range subs {
		if ackFrom[i] != r.Addr() || dataFrom[i] != r.Addr() {
			t.Errorf("%s: suback from %q, data from %q; want both from %s",
				sub.LocalAddr(), ackFrom[i], dataFrom[i], r.Addr())
		}
	}
}

func TestFanoutFiltersByChannel(t *testing.T) {
	// Regression: a channel-0 relay carrying a multi-channel group used
	// to enqueue every packet to every subscriber regardless of the
	// channel it leased. A subscriber leased to channel X must receive
	// zero channel-Y packets; a wildcard (channel 0) subscriber gets
	// everything.
	_, _, r := newTestRelay(t, Config{})
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 1, 1, 10000))
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 2, 1, 10000))
	r.handleRequest(subscribePkt(t, "10.0.0.4:5004", 0, 1, 10000))
	for ch := uint32(1); ch <= 2; ch++ {
		data, err := (&proto.Data{Channel: ch, Epoch: 1, Seq: 1, Payload: []byte{byte(ch)}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r.handlePacket(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: data})
	}
	want := map[lan.Addr]int{"10.0.0.2:5004": 1, "10.0.0.3:5004": 1, "10.0.0.4:5004": 2}
	for _, s := range r.Subscribers() {
		if s.Queued != want[s.Addr] {
			t.Errorf("%s (channel %d) queued %d packets, want %d", s.Addr, s.Channel, s.Queued, want[s.Addr])
		}
	}
}

// subscribeLoopPkt builds an inbound subscribe carrying path fields.
func subscribeLoopPkt(t *testing.T, from lan.Addr, hops uint8, pathID uint64) lan.Packet {
	t.Helper()
	data, err := (&proto.Subscribe{Seq: 1, LeaseMs: 10000, Hops: hops, PathID: pathID}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return lan.Packet{From: from, To: "10.0.0.1:5006", Data: data}
}

func TestSubscribeLoopRefused(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{MaxHops: 4})
	sub, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	var acks []proto.SubStatus
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer sub.Close()
		send := func(hops uint8, pathID uint64) {
			data, _ := (&proto.Subscribe{Seq: 1, LeaseMs: 10000, Hops: hops, PathID: pathID}).Marshal()
			if err := sub.Send(r.Addr(), data); err != nil {
				t.Error(err)
				return
			}
			pkt, err := sub.Recv(time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			if ack, err := proto.UnmarshalSubAck(pkt.Data); err == nil {
				acks = append(acks, ack.Status)
			}
		}
		send(1, 12345)      // benign downstream relay: granted
		send(1, r.PathID()) // path revisits this relay: refused, lease dropped
		send(4, 54321)      // at the hop ceiling: refused
		r.Stop()
	})
	sim.WaitIdle()
	want := []proto.SubStatus{proto.SubOK, proto.SubLoop, proto.SubLoop}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("ack %d = %v, want %v (all %v)", i, acks[i], want[i], acks)
		}
	}
	// The SubLoop refusal of the refresh must also have dropped the
	// lease granted in the first exchange: an established loop is torn
	// down, not left to spin until expiry.
	if n := r.NumSubscribers(); n != 0 {
		t.Fatalf("subscribers after loop refusal = %d, want 0", n)
	}
	st := r.Stats()
	if st.Loops != 2 || st.Rejected != 2 {
		t.Fatalf("loop accounting = %+v", st)
	}
}

func TestMaxHopsClampedToWireLimit(t *testing.T) {
	// Propagated hop counts saturate at 255 on the wire; a configured
	// limit beyond that would never trip, silently disabling the loop
	// backstop. It must clamp, so a saturated path is still refused.
	_, _, r := newTestRelay(t, Config{MaxHops: 300})
	r.handlePacket(subscribeLoopPkt(t, "10.0.0.2:5004", 255, 777))
	if n := r.NumSubscribers(); n != 0 {
		t.Fatalf("saturated-hops subscribe granted under MaxHops=300 (subs %d)", n)
	}
	if st := r.Stats(); st.Loops != 1 {
		t.Fatalf("loop accounting = %+v", st)
	}
}

func TestReplayQuantumNeverZero(t *testing.T) {
	// refill counts replay tokens in quanta of 1s/DVRBurst, so a rate
	// above one a nanosecond would make the quantum zero and refill divide
	// by it. New clamps the rate there, and refill then works to the
	// nanosecond.
	for _, tc := range []struct{ burst, want int }{
		{0, DefaultDVRBurst},
		{250, 250},
		{int(time.Second), int(time.Second)},
		{int(time.Second) + 1, int(time.Second)},
		{math.MaxInt, int(time.Second)},
	} {
		if _, _, r := newTestRelay(t, Config{DVR: true, DVRBurst: tc.burst}); r.cfg.DVRBurst != tc.want {
			t.Errorf("DVRBurst %d: New kept %d, want %d", tc.burst, r.cfg.DVRBurst, tc.want)
		}
	}
	_, _, r := newTestRelay(t, Config{DVR: true, DVRBurst: math.MaxInt})
	sub := &subscriber{}
	if wait := r.refill(sub, r.origin); wait != 0 || sub.tokens != 1 {
		t.Fatalf("first refill: wait %v with %d tokens, want the seed token now", wait, sub.tokens)
	}
	sub.tokens--
	if wait := r.refill(sub, r.origin); wait != time.Nanosecond {
		t.Errorf("spent bucket: next token in %v, want 1ns", wait)
	}
	if wait := r.refill(sub, r.origin.Add(time.Microsecond)); wait != 0 || sub.tokens != 1000 {
		t.Errorf("a microsecond on: wait %v with %d tokens, want 1000 tokens now", wait, sub.tokens)
	}
}

func TestPathIDDistinctForIdenticalBindAddresses(t *testing.T) {
	// Regression: the path identity used to be a hash of the local bind
	// address, so two relayds on different hosts both bound to the
	// default "0.0.0.0:5006" shared one identity and a straight chain
	// between them refused itself as a loop. Identity must be unique
	// per instance even when the bind strings are identical.
	ids := make(map[uint64]bool)
	for i := 0; i < 4; i++ {
		sim := vclock.NewSim(time.Time{})
		seg := lan.NewSegment(sim, lan.SegmentConfig{})
		conn, err := seg.Attach("10.0.0.1:5006") // same string on every "host"
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(sim, conn, Config{Group: testGroup})
		if err != nil {
			t.Fatal(err)
		}
		if r.PathID() == 0 {
			t.Fatal("zero path id")
		}
		if ids[r.PathID()] {
			t.Fatalf("duplicate path id %d across instances with the same bind address", r.PathID())
		}
		ids[r.PathID()] = true
	}
}

func TestPathInfoPropagatesDeepestDownstream(t *testing.T) {
	_, _, r := newTestRelay(t, Config{})
	// Only speakers subscribed: the relay originates its own path.
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 1, 10000))
	if hops, pathID := r.pathInfo(); hops != 1 || pathID != r.PathID() {
		t.Fatalf("pathInfo with speakers only = (%d, %d), want (1, own id %d)", hops, pathID, r.PathID())
	}
	// A downstream relay two hops deep dominates.
	r.handlePacket(subscribeLoopPkt(t, "10.0.0.3:5004", 2, 777))
	if hops, pathID := r.pathInfo(); hops != 3 || pathID != 777 {
		t.Fatalf("pathInfo with downstream relay = (%d, %d), want (3, 777)", hops, pathID)
	}
}

func TestChainedRelayConfigValidation(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5006")
	if _, err := New(sim, conn, Config{Upstream: "10.0.0.2:5006", Group: testGroup}); err == nil {
		t.Fatal("both Group and Upstream accepted")
	}
	if _, err := New(sim, conn, Config{Upstream: testGroup}); err == nil {
		t.Fatal("multicast upstream accepted")
	}
	if _, err := New(sim, conn, Config{Upstream: "not-an-address"}); err == nil {
		t.Fatal("junk upstream accepted")
	}
	r, err := New(sim, conn, Config{Upstream: "10.0.0.2:5006", Channel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source() != "10.0.0.2:5006" || r.Upstream() != "10.0.0.2:5006" || r.Group() != "" {
		t.Fatalf("source/upstream/group = %q/%q/%q", r.Source(), r.Upstream(), r.Group())
	}
	info := r.Info()
	if info.Addr != "10.0.0.1:5006" || info.Group != "10.0.0.2:5006" || info.Channel != 3 {
		t.Fatalf("info = %+v", info)
	}
}

// TestAuthRelayDropsForgedSubscribeSilently is the amplification
// regression test: against an auth-enabled relay, a Subscribe forged
// from a spoofed source must create no forwarding state, draw no
// SubAck (a reply to an unverified source is exactly the reflection
// primitive the auth closes), receive zero fan-out packets, and tick
// es.relay.auth.dropped.
func TestAuthRelayDropsForgedSubscribeSilently(t *testing.T) {
	auth := security.NewHMAC([]byte("relay key"))
	sim, seg, r := newTestRelay(t, Config{Channel: 1, Auth: auth})
	victim, err := seg.Attach("10.0.0.66:5004")
	if err != nil {
		t.Fatal(err)
	}
	var victimPkts int
	sim.Go("relay", r.Run)
	sim.Go("victim", func() {
		for {
			if _, err := victim.Recv(0); err != nil {
				return
			}
			victimPkts++
		}
	})
	sim.Go("test", func() {
		// The forged subscribe, "from" the victim: unsigned, and signed
		// under the wrong key. Neither may create state or a reply.
		forged, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		r.Inject(lan.Packet{From: "10.0.0.66:5004", To: r.Addr(), Data: forged})
		wrong := security.NewHMAC([]byte("wrong key"))
		r.Inject(lan.Packet{From: "10.0.0.66:5004", To: r.Addr(), Data: wrong.Sign(forged)})
		if n := r.NumSubscribers(); n != 0 {
			t.Errorf("forged subscribe created %d lease(s)", n)
		}
		// Data off the group must fan out to nobody — the victim holds
		// no lease.
		data, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: 1, Payload: []byte{1}}).Marshal()
		r.Inject(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: data})
		sim.Sleep(100 * time.Millisecond)
		r.Stop()
		victim.Close()
	})
	sim.WaitIdle()
	if victimPkts != 0 {
		t.Fatalf("spoofed victim received %d packets, want 0 (amplification)", victimPkts)
	}
	st := r.Stats()
	if st.AuthDropped != 2 {
		t.Fatalf("auth dropped = %d, want 2 (stats %+v)", st.AuthDropped, st)
	}
	if st.FanoutSent != 0 {
		t.Fatalf("fanout sent = %d, want 0", st.FanoutSent)
	}
}

// TestAuthRelayGrantsSignedSubscribe: the legitimate path under auth —
// a properly signed Subscribe is granted, the SubAck comes back signed
// and verifies under the shared key, and the granted lease then
// receives fan-out (data packets themselves are forwarded unwrapped:
// the control plane, not the stream, is what creates state).
func TestAuthRelayGrantsSignedSubscribe(t *testing.T) {
	auth := security.NewHMAC([]byte("relay key"))
	sim, seg, r := newTestRelay(t, Config{Channel: 1, Auth: auth})
	sub, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	var ack *proto.SubAck
	var gotData bool
	sim.Go("relay", r.Run)
	sim.Go("subscriber", func() {
		defer sub.Close()
		req, _ := (&proto.Subscribe{Channel: 1, Seq: 7, LeaseMs: 10000}).Marshal()
		if err := sub.Send(r.Addr(), auth.Sign(req)); err != nil {
			t.Error(err)
			return
		}
		pkt, err := sub.Recv(2 * time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		inner, ok := auth.Verify(pkt.Data)
		if !ok {
			t.Errorf("suback not signed under the relay key")
			return
		}
		ack, _ = proto.UnmarshalSubAck(inner)
		data, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: 1, Payload: []byte{1}}).Marshal()
		r.Inject(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: data})
		if pkt, err := sub.Recv(2 * time.Second); err == nil {
			if d, err := proto.UnmarshalData(pkt.Data); err == nil && d.Channel == 1 {
				gotData = true
			}
		}
		r.Stop()
	})
	sim.WaitIdle()
	if ack == nil || ack.Seq != 7 || ack.Status != proto.SubOK || ack.LeaseMs == 0 {
		t.Fatalf("signed subscribe not granted: %+v", ack)
	}
	if !gotData {
		t.Fatal("granted signed subscriber received no fan-out")
	}
	if st := r.Stats(); st.AuthDropped != 0 || st.Subscribes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAuthChainedRelayLeasesUpstream: a 2-relay chain sharing one
// control-plane key — the downstream signs its upstream subscribes and
// verifies the signed grants, so the chain composes exactly as an
// unauthenticated one does.
func TestAuthChainedRelayLeasesUpstream(t *testing.T) {
	auth := security.NewHMAC([]byte("chain key"))
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	c1, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := seg.Attach("10.0.0.2:5006")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(sim, c1, Config{Group: testGroup, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(sim, c2, Config{Upstream: r1.Addr(), Auth: auth, UpstreamAuth: auth, UpstreamLease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("r1", r1.Run)
	sim.Go("r2", r2.Run)
	var st1, st2 Stats
	sim.Go("test", func() {
		sim.Sleep(5 * time.Second) // several refresh cycles
		st1, st2 = r1.Stats(), r2.Stats()
		r2.Stop()
		r1.Stop()
	})
	sim.WaitIdle()
	if st1.Subscribes != 1 || st1.AuthDropped != 0 {
		t.Fatalf("upstream relay stats = %+v, want one signed lease and no drops", st1)
	}
	if st2.UpstreamAcks == 0 || st2.UpstreamAuthDropped != 0 || st2.UpstreamRefused != 0 {
		t.Fatalf("downstream lease stats = %+v, want verified acks", st2)
	}
}

// TestShedRedirectsNewSubscribersOnly: past the subscriber threshold
// the relay answers a *new* Subscribe with SubRedirect naming the
// least-loaded sibling, while an established subscriber's refresh is
// still served. With no sibling source the relay admits normally —
// a redirect with nowhere to point is just a refusal.
func TestShedRedirectsNewSubscribersOnly(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{ShedSubscribers: 1})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 0}, time.Minute) {
		t.Fatal("seed subscribe failed")
	}
	// No siblings installed yet: threshold tripped, but the newcomer
	// must still be admitted.
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 10000))
	if n := r.NumSubscribers(); n != 2 {
		t.Fatalf("subscribers = %d, want 2 (no sibling, no shed)", n)
	}
	r.SetSiblings(func() []proto.RelayInfo {
		return []proto.RelayInfo{
			{Addr: "10.0.0.8:5006", Group: string(testGroup), HasLoad: true, Subs: 40},
			{Addr: "10.0.0.9:5006", Group: string(testGroup), HasLoad: true, Subs: 2},
			{Addr: string(r.Addr()), Group: string(testGroup)}, // self: never a steer target
		}
	})
	newcomer, err := seg.Attach("10.0.0.4:5004")
	if err != nil {
		t.Fatal(err)
	}
	var ack *proto.SubAck
	sim.Go("newcomer", func() {
		data, _ := (&proto.Subscribe{Channel: 0, Seq: 7, LeaseMs: 10000}).Marshal()
		newcomer.Send(r.Addr(), data)
		pkt, err := newcomer.Recv(time.Second)
		if err != nil {
			t.Errorf("no ack: %v", err)
			return
		}
		ack, err = proto.UnmarshalSubAck(pkt.Data)
		if err != nil {
			t.Errorf("bad ack: %v", err)
		}
		newcomer.Close()
	})
	sim.Go("relay-once", func() {
		pkt, err := r.conn.Recv(time.Second)
		if err == nil {
			r.handlePacket(pkt)
		}
	})
	sim.WaitIdle()
	if ack == nil || ack.Status != proto.SubRedirect || ack.Redirect != "10.0.0.9:5006" {
		t.Fatalf("ack = %+v, want redirect to the least-loaded sibling", ack)
	}
	if n := r.NumSubscribers(); n != 2 {
		t.Fatalf("subscribers = %d after shed, want 2", n)
	}
	// The established subscriber refreshes straight through the shed.
	r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 0, 2, 10000))
	st := r.Stats()
	if st.Redirects != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v, want 1 redirect and 1 refresh", st)
	}
}

// TestShedOnPressure: a pressure threshold sheds even below the
// subscriber-count threshold. Queue drops pin the pressure score to
// 255, so a relay that just shed packets steers newcomers away.
func TestShedOnPressure(t *testing.T) {
	_, _, r := newTestRelay(t, Config{ShedPressure: 200, QueueLen: 1, Shards: 1})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 0}, time.Minute) {
		t.Fatal("seed subscribe failed")
	}
	r.SetSiblings(func() []proto.RelayInfo {
		return []proto.RelayInfo{{Addr: "10.0.0.9:5006", Group: string(testGroup)}}
	})
	// Overflow the 1-deep queue: the second fanout drops a packet,
	// which pins the next pressure sample to maximum.
	r.fanout(0, []byte{1})
	r.fanout(0, []byte{2})
	r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 0, 1, 10000))
	st := r.Stats()
	if st.Redirects != 1 || r.NumSubscribers() != 1 {
		t.Fatalf("stats = %+v subs = %d, want the newcomer shed on pressure", st, r.NumSubscribers())
	}
}

// TestAdmitBatchMatchesPerPacketSemantics: one gather pass over a
// mixed batch — valid new subscribes, a refresh, a cancel, a forged
// request, junk bytes, and a loop — must land exactly the per-packet
// verdicts, in one admission batch.
func TestAdmitBatchMatchesPerPacketSemantics(t *testing.T) {
	auth := security.NewHMAC([]byte("batch key"))
	_, _, r := newTestRelay(t, Config{Auth: auth})
	if !r.subscribe("10.0.0.2:5004", &proto.Subscribe{Channel: 0}, time.Minute) {
		t.Fatal("seed subscribe failed")
	}
	signedSub := func(from lan.Addr, seq, leaseMs uint32, hops uint8, pathID uint64) lan.Packet {
		data, err := (&proto.Subscribe{Seq: seq, LeaseMs: leaseMs, Hops: hops, PathID: pathID}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return lan.Packet{From: from, To: r.Addr(), Data: auth.Sign(data)}
	}
	forged, _ := (&proto.Subscribe{Seq: 9, LeaseMs: 1000}).Marshal()
	batch := []lan.Packet{
		signedSub("10.0.0.3:5004", 1, 10000, 0, 0),                             // new
		signedSub("10.0.0.2:5004", 5, 10000, 0, 0),                             // refresh
		signedSub("10.0.0.4:5004", 1, 10000, 0, 0),                             // new
		{From: "10.0.0.5:5004", To: r.Addr(), Data: forged},                    // unsigned
		{From: "10.0.0.6:5004", To: r.Addr(), Data: auth.Sign([]byte("junk"))}, // malformed
		signedSub("10.0.0.7:5004", 1, 10000, 0, r.PathID()),                    // loop
	}
	r.admitBatch(batch)
	st := r.Stats()
	if st.Subscribes != 3 || st.Refreshes != 1 || st.AuthDropped != 1 ||
		st.Malformed != 1 || st.Loops != 1 || st.AdmitBatches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if n := r.NumSubscribers(); n != 3 {
		t.Fatalf("subscribers = %d, want 3", n)
	}
}

// TestIdentitySessionReplayWindow: under the per-subscriber identity
// scheme every verified control action consumes the trailer sequence,
// so replaying captured bytes from the true source is dropped, and a
// request signed by a different valid credential never touches the
// lease it names.
func TestIdentitySessionReplayWindow(t *testing.T) {
	ring := security.NewKeyring([]byte("relay test master"))
	_, _, r := newTestRelay(t, Config{Auth: ring.Relay()})

	signed := func(id uint32, from lan.Addr, seq, leaseMs uint32, seqBase uint64) lan.Packet {
		data, err := (&proto.Subscribe{Seq: seq, LeaseMs: leaseMs}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		s := security.NewIdentitySignerAt(ring.Credential(id), id, string(from), seqBase)
		return lan.Packet{From: from, To: r.Addr(), Data: s.Sign(data)}
	}

	// Identity 1 subscribes; the lease remembers who created it.
	join := signed(1, "10.0.0.2:5004", 1, 10000, 1)
	r.admitBatch([]lan.Packet{join})
	if n := r.NumSubscribers(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}

	// The exact captured join replayed from its own source: the tag
	// verifies but the session sequence is stale.
	r.admitBatch([]lan.Packet{join})
	if st := r.Stats(); st.ReplayDropped != 1 {
		t.Fatalf("stats after replay = %+v, want 1 replay drop", st)
	}

	// The same bytes from a different source fail the tag outright —
	// counted as an auth drop, not a replay.
	r.admitBatch([]lan.Packet{{From: "10.0.66.99:5004", To: r.Addr(), Data: join.Data}})
	if st := r.Stats(); st.AuthDropped != 1 || st.ReplayDropped != 1 {
		t.Fatalf("stats after spoofed source = %+v", st)
	}

	// Identity 2, validly credentialed, forges a cancel for identity
	// 1's lease from a spoofed source: verified, then refused at the
	// lease's identity check.
	r.admitBatch([]lan.Packet{signed(2, "10.0.0.2:5004", 3, 0, 100)})
	st := r.Stats()
	if st.IdentityMismatch != 1 || r.NumSubscribers() != 1 {
		t.Fatalf("stats after forged cancel = %+v subs = %d, want the lease intact", st, r.NumSubscribers())
	}

	// The holder's own fresh-sequence refresh and cancel both land.
	r.admitBatch([]lan.Packet{signed(1, "10.0.0.2:5004", 4, 10000, 50)})
	if st := r.Stats(); st.Refreshes != 1 {
		t.Fatalf("stats after refresh = %+v, want 1 refresh", st)
	}
	r.admitBatch([]lan.Packet{signed(1, "10.0.0.2:5004", 5, 0, 60)})
	if n := r.NumSubscribers(); n != 0 {
		t.Fatalf("subscribers = %d after holder's cancel, want 0", n)
	}
}
