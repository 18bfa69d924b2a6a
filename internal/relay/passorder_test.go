package relay

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// batchLog is a relay socket that records the destinations of every
// WriteBatch of stream packets, in the order written, and passes the
// batch on to the socket it wraps.
type batchLog struct {
	lan.Conn
	mu      sync.Mutex
	batches [][]lan.Addr
}

func (c *batchLog) WriteBatch(dgs []lan.Datagram) (int, error) {
	if typ, _, err := proto.PeekType(dgs[0].Data); err == nil && (typ == proto.TypeControl || typ == proto.TypeData) {
		to := make([]lan.Addr, len(dgs))
		for i, d := range dgs {
			to[i] = d.To
		}
		c.mu.Lock()
		c.batches = append(c.batches, to)
		c.mu.Unlock()
	}
	return lan.WriteBatch(c.Conn, dgs)
}

// take returns the batches recorded so far and forgets them.
func (c *batchLog) take() [][]lan.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.batches
	c.batches = nil
	return b
}

// hopsPkt builds a Subscribe from addr claiming hops relays behind it
// (LeaseMs 0 cancels).
func hopsPkt(t *testing.T, from lan.Addr, hops uint8, leaseMs uint32) lan.Packet {
	t.Helper()
	data, err := (&proto.Subscribe{Seq: 1, LeaseMs: leaseMs, Hops: hops}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return lan.Packet{From: from, To: "10.0.0.1:5006", Data: data}
}

// fanOutOrder returns sh's fan-out order and its lead.
func fanOutOrder(sh *shard) ([]lan.Addr, int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]lan.Addr, len(sh.order))
	for i, sub := range sh.order {
		out[i] = sub.addr
	}
	return out, sh.lead
}

// TestChainedLesseeLeadsShard: a downstream relay (Hops ≥ 1) that joins
// after ten speakers is first in its shard's pass — its copy leaves in
// a WriteBatch of its own, written by Inject before any shard worker is
// woken; a refresh to Hops 0 puts it back among the speakers at its join
// position, and a cancel or an expiry keeps the lead count exact.
func TestChainedLesseeLeadsShard(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	log := &batchLog{Conn: conn}
	r, err := New(sim, log, Config{Group: testGroup, Shards: 1, Batch: 4, SweepInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sh := r.shards[0]
	const relayB, relayC = lan.Addr("10.0.2.1:5006"), lan.Addr("10.0.2.2:5006")
	var speakers []lan.Addr
	for i := 1; i <= 10; i++ {
		speakers = append(speakers, lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)))
		r.handleRequest(hopsPkt(t, speakers[i-1], 0, 60_000))
	}
	r.handleRequest(hopsPkt(t, relayB, 1, 60_000))

	expect := func(step string, want []lan.Addr, lead int) {
		t.Helper()
		if got, gotLead := fanOutOrder(sh); !slices.Equal(got, want) || gotLead != lead {
			t.Errorf("%s: order %v lead %d, want %v lead %d", step, got, gotLead, want, lead)
		}
	}
	expect("joined", append([]lan.Addr{relayB}, speakers...), 1)

	var seq uint64
	// pass injects the next packet and returns every stream batch it
	// took, concatenated, the first batch's first destination, and the
	// first batch written, which Inject writes itself when a chained
	// lessee is owed the packet: the workers are woken after it.
	pass := func() (all []lan.Addr, first lan.Addr, lead []lan.Addr) {
		log.take()
		seq++
		dp, err := (&proto.Data{Channel: 1, Epoch: 1, Seq: seq, Payload: []byte{9}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r.Inject(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: dp})
		batches := log.take()
		if len(batches) > 0 {
			lead = batches[0]
		}
		sim.Sleep(time.Millisecond)
		for _, b := range append(batches, log.take()...) {
			all = append(all, b...)
		}
		if len(all) > 0 {
			first = all[0]
		}
		return all, first, lead
	}
	sim.Go("relay", r.Run)
	sim.Go("test", func() {
		defer r.Stop()
		sim.Sleep(time.Millisecond) // the workers park
		if all, first, lead := pass(); first != relayB || !slices.Equal(all, append([]lan.Addr{relayB}, speakers...)) {
			t.Errorf("pass with a chained lessee: first %s, sent %v; want %s first, then the speakers", first, all, relayB)
		} else if !slices.Equal(lead, []lan.Addr{relayB}) {
			t.Errorf("pass with a chained lessee: Inject wrote %v first, want the chained lessee alone", lead)
		}

		r.handleRequest(hopsPkt(t, relayB, 0, 60_000))
		sim.Sleep(time.Millisecond)
		expect("refreshed to Hops 0", append(slices.Clone(speakers), relayB), 0)
		if _, first, _ := pass(); first != speakers[0] {
			t.Errorf("after the refresh to Hops 0 the pass opens with %s, want %s", first, speakers[0])
		}

		r.handleRequest(hopsPkt(t, relayB, 2, 60_000))
		sim.Sleep(time.Millisecond)
		expect("refreshed to Hops 2", append([]lan.Addr{relayB}, speakers...), 1)
		if _, first, _ := pass(); first != relayB {
			t.Errorf("after the refresh to Hops 2 the pass opens with %s, want %s", first, relayB)
		}

		r.handleRequest(hopsPkt(t, relayB, 2, 0))
		sim.Sleep(time.Millisecond)
		expect("cancelled", speakers, 0)

		// relayB on the shortest lease, relayC on a long one: the sweep
		// expires relayB only.
		r.handleRequest(hopsPkt(t, relayB, 1, 1))
		r.handleRequest(hopsPkt(t, relayC, 1, 60_000))
		sim.Sleep(time.Millisecond)
		expect("two chained lessees", append([]lan.Addr{relayB, relayC}, speakers...), 2)
		if _, _, lead := pass(); !slices.Equal(lead, []lan.Addr{relayB, relayC}) {
			t.Errorf("two chained lessees: Inject wrote %v first, want both, alone", lead)
		}
		sim.Sleep(3 * time.Second)
		expect("one expired", append([]lan.Addr{relayC}, speakers...), 1)
		if _, first, lead := pass(); first != relayC || !slices.Equal(lead, []lan.Addr{relayC}) {
			t.Errorf("after the expiry the pass opens with %s in %v, want %s alone", first, lead, relayC)
		}
	})
	sim.WaitIdle()
}

// TestFanOutOrderProperty runs a seeded random schedule of subscribes,
// refreshes that flip the hop count across 0, cancels and expiries over
// eight shards, and after every step holds each shard's order to the
// reference: the chained lessees (hops > 0) first, exactly order[:lead],
// then the speakers, each group in join order.
func TestFanOutOrderProperty(t *testing.T) {
	const seed, steps = 31, 3000
	_, _, r := newTestRelay(t, Config{Shards: 8})
	rng := rand.New(rand.NewPCG(seed, seed))
	type lessee struct {
		addr lan.Addr
		hops uint8
	}
	var model []lessee // join order
	find := func(addr lan.Addr) int {
		return slices.IndexFunc(model, func(l lessee) bool { return l.addr == addr })
	}
	var addrs []lan.Addr
	for i := 0; i < 48; i++ {
		addrs = append(addrs, lan.Addr(fmt.Sprintf("10.0.%d.%d:5004", i/8, i%8+1)))
	}
	for step := 0; step < steps; step++ {
		addr := addrs[rng.IntN(len(addrs))]
		hops := uint8(rng.IntN(3)) // 0: a speaker; 1, 2: a downstream relay
		op := "subscribe"
		switch i := find(addr); {
		case i < 0:
			r.handleRequest(hopsPkt(t, addr, hops, 3_600_000))
			model = append(model, lessee{addr, hops})
		case rng.IntN(4) == 0:
			op = "cancel"
			r.handleRequest(hopsPkt(t, addr, hops, 0))
			model = slices.Delete(model, i, i+1)
		case rng.IntN(4) == 0:
			op = "expire"
			r.handleRequest(hopsPkt(t, addr, hops, 1)) // the shortest lease, then a sweep past it
			r.sweepOnce(r.clock.Now().Add(10 * time.Second))
			model = slices.Delete(model, i, i+1)
		default:
			op = "refresh"
			r.handleRequest(hopsPkt(t, addr, hops, 3_600_000))
			model[i].hops = hops
		}
		for _, sh := range r.shards {
			var lead, rest []lan.Addr
			for _, l := range model {
				switch {
				case r.shardFor(l.addr) != sh:
				case l.hops > 0:
					lead = append(lead, l.addr)
				default:
					rest = append(rest, l.addr)
				}
			}
			got, gotLead := fanOutOrder(sh)
			if want := append(lead, rest...); !slices.Equal(got, want) || gotLead != len(lead) {
				t.Fatalf("seed %d step %d (%s %s hops %d): shard %d order %v lead %d, want %v lead %d",
					seed, step, op, addr, hops, sh.index, got, gotLead, want, len(lead))
			}
		}
	}
	if n := r.NumSubscribers(); n != len(model) {
		t.Fatalf("relay holds %d subscribers, the reference %d", n, len(model))
	}
}

// TestPassInterleavesShards: with more shard workers than CPUs (eight on
// one), one packet owed to every subscriber goes out batch by batch
// across the shards — a worker yields after each full batch, so no shard
// sends its whole pass while another has sent nothing.
//
// A yielding worker queues behind the others, and the first round is
// exact but for one thing the runtime does: every 61st scheduling takes
// the head of the global run queue first, where the yielded workers
// wait, so about one run in nine lets one shard's second batch out
// before the last shard's first. At most one can, so that is what is
// asserted, with no third batch before every shard's first.
func TestPassInterleavesShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, batchSize, batches = 8, 4, 4 // batches a shard's pass takes
	log := &batchLog{Conn: newRecordConn()}
	r, err := New(vclock.System, log, Config{Group: testGroup, Shards: shards, Batch: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	held := make([]int, shards)
	for i, full := 0, 0; full < shards; i++ {
		addr := lan.Addr(fmt.Sprintf("10.1.%d.%d:5004", i/250, i%250+1))
		if k := r.shardFor(addr).index; held[k] < batchSize*batches {
			if held[k]++; held[k] == batchSize*batches {
				full++
			}
			r.subscribe(addr, &proto.Subscribe{}, time.Hour)
		}
	}
	go r.Run()
	defer r.Stop()
	time.Sleep(20 * time.Millisecond) // the workers park, their shards at the head
	dp, err := (&proto.Data{Channel: 1, Epoch: 1, Seq: 1, Payload: []byte{9}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.handlePacket(lan.Packet{From: "10.0.0.9:5000", To: testGroup, Data: dp})
	var got [][]lan.Addr
	for deadline := time.Now().Add(5 * time.Second); len(got) < shards*batches; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches written, want %d", len(got), shards*batches)
		}
		got = append(got, log.take()...)
	}
	written := make([]int, shards) // batches written so far, by shard
	started, early := 0, 0         // shards that have written their first; second batches before that was all
	for _, b := range got {
		k := r.shardFor(b[0]).index
		if written[k]++; written[k] == 1 {
			started++
		} else if started < shards {
			early++
		}
	}
	if early > 1 {
		t.Fatalf("%d batches went out before every shard had written its first, want at most 1; shard of each batch: %v",
			early, shardSequence(r, got))
	}
}

// shardSequence renders the shard of each batch, in write order.
func shardSequence(r *Relay, batches [][]lan.Addr) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = r.shardFor(b[0]).index
	}
	return out
}

// holdConn is a recordConn whose WriteBatch blocks on the batch that
// carries Data seq hold: it closes entered and waits for release.
type holdConn struct {
	*recordConn
	hold             uint64
	entered, release chan struct{}
}

func (c *holdConn) WriteBatch(dgs []lan.Datagram) (int, error) {
	for _, d := range dgs {
		if typ, _, _ := proto.PeekType(d.Data); typ == proto.TypeData {
			if dp, err := proto.UnmarshalData(d.Data); err == nil && dp.Seq == c.hold {
				close(c.entered)
				<-c.release
				break
			}
		}
	}
	return c.recordConn.WriteBatch(dgs)
}

// TestFIFOAcrossTwoSenders: the shard worker has a lessee's packet k
// gathered and is blocked sending it when the lessee becomes a chained
// one and k+1 and k+2 arrive, so fanout's own send could overtake the
// worker's. The lessee still receives k, k+1, k+2 in order, once each:
// a subscriber's datagrams are in one unsent batch at a time.
func TestFIFOAcrossTwoSenders(t *testing.T) {
	const lessee = lan.Addr("10.0.2.1:5006")
	conn := &holdConn{recordConn: newRecordConn(), hold: 1, entered: make(chan struct{}), release: make(chan struct{})}
	r, err := New(vclock.System, conn, Config{Group: testGroup, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	defer r.Stop()
	inject := func(seq uint64) {
		r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(t, 1, 1, seq, 32)})
	}
	r.Inject(hopsPkt(t, lessee, 0, 60_000)) // a speaker: the worker serves it
	inject(1)
	select {
	case <-conn.entered: // the worker is in flush with packet 1
	case <-time.After(5 * time.Second):
		t.Fatal("packet 1 was never sent")
	}
	r.Inject(hopsPkt(t, lessee, 1, 60_000)) // now a chained lessee: fanout serves it too
	inject(2)
	inject(3)
	close(conn.release)
	seqs := func() []uint64 {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return slices.Clone(conn.seqs[lessee][1])
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if len(seqs()) >= 3 && r.Stats().FanoutSent >= 3 {
			break
		}
	}
	time.Sleep(5 * time.Millisecond) // room for a duplicate to show
	if got := seqs(); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("lessee received seqs %v, want [1 2 3]", got)
	}
	if st := r.Stats(); st.FanoutSent != 3 {
		t.Errorf("Stats counts %d sends, want 3", st.FanoutSent)
	}
}

// countConn is a relay socket that counts the stream datagrams written
// to it and keeps nothing.
type countConn struct {
	*recordConn
	sent atomic.Int64
}

func (c *countConn) WriteBatch(dgs []lan.Datagram) (int, error) {
	var n int64
	for _, d := range dgs {
		if typ, _, _ := proto.PeekType(d.Data); typ == proto.TypeData {
			n++
		}
	}
	c.sent.Add(n)
	return len(dgs), nil
}

// injectRig runs a relay on a countConn with 32 speakers and one more
// subscriber, a chained lessee or a 33rd speaker, and returns it with a
// function that injects one Data packet and waits until all 33 copies
// are written. With tiered, the speakers are spread over the
// source tier and the three others in turn, and the stream's Control
// goes first, so every packet is encoded for three tiers.
func injectRig(tb testing.TB, chained, tiered bool) (r *Relay, inject func(), stop func()) {
	tb.Helper()
	conn := &countConn{recordConn: newRecordConn()}
	r, err := New(vclock.System, conn, Config{Group: testGroup})
	if err != nil {
		tb.Fatal(err)
	}
	const speakers = 32
	for i := 1; i <= speakers; i++ {
		var p codec.Profile
		if tiered {
			p = codec.Profile(i % codec.NumProfiles)
		}
		r.subscribe(lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)), &proto.Subscribe{Profile: uint8(p)}, time.Hour)
	}
	var hops uint8
	if chained {
		hops = 1
	}
	r.subscribe("10.0.2.1:5006", &proto.Subscribe{Hops: hops}, time.Hour)
	if tiered {
		r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(tb, 1, 1)})
	}
	go r.Run()
	pkt := lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(tb, 1, 1, 1, 320)}
	var want int64
	return r, func() {
		want += speakers + 1
		r.Inject(pkt)
		for conn.sent.Load() < want {
			runtime.Gosched()
		}
	}, r.Stop
}

// TestInjectChainedAllocatesNothingMore: fanout's own send for a chained
// lessee reuses its shard's lead batch, so a packet costs the relay no
// more allocations with a downstream relay among its subscribers than
// with a speaker in its place.
func TestInjectChainedAllocatesNothingMore(t *testing.T) {
	perPacket := func(chained bool) float64 {
		_, inject, stop := injectRig(t, chained, false)
		defer stop()
		inject() // the workers start and park
		return testing.AllocsPerRun(500, inject)
	}
	speakers, chained := perPacket(false), perPacket(true)
	if chained > speakers {
		t.Errorf("a packet allocates %v times with a chained lessee, %v with 33 speakers; want no more", chained, speakers)
	}
	t.Logf("allocations per packet: 33 speakers %v, 32 speakers and a chained lessee %v", speakers, chained)
}

// BenchmarkInjectChained prices one packet through a relay whose 33
// subscribers include a chained lessee, from Inject until every copy is
// written: the append, the chained lessee's send from the injecting
// goroutine, and the shard workers' batches.
func BenchmarkInjectChained(b *testing.B) {
	benchInject(b, false)
}

// BenchmarkInjectTiered is BenchmarkInjectChained with the speakers
// spread over four tiers: the chained lessee's send, then three encodes
// on the injecting goroutine, then the shard workers' batches.
func BenchmarkInjectTiered(b *testing.B) {
	benchInject(b, true)
}

func benchInject(b *testing.B, tiered bool) {
	_, inject, stop := injectRig(b, true, tiered)
	defer stop()
	inject()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
}

// TestInjectTieredAllocatesNothingMore: the tier variants are written
// into the entry after it is published, so a packet through three tiers
// allocates no more than a packet through none plus the three encodes
// made on their own — the arrival entry holds its variants in place.
func TestInjectTieredAllocatesNothingMore(t *testing.T) {
	perPacket := func(tiered bool) (allocs, encodes float64) {
		r, inject, stop := injectRig(t, true, tiered)
		defer stop()
		inject() // the workers start and park
		allocs = testing.AllocsPerRun(200, inject)
		dp := dataPkt(t, 1, 1, 1, 320)
		encodes = testing.AllocsPerRun(200, func() {
			var out profilePayloads
			r.buildProfilePayloads(1, dp, &out)
		})
		return allocs, encodes
	}
	plain, _ := perPacket(false)
	tiered, encodes := perPacket(true)
	if tiered > plain+encodes {
		t.Errorf("a packet through three tiers allocates %v times, want at most %v (%v without tiers, %v for the encodes)",
			tiered, plain+encodes, plain, encodes)
	}
	t.Logf("allocations per packet: no tier %v, three tiers %v, the three encodes alone %v", plain, tiered, encodes)
}

// encodeLog is a relay socket that, once armed, records the first batch
// of Data packets written and the relay's transcode count at that
// moment, and passes every batch on.
type encodeLog struct {
	*recordConn
	r       *Relay
	armed   atomic.Bool
	written chan struct{} // closed once the armed batch is recorded
	first   []lan.Addr
	encodes int64
}

func (c *encodeLog) WriteBatch(dgs []lan.Datagram) (int, error) {
	if typ, _, _ := proto.PeekType(dgs[0].Data); typ == proto.TypeData && c.armed.CompareAndSwap(true, false) {
		c.encodes = c.r.Stats().TranscodeEncodes
		for _, d := range dgs {
			c.first = append(c.first, d.To)
		}
		close(c.written)
	}
	return c.recordConn.WriteBatch(dgs)
}

// TestLeadLeavesBeforeTierEncodes: a downstream relay leasing the source
// tier beside a µ-law and an ovl-low speaker. Its copy of a Data packet
// is the first stream batch written, alone, and it leaves before the
// relay has encoded the packet for either tier.
func TestLeadLeavesBeforeTierEncodes(t *testing.T) {
	const lessee = lan.Addr("10.0.2.1:5006")
	conn := &encodeLog{recordConn: newRecordConn(), written: make(chan struct{})}
	r, err := New(vclock.System, conn, Config{Group: testGroup, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn.r = r
	subs := map[lan.Addr]*proto.Subscribe{
		"10.0.1.1:5004": {Profile: uint8(codec.ProfileULaw)},
		"10.0.1.2:5004": {Profile: uint8(codec.ProfileOVLLow)},
		lessee:          {Hops: 1},
	}
	for addr, req := range subs {
		r.subscribe(addr, req, time.Hour)
	}
	go r.Run()
	defer r.Stop()
	r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(t, 1, 1)})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conn.mu.Lock()
		got := len(conn.pkts)
		conn.mu.Unlock()
		if got == len(subs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the Control reached %d of %d subscribers", got, len(subs))
		}
	}
	time.Sleep(20 * time.Millisecond) // the worker parks
	before := r.Stats().TranscodeEncodes
	conn.armed.Store(true)
	r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(t, 1, 1, 1, 320)})
	select {
	case <-conn.written:
	case <-time.After(5 * time.Second):
		t.Fatal("no Data batch was written")
	}
	if !slices.Equal(conn.first, []lan.Addr{lessee}) {
		t.Errorf("first Data batch went to %v, want the chained lessee alone", conn.first)
	}
	if conn.encodes != before {
		t.Errorf("%d tier encodes were made before the chained lessee's copy left, want none", conn.encodes-before)
	}
	if st := r.Stats(); st.TranscodeEncodes != before+2 {
		t.Errorf("%d encodes for the packet, want 2 (µ-law, ovl-low)", st.TranscodeEncodes-before)
	}
}
