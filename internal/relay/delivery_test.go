package relay

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// shiftSubPkt builds an inbound subscribe packet asking for ShiftMs of
// history.
func shiftSubPkt(t testing.TB, from lan.Addr, channel, seq, leaseMs, shiftMs uint32) lan.Packet {
	t.Helper()
	data, err := (&proto.Subscribe{
		Channel: channel, Seq: seq, LeaseMs: leaseMs, ShiftMs: shiftMs,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return lan.Packet{From: from, To: "10.0.0.1:5006", Data: data}
}

// feedStream injects seconds worth of upstream traffic — one Control
// per second, data at 100 ms spacing — through the relay's normal
// receive path, advancing the sim clock as it goes. Must run inside a
// sim goroutine.
func feedStream(t *testing.T, r *Relay, ch uint32, seconds int) {
	t.Helper()
	sim := r.clock
	seq := uint64(1)
	for s := 0; s < seconds; s++ {
		r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(t, ch, 1)})
		for i := 0; i < 10; i++ {
			r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(t, ch, 1, seq, 320)})
			seq++
			sim.Sleep(100 * time.Millisecond)
		}
	}
}

// gatherOnce runs one gather pass over addr's shard (no worker runs in
// white-box tests) into b, or into a fresh batch when b is nil, and
// returns how many packets the pass took and its refill hint. Must run
// inside a sim goroutine so token refills see time move.
func gatherOnce(r *Relay, addr lan.Addr, b *batch) (int, time.Duration) {
	if b == nil {
		b = &batch{slots: make([][]byte, 32)}
	}
	sh := r.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := len(b.dgs)
	_, wait := r.gather(sh, b)
	settle(b)
	return len(b.dgs) - before, wait
}

// settle releases a batch gathered by hand, as flush would once it had
// sent it, so the next gather may take its subscribers again. Caller
// holds the shard's lock.
func settle(b *batch) {
	for _, sub := range b.owners {
		sub.inflight = nil
	}
}

// drainCatchup gathers by hand until the subscriber converges on live
// or the pass budget runs out.
func drainCatchup(t *testing.T, r *Relay, addr lan.Addr, passes int) (served int) {
	t.Helper()
	sh := r.shardFor(addr)
	for i := 0; i < passes; i++ {
		n, _ := gatherOnce(r, addr, nil)
		served += n
		sh.mu.Lock()
		done := !sh.subs[addr].replay
		sh.mu.Unlock()
		if done {
			return served
		}
		r.clock.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("catch-up did not converge in %d passes (%d served)", passes, served)
	return served
}

// TestDVRShiftGrantAndClamp covers the grant-time edges: a shift asked
// of a channel with nothing recorded starts live and is counted as
// clamped; a shift deeper than the recorded history is clamped to the
// oldest entry; a shift the ring can satisfy is granted at least what
// was asked (the control walk-back may grant slightly more).
func TestDVRShiftGrantAndClamp(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRDepth: 4 * time.Second})
	sim.Go("test", func() {
		// Nothing recorded yet: live grant, clamp counted.
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 9_000))
		subs := r.Subscribers()
		if len(subs) != 1 || subs[0].Shift != 0 || subs[0].CatchingUp {
			t.Errorf("quiet-channel grant = %+v, want live with zero shift", subs)
		}
		if st := r.Stats(); st.DVRClamped != 1 {
			t.Errorf("DVRClamped = %d, want 1", st.DVRClamped)
		}

		feedStream(t, r, 1, 2) // 2 s recorded, depth 4 s

		// Deeper than what exists: clamped to the oldest entry.
		r.handleRequest(shiftSubPkt(t, "10.0.0.3:5004", 1, 1, 60_000, 60_000))
		subs = r.Subscribers()
		if len(subs) != 2 {
			t.Fatalf("subscribers = %d", len(subs))
		}
		deep := subs[1]
		if !deep.CatchingUp || deep.Shift <= 0 || deep.Shift > 4*time.Second {
			t.Errorf("deep shift granted %v catching-up=%v, want clamp within recorded history",
				deep.Shift, deep.CatchingUp)
		}
		if st := r.Stats(); st.DVRClamped != 2 {
			t.Errorf("DVRClamped = %d, want 2", st.DVRClamped)
		}

		// Satisfiable: granted at least the ask, no clamp.
		r.handleRequest(shiftSubPkt(t, "10.0.0.4:5004", 1, 1, 60_000, 1_000))
		subs = r.Subscribers()
		ok := subs[2]
		if !ok.CatchingUp || ok.Shift < time.Second {
			t.Errorf("1s shift granted %v catching-up=%v", ok.Shift, ok.CatchingUp)
		}
		if st := r.Stats(); st.DVRClamped != 2 {
			t.Errorf("DVRClamped = %d after satisfiable grant, want still 2", st.DVRClamped)
		}
		if st := r.Stats(); st.DVRCatchupActive != 2 {
			t.Errorf("DVRCatchupActive = %d, want 2", st.DVRCatchupActive)
		}
	})
	sim.WaitIdle()
}

// TestDVRRingWrapMidCatchupEvicts parks a catch-up cursor, lets the
// ring age past it, and checks the worker's response: the cursor is
// re-clamped to the oldest surviving entry (counted as an eviction),
// the remaining backlog is served, and the subscriber converges — the
// recording path is never blocked by a slow reader.
func TestDVRRingWrapMidCatchupEvicts(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRDepth: time.Second, DVRBurst: 1000})
	sim.Go("test", func() {
		// Half a second of history, then a catch-up cursor into it.
		r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(t, 1, 1)})
		for i := uint64(1); i <= 5; i++ {
			r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(t, 1, 1, i, 320)})
			sim.Sleep(100 * time.Millisecond)
		}
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 500))
		if subs := r.Subscribers(); len(subs) != 1 || !subs[0].CatchingUp {
			t.Fatalf("subscriber not catching up: %+v", subs)
		}

		// The subscriber reads nothing while the stream keeps going for
		// well past the 1 s depth: its cursor's entries age out.
		sim.Sleep(1500 * time.Millisecond)
		r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(t, 1, 1)})
		for i := uint64(6); i <= 10; i++ {
			r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(t, 1, 1, i, 320)})
		}

		served := drainCatchup(t, r, "10.0.0.2:5004", 100)
		st := r.Stats()
		if st.DVREvictions != 1 {
			t.Errorf("DVREvictions = %d, want 1", st.DVREvictions)
		}
		// Everything older than the depth was trimmed by the appends
		// above, so exactly the surviving control + 5 data remain.
		if served != 6 || st.DVRBacklog != 6 {
			t.Errorf("served = %d, DVRBacklog = %d, want 6 each", served, st.DVRBacklog)
		}
		if st.DVRCatchupActive != 0 {
			t.Errorf("DVRCatchupActive = %d after convergence, want 0", st.DVRCatchupActive)
		}
		if subs := r.Subscribers(); subs[0].CatchingUp {
			t.Error("subscriber still marked catching-up after convergence")
		}
	})
	sim.WaitIdle()
}

// TestDVRCatchupNeverBlocksWorker starves a catch-up subscriber's
// token bucket and checks the gather degrades to a bounded wait hint —
// not a block — while live fan-out to other subscribers on the shard
// keeps flowing.
func TestDVRCatchupNeverBlocksWorker(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRBurst: 1, Shards: 1, QueueLen: 16})
	sim.Go("test", func() {
		feedStream(t, r, 1, 1)
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 1_000))
		r.handleRequest(subscribePkt(t, "10.0.0.3:5004", 1, 1, 60_000))

		gather := func() (int, time.Duration) { return gatherOnce(r, "10.0.0.2:5004", nil) }
		// First pass spends the single seed token; the second must not
		// serve, must not block, and must hand back a refill delay.
		if n, _ := gather(); n != 1 {
			t.Fatalf("first pass served %d, want 1", n)
		}
		n, wait := gather()
		if n != 0 || wait <= 0 || wait > time.Second {
			t.Fatalf("starved pass served %d with wait %v, want 0 served and a bounded refill hint", n, wait)
		}

		// Live traffic still waits for the live subscriber alone: the
		// replay is not owed it until its cursor gets there.
		r.fanout(1, dataPkt(t, 1, 1, 100, 320))
		subs := r.Subscribers()
		var live, dvr SubscriberInfo
		for _, s := range subs {
			if s.Addr == "10.0.0.3:5004" {
				live = s
			} else {
				dvr = s
			}
		}
		if live.Queued != 1 {
			t.Errorf("live subscriber queued = %d, want 1", live.Queued)
		}
		if dvr.Queued != 0 {
			t.Errorf("catching-up subscriber queued = %d, want 0", dvr.Queued)
		}
	})
	sim.WaitIdle()
}

// TestDVRPauseAcrossLeaseRefresh pauses a catching-up subscriber,
// refreshes its lease while paused, and resumes: the pause must
// survive the refresh (no delivery restarts behind the listener's
// back), the refresh ack must echo the originally granted shift, and
// resume must pick the replay up where it parked.
func TestDVRPauseAcrossLeaseRefresh(t *testing.T) {
	sim, seg, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRDepth: 10 * time.Second})
	cc, err := seg.Attach("10.0.0.2:5004")
	if err != nil {
		t.Fatal(err)
	}
	recvAck := func() *proto.SubAck {
		t.Helper()
		pkt, err := cc.Recv(time.Second)
		if err != nil {
			t.Fatalf("no ack: %v", err)
		}
		ack, err := proto.UnmarshalSubAck(pkt.Data)
		if err != nil {
			t.Fatalf("bad ack: %v", err)
		}
		return ack
	}
	sim.Go("test", func() {
		defer cc.Close()
		feedStream(t, r, 1, 6)

		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 5_000))
		first := recvAck()
		if first.Status != proto.SubOK || first.ShiftMs < 5_000 {
			t.Errorf("grant ack = %+v, want OK with >= 5000 ms shift", first)
		}
		if st := r.Stats(); st.DVRClamped != 0 || st.DVRCatchupActive != 1 {
			t.Errorf("stats after grant = clamped %d active %d, want 0/1", st.DVRClamped, st.DVRCatchupActive)
		}

		pauseData, _ := (&proto.Pause{Channel: 1, Seq: 1, Paused: true}).Marshal()
		r.handlePacket(lan.Packet{From: "10.0.0.2:5004", To: "10.0.0.1:5006", Data: pauseData})
		if subs := r.Subscribers(); !subs[0].Paused {
			t.Fatalf("subscriber not paused: %+v", subs)
		}
		if st := r.Stats(); st.DVRCatchupActive != 0 {
			t.Errorf("DVRCatchupActive while paused = %d, want 0", st.DVRCatchupActive)
		}

		// Refresh mid-pause: lease extends, pause and shift survive.
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 2, 60_000, 5_000))
		refresh := recvAck()
		if refresh.ShiftMs != first.ShiftMs {
			t.Errorf("refresh ack shift = %d, want echo of granted %d", refresh.ShiftMs, first.ShiftMs)
		}
		subs := r.Subscribers()
		if !subs[0].Paused || !subs[0].CatchingUp {
			t.Errorf("after refresh paused=%v catching-up=%v, want both true", subs[0].Paused, subs[0].CatchingUp)
		}
		if st := r.Stats(); st.Refreshes != 1 {
			t.Errorf("refreshes = %d, want 1", st.Refreshes)
		}
		// Paused subscribers get nothing — not live, not backlog.
		r.fanout(1, dataPkt(t, 1, 1, 200, 320))
		if n, _ := gatherOnce(r, "10.0.0.2:5004", nil); n != 0 {
			t.Errorf("paused subscriber served %d backlog packets, want 0", n)
		}
		if subs := r.Subscribers(); subs[0].Queued != 0 {
			t.Errorf("paused subscriber queued = %d, want 0", subs[0].Queued)
		}

		resumeData, _ := (&proto.Pause{Channel: 1, Seq: 2, Paused: false}).Marshal()
		r.handlePacket(lan.Packet{From: "10.0.0.2:5004", To: "10.0.0.1:5006", Data: resumeData})
		if st := r.Stats(); st.DVRCatchupActive != 1 {
			t.Errorf("DVRCatchupActive after resume = %d, want 1", st.DVRCatchupActive)
		}
		served := drainCatchup(t, r, "10.0.0.2:5004", 400)
		if served == 0 {
			t.Error("resume replayed nothing; expected the parked backlog")
		}
	})
	sim.WaitIdle()
}

// TestDVRCatchupBatchBuffersDistinct: the shard worker's loop gathers
// repeatedly before one flush, so one replaying subscriber can have
// several backlog packets in the same un-flushed batch, and ring reads
// recycle the buffer they are given. Every entry gathered into one
// batch must keep its own payload — a buffer shared between two of them
// sends the subscriber the same backlog packet twice instead of two
// consecutive ones.
func TestDVRCatchupBatchBuffersDistinct(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRDepth: 10 * time.Second, DVRBurst: 1000})
	sim.Go("test", func() {
		feedStream(t, r, 1, 2)
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 2_000))

		// One un-flushed batch, gathered across several passes with time
		// moving in between — exactly the worker's inner loop while the
		// batch has room and tokens keep refilling.
		b := &batch{slots: make([][]byte, 32)}
		for pass := 0; pass < 4; pass++ {
			gatherOnce(r, "10.0.0.2:5004", b)
			sim.Sleep(20 * time.Millisecond)
		}
		dgs := b.dgs
		if len(dgs) < 3 {
			t.Fatalf("gathered %d backlog packets, want >= 3 to exercise reuse", len(dgs))
		}

		// No two batch entries may share a backing array...
		buffers := make(map[*byte]int)
		for i := range dgs {
			p := &dgs[i].Data[0]
			if j, dup := buffers[p]; dup {
				t.Fatalf("batch entries %d and %d alias one buffer", j, i)
			}
			buffers[p] = i
		}
		// ...and the payloads must be the recorded stream in order: one
		// Control (the decodable replay start), then strictly ascending
		// Data seqs. Aliased buffers would parse as duplicated seqs.
		var lastSeq uint64
		for i := range dgs {
			typ, _, err := proto.PeekType(dgs[i].Data)
			if err != nil {
				t.Fatalf("entry %d unparseable: %v", i, err)
			}
			if typ != proto.TypeData {
				continue
			}
			d, err := proto.UnmarshalData(dgs[i].Data)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			if d.Seq <= lastSeq {
				t.Fatalf("entry %d has seq %d after seq %d: backlog duplicated or reordered", i, d.Seq, lastSeq)
			}
			lastSeq = d.Seq
		}
	})
	sim.WaitIdle()
}

// TestPauseReplayAndWrongChannelIgnored covers the pause packet's
// freshness and addressing checks: a pause naming a channel the lease
// does not carry leaves it alone, a replayed (non-increasing seq)
// pause cannot re-park a subscriber that already resumed, and a
// wildcard-channel pause with a fresh seq still applies.
func TestPauseReplayAndWrongChannelIgnored(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRDepth: 10 * time.Second})
	pauseAt := func(ch, seq uint32, paused bool) {
		data, err := (&proto.Pause{Channel: ch, Seq: seq, Paused: paused}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r.handlePacket(lan.Packet{From: "10.0.0.2:5004", To: "10.0.0.1:5006", Data: data})
	}
	paused := func() bool {
		subs := r.Subscribers()
		if len(subs) != 1 {
			t.Fatalf("subscribers = %d, want 1", len(subs))
		}
		return subs[0].Paused
	}
	sim.Go("test", func() {
		feedStream(t, r, 1, 1)
		r.handleRequest(subscribePkt(t, "10.0.0.2:5004", 1, 1, 60_000))

		// Addressed to a channel this lease does not carry: ignored.
		pauseAt(9, 1, true)
		if paused() {
			t.Fatal("pause for channel 9 parked a channel-1 lease")
		}

		// Park, then resume, both with fresh seqs.
		pauseAt(1, 2, true)
		if !paused() {
			t.Fatal("genuine pause did not park the subscriber")
		}
		pauseAt(1, 3, false)
		if paused() {
			t.Fatal("genuine resume did not unpark the subscriber")
		}

		// An on-path recorder replaying the captured seq-2 pause — it
		// verifies, it was once genuine — must not re-park the stream.
		pauseAt(1, 2, true)
		if paused() {
			t.Fatal("replayed pause re-parked the subscriber")
		}

		// A wildcard-channel pause with a fresh seq still applies.
		pauseAt(0, 4, true)
		if !paused() {
			t.Fatal("wildcard-channel pause with a fresh seq was ignored")
		}
	})
	sim.WaitIdle()
}

// recordConn is the relay's socket in the delivery-invariant test: it
// keeps every stream packet the relay sends, per destination, and can
// be stalled so a flush blocks the way a full socket buffer does.
type recordConn struct {
	done chan struct{}

	mu     sync.Mutex
	gate   chan struct{}                    // non-nil while stalled; closed to release
	pkts   map[lan.Addr]map[uint32]int      // stream packets received, by channel
	seqs   map[lan.Addr]map[uint32][]uint64 // Data seqs in arrival order, by channel
	epochs map[lan.Addr]map[uint32]int      // Data packets received, by epoch
}

func newRecordConn() *recordConn {
	return &recordConn{
		done:   make(chan struct{}),
		pkts:   make(map[lan.Addr]map[uint32]int),
		seqs:   make(map[lan.Addr]map[uint32][]uint64),
		epochs: make(map[lan.Addr]map[uint32]int),
	}
}

func (c *recordConn) LocalAddr() lan.Addr  { return "10.0.0.1:5006" }
func (c *recordConn) Join(lan.Addr) error  { return nil }
func (c *recordConn) Leave(lan.Addr) error { return nil }
func (c *recordConn) Close() error {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return nil
}

func (c *recordConn) Recv(time.Duration) (lan.Packet, error) {
	<-c.done
	return lan.Packet{}, lan.ErrClosed
}

func (c *recordConn) Send(to lan.Addr, data []byte) error {
	_, err := c.WriteBatch([]lan.Datagram{{To: to, Data: data}})
	return err
}

func (c *recordConn) WriteBatch(dgs []lan.Datagram) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range dgs {
		typ, ch, err := proto.PeekType(d.Data)
		if err != nil || (typ != proto.TypeControl && typ != proto.TypeData) {
			continue // SubAcks ride the same socket
		}
		if c.pkts[d.To] == nil {
			c.pkts[d.To] = make(map[uint32]int)
			c.seqs[d.To] = make(map[uint32][]uint64)
			c.epochs[d.To] = make(map[uint32]int)
		}
		c.pkts[d.To][ch]++
		if typ == proto.TypeData {
			dp, err := proto.UnmarshalData(d.Data)
			if err != nil {
				return 0, err
			}
			c.seqs[d.To][ch] = append(c.seqs[d.To][ch], dp.Seq)
			c.epochs[d.To][dp.Epoch]++
		}
	}
	return len(dgs), nil
}

// stall blocks every WriteBatch until the returned release is called.
func (c *recordConn) stall() (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.gate = nil
		c.mu.Unlock()
		close(gate)
	}
}

// deliveryRig is one relay under the invariant test: a two-channel
// group, a recording socket, and concurrent injectors.
type deliveryRig struct {
	t    *testing.T
	r    *Relay
	conn *recordConn
	sent map[uint32]int // stream packets injected so far, by channel (read between streams only)
}

// stream injects Data seqs [from, to] on channels 1 and 2 concurrently —
// one goroutine per channel, a Control every 25 packets — and calls mid,
// when given, from a third goroutine while they run.
func (g *deliveryRig) stream(from, to uint64, mid func()) {
	var wg sync.WaitGroup
	var injected [3]int // by channel; each injector writes its own
	for ch := uint32(1); ch <= 2; ch++ {
		wg.Add(1)
		go func(ch uint32) {
			defer wg.Done()
			inject := func(data []byte) {
				g.r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: data})
				injected[ch]++
			}
			for seq := from; seq <= to; seq++ {
				if (seq-1)%25 == 0 {
					inject(controlPkt(g.t, ch, 1))
				}
				inject(dataPkt(g.t, ch, 1, seq, 320))
				if seq%16 == 0 {
					time.Sleep(200 * time.Microsecond) // let workers interleave
				}
			}
		}(ch)
	}
	if mid != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mid()
		}()
	}
	wg.Wait()
	g.sent[1] += injected[1]
	g.sent[2] += injected[2]
}

func (g *deliveryRig) join(addr lan.Addr, channel uint32, shiftMs uint32, profile codec.Profile) {
	data, err := (&proto.Subscribe{
		Channel: channel, Seq: 1, LeaseMs: 60_000, ShiftMs: shiftMs, Profile: uint8(profile),
	}).Marshal()
	if err != nil {
		g.t.Fatal(err)
	}
	g.r.Inject(lan.Packet{From: addr, To: g.conn.LocalAddr(), Data: data})
}

func (g *deliveryRig) pause(addr lan.Addr, seq uint32, paused bool) {
	data, err := (&proto.Pause{Channel: 0, Seq: seq, Paused: paused}).Marshal()
	if err != nil {
		g.t.Fatal(err)
	}
	g.r.Inject(lan.Packet{From: addr, To: g.conn.LocalAddr(), Data: data})
}

func (g *deliveryRig) info(addr lan.Addr) SubscriberInfo {
	for _, s := range g.r.Subscribers() {
		if s.Addr == addr {
			return s
		}
	}
	g.t.Errorf("%s holds no lease", addr)
	return SubscriberInfo{}
}

// settled waits until every cursor is at the head and nothing replays.
func (g *deliveryRig) settled() {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		busy := false
		for _, s := range g.r.Subscribers() {
			busy = busy || s.Queued > 0 || s.CatchingUp
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	g.t.Errorf("delivery never settled: %+v", g.r.Subscribers())
}

// contiguous checks addr's Data seqs on ch: strictly rising, none
// twice, and — when last > 0 — exactly first..last.
func (g *deliveryRig) contiguous(addr lan.Addr, ch uint32, first, last uint64) {
	g.t.Helper()
	g.conn.mu.Lock()
	seqs := append([]uint64(nil), g.conn.seqs[addr][ch]...)
	g.conn.mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			g.t.Errorf("%s channel %d: seq %d after %d (sent twice or reordered)", addr, ch, seqs[i], seqs[i-1])
			return
		}
	}
	if last == 0 {
		return
	}
	if want := int(last - first + 1); len(seqs) != want || seqs[0] != first || seqs[want-1] != last {
		g.t.Errorf("%s channel %d: got %d seqs, want exactly %d..%d", addr, ch, len(seqs), first, last)
	}
}

// accounted checks that every stream packet addr was owed since it
// joined live at the start was either sent once or charged as a drop.
func (g *deliveryRig) accounted(addr lan.Addr, channels ...uint32) {
	g.t.Helper()
	owed, got := 0, 0
	g.conn.mu.Lock()
	for _, ch := range channels {
		owed += g.sent[ch]
		got += g.conn.pkts[addr][ch]
	}
	for ch, n := range g.conn.pkts[addr] {
		if ch != channels[0] && ch != channels[len(channels)-1] {
			g.t.Errorf("%s was sent %d packets of channel %d, which it did not lease", addr, n, ch)
		}
	}
	g.conn.mu.Unlock()
	if dropped := int(g.info(addr).Dropped); got+dropped != owed {
		g.t.Errorf("%s: sent %d + dropped %d != owed %d", addr, got, dropped, owed)
	}
}

// TestDeliveryInvariants drives one relay per case with real workers,
// concurrent injectors and a concurrent reader of the accounting, and
// checks per subscriber: every packet exactly once (or counted as a
// drop), strictly rising seq, and a live cursor never more than
// QueueLen behind.
func TestDeliveryInvariants(t *testing.T) {
	const n = 400 // Data packets per channel per stream() call
	cases := []struct {
		name string
		cfg  Config
		run  func(g *deliveryRig)
	}{
		{"live", Config{QueueLen: 8192}, func(g *deliveryRig) {
			g.join("10.0.0.2:5004", 1, 0, codec.ProfileSource)
			g.join("10.0.0.3:5004", 0, 0, codec.ProfileSource)
			g.stream(1, n, nil)
			g.settled()
			g.r.Stop()
			g.contiguous("10.0.0.2:5004", 1, 1, n)
			g.contiguous("10.0.0.3:5004", 1, 1, n)
			g.contiguous("10.0.0.3:5004", 2, 1, n)
			g.accounted("10.0.0.2:5004", 1)
			g.accounted("10.0.0.3:5004", 1, 2)
		}},
		{"shift converges on live", Config{QueueLen: 8192, DVR: true, DVRBurst: 200_000}, func(g *deliveryRig) {
			g.join("10.0.0.2:5004", 1, 0, codec.ProfileSource)
			g.stream(1, n, nil)
			// Cursors placed in the past while the stream runs on: each
			// converges with appends racing its last reads — the seam the
			// queue/ring hand-over could double a packet across.
			g.stream(n+1, 2*n, func() {
				for i := 0; i < 8; i++ {
					g.join(lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)), 1, 60_000, codec.ProfileSource)
					time.Sleep(500 * time.Microsecond)
				}
			})
			g.settled()
			g.r.Stop()
			g.contiguous("10.0.0.2:5004", 1, 1, 2*n)
			for i := 0; i < 8; i++ {
				g.contiguous(lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)), 1, 1, 2*n)
			}
			if st := g.r.Stats(); st.DVREvictions != 0 || st.FanoutDropped != 0 {
				t.Errorf("evictions %d, drops %d, want none", st.DVREvictions, st.FanoutDropped)
			}
		}},
		{"pause and resume, from live and mid-replay", Config{QueueLen: 8192, DVR: true, DVRBurst: 200_000}, func(g *deliveryRig) {
			g.join("10.0.0.2:5004", 1, 0, codec.ProfileSource)
			g.stream(1, n, func() {
				time.Sleep(time.Millisecond)
				g.pause("10.0.0.2:5004", 1, true)
			})
			if !g.info("10.0.0.2:5004").Paused {
				t.Error("live subscriber not paused")
			}
			g.conn.mu.Lock()
			parked := len(g.conn.seqs["10.0.0.2:5004"][1])
			g.conn.mu.Unlock()
			g.stream(n+1, 2*n, func() {
				g.join("10.0.0.3:5004", 1, 60_000, codec.ProfileSource)
				g.pause("10.0.0.3:5004", 1, true)
				time.Sleep(2 * time.Millisecond)
				g.pause("10.0.0.3:5004", 2, false)
			})
			g.conn.mu.Lock()
			if got := len(g.conn.seqs["10.0.0.2:5004"][1]); got > parked+g.r.cfg.Batch {
				t.Errorf("paused subscriber was sent %d packets after its pause", got-parked)
			}
			g.conn.mu.Unlock()
			g.pause("10.0.0.2:5004", 2, false)
			g.settled()
			g.r.Stop()
			g.contiguous("10.0.0.2:5004", 1, 1, 2*n)
			g.contiguous("10.0.0.3:5004", 1, 1, 2*n)
		}},
		{"ladder step mid-stream", Config{QueueLen: 8192}, func(g *deliveryRig) {
			g.join("10.0.0.2:5004", 1, 0, codec.ProfileULaw)
			step := func(to func(codec.Profile) codec.Profile) {
				sh := g.r.shardFor("10.0.0.2:5004")
				sh.mu.Lock()
				sub := sh.subs["10.0.0.2:5004"]
				g.r.profCount[sub.profile].Add(-1)
				sub.profile = to(sub.profile)
				g.r.profCount[sub.profile].Add(1)
				sh.mu.Unlock()
			}
			g.stream(1, n, func() {
				time.Sleep(time.Millisecond)
				step(codec.Profile.Down)
				time.Sleep(time.Millisecond)
				step(codec.Profile.Up)
			})
			g.settled()
			g.r.Stop()
			g.contiguous("10.0.0.2:5004", 1, 1, n)
			g.accounted("10.0.0.2:5004", 1)
			if st := g.r.Stats(); st.TranscodeEncodes == 0 {
				t.Error("no tier payload was ever encoded")
			}
		}},
		{"stalled socket forces the clamp", Config{QueueLen: 8, Shards: 1, Ladder: true,
			SweepInterval: 2 * time.Millisecond, LadderDownDrops: 4, TraceSample: 1}, func(g *deliveryRig) {
			g.join("10.0.0.2:5004", 1, 0, codec.ProfileSource) // never sent, never charged for, channel 2
			g.join("10.0.0.3:5004", 0, 0, codec.ProfileSource)
			release := g.conn.stall()
			g.stream(1, n/4, nil)             // the stepped-down tiers encode every packet: keep it short
			time.Sleep(10 * time.Millisecond) // a few sweeps: the stalled worker charges nothing itself
			st := g.r.Stats()
			if st.FanoutDropped == 0 || st.LadderDown == 0 {
				t.Errorf("during the stall: %d drops, %d ladder steps, want both", st.FanoutDropped, st.LadderDown)
			}
			release()
			g.settled()
			g.r.Stop()
			g.contiguous("10.0.0.2:5004", 1, 0, 0)
			g.contiguous("10.0.0.3:5004", 1, 0, 0)
			g.contiguous("10.0.0.3:5004", 2, 0, 0)
			g.accounted("10.0.0.2:5004", 1)
			g.accounted("10.0.0.3:5004", 1, 2)
			dropped := g.info("10.0.0.2:5004").Dropped + g.info("10.0.0.3:5004").Dropped
			traced := g.r.Instruments().Tracer.DropCount(obs.PathFanout, obs.ReasonQueueFull)
			if st := g.r.Stats(); dropped == 0 || st.FanoutDropped != dropped || traced != dropped {
				t.Errorf("drops: subscribers %d, stats %d, traced queue-full %d, want equal and nonzero",
					dropped, st.FanoutDropped, traced)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := newRecordConn()
			tc.cfg.Group = testGroup
			r, err := New(vclock.System, conn, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := &deliveryRig{t: t, r: r, conn: conn, sent: make(map[uint32]int)}
			go r.Run()
			// A concurrent reader of everything derived from cursors: no
			// live cursor may ever be seen more than QueueLen behind.
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, s := range r.Subscribers() {
						if !s.CatchingUp && !s.Paused && s.Queued > r.cfg.QueueLen {
							t.Errorf("%s lags %d packets, limit %d", s.Addr, s.Queued, r.cfg.QueueLen)
						}
					}
					r.ShardStats()
					r.Pressure()
					r.Stats()
					time.Sleep(100 * time.Microsecond)
				}
			}()
			tc.run(g)
			close(stop)
			reader.Wait()
			r.Stop()
		})
	}
}

// TestDeliveryInvariantsChained: chained lessees are served by whichever
// goroutine fans a packet out and by their shard's worker, with two
// injectors appending at once and the socket stalled for a while, so
// the lead batch is contended and a lessee's packet is often held by
// another batch. Each lessee, and each speaker beside them, still gets
// every packet once, in order.
func TestDeliveryInvariantsChained(t *testing.T) {
	const n = 400
	conn := newRecordConn()
	r, err := New(vclock.System, conn, Config{Group: testGroup, Shards: 1, Batch: 4, QueueLen: 8192})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	defer r.Stop()
	g := &deliveryRig{t: t, r: r, conn: conn, sent: make(map[uint32]int)}
	lessees := []lan.Addr{"10.0.2.1:5006", "10.0.2.2:5006"}
	for _, addr := range lessees {
		r.Inject(hopsPkt(t, addr, 1, 60_000))
	}
	g.join("10.0.0.2:5004", 0, 0, codec.ProfileSource)
	g.stream(1, n, func() {
		time.Sleep(time.Millisecond)
		release := conn.stall()
		time.Sleep(2 * time.Millisecond)
		release()
	})
	g.settled()
	r.Stop()
	for _, addr := range append(lessees, "10.0.0.2:5004") {
		g.contiguous(addr, 1, 1, n)
		g.contiguous(addr, 2, 1, n)
		g.accounted(addr, 1, 2)
	}
}

// TestDeliveryInvariantsTiers: fanout sends the source-tier copies before
// it encodes the tiers, so with two injectors appending at once a tier
// subscriber's worker keeps meeting entries whose variants are still
// being built. A subscriber on each tier still gets every packet once,
// in order, and every Data packet at its own tier: under the tier's
// derived epoch, never the source's.
func TestDeliveryInvariantsTiers(t *testing.T) {
	const n = 200
	conn := newRecordConn()
	r, err := New(vclock.System, conn, Config{Group: testGroup, QueueLen: 8192})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	defer r.Stop()
	g := &deliveryRig{t: t, r: r, conn: conn, sent: make(map[uint32]int)}
	profiles := []codec.Profile{codec.ProfileSource, codec.ProfileULaw, codec.ProfileOVLHigh, codec.ProfileOVLLow}
	addr := func(p codec.Profile) lan.Addr { return lan.Addr(fmt.Sprintf("10.0.3.%d:5004", p+1)) }
	for _, p := range profiles {
		g.join(addr(p), 0, 0, p)
	}
	g.stream(1, n, nil)
	g.settled()
	r.Stop()
	for _, p := range profiles {
		a := addr(p)
		g.contiguous(a, 1, 1, n)
		g.contiguous(a, 2, 1, n)
		g.accounted(a, 1, 2)
		conn.mu.Lock()
		epochs := maps.Clone(conn.epochs[a])
		conn.mu.Unlock()
		if want := profileEpoch(1, p); len(epochs) != 1 || epochs[want] != 2*n {
			t.Errorf("%s on tier %v: Data packets by epoch %v, want all %d under epoch %d", a, p, epochs, 2*n, want)
		}
	}
}

// TestConvergeThenAppendByHand replays the interleaving that doubled a
// packet when replay and live were two structures: the receive path
// appends P, the worker serves P from the recorded history and finds
// itself converged, and only then does the receive path get to the
// subscriber's shard. P must go out once.
func TestConvergeThenAppendByHand(t *testing.T) {
	sim, _, r := newTestRelay(t, Config{Channel: 1, DVR: true, DVRBurst: 100_000, Shards: 1})
	sim.Go("test", func() {
		feedStream(t, r, 1, 1)
		r.handleRequest(shiftSubPkt(t, "10.0.0.2:5004", 1, 1, 60_000, 1_000))
		r.fanout(1, dataPkt(t, 1, 1, 11, 320)) // P: appended, shard woken
		b := &batch{slots: make([][]byte, 64)}
		for i := 0; i < 40; i++ {
			gatherOnce(r, "10.0.0.2:5004", b)
			sim.Sleep(time.Millisecond)
		}
		if r.Subscribers()[0].CatchingUp {
			t.Fatal("replay did not converge")
		}
		r.fanout(1, dataPkt(t, 1, 1, 12, 320)) // the next live packet
		gatherOnce(r, "10.0.0.2:5004", b)
		var seqs []uint64
		for _, d := range b.dgs {
			if dp, err := proto.UnmarshalData(d.Data); err == nil {
				seqs = append(seqs, dp.Seq)
			}
		}
		for i := range seqs {
			if seqs[i] != uint64(i+1) {
				t.Fatalf("data seqs = %v, want 1..12 once each", seqs)
			}
		}
		if len(seqs) != 12 {
			t.Fatalf("data seqs = %v, want 1..12 once each", seqs)
		}
	})
	sim.WaitIdle()
}

// TestChannelTableBounded sprays the group with Control packets for
// 10,000 channel ids nobody leases, across several sweeps. The sequence's
// per-channel account and the stream table (three transcoders an entry)
// must never hold more than maxChannels ids, the sweep must retire the
// quiet ones, and none of it may touch a channel somebody leases: its
// transcoders stay the ones it had, and its lessee is owed exactly what
// it is sent.
func TestChannelTableBounded(t *testing.T) {
	const sweep = 100 * time.Millisecond
	const leased = uint32(7)
	sim, _, r := newTestRelay(t, Config{SweepInterval: sweep})
	sub := lan.Addr("10.0.0.2:5004")
	if !r.subscribe(sub, &proto.Subscribe{Channel: leased, Profile: uint8(codec.ProfileOVLLow)}, time.Minute) {
		t.Fatal("subscribe failed")
	}
	inject := func(data []byte) {
		r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: data})
	}
	tables := func() (chans, streams int, acct channel, tx [codec.NumProfiles]*codec.Transcoder) {
		r.txMu.Lock()
		defer r.txMu.Unlock()
		r.seq.mu.Lock()
		defer r.seq.mu.Unlock()
		if st := r.streams[leased]; st != nil {
			tx = st.tx
		}
		return len(r.seq.chans), len(r.streams), r.seq.chans[leased], tx
	}
	var got [][]byte
	deliver := func() { got = append(got, drain(r)[sub]...) }

	sim.Go("sweep", r.sweep)
	sim.Go("test", func() {
		defer r.Stop()
		inject(controlPkt(t, leased, 1))
		inject(dataPkt(t, leased, 1, 1, 1260))
		deliver()
		_, _, _, before := tables()
		if before[codec.ProfileOVLLow] == nil {
			t.Error("no ovl-low transcoder learned for the leased channel")
			return
		}

		for id := uint32(0); id < 10000; id++ {
			inject(controlPkt(t, 1000+id, 1))
			if chans, streams, _, _ := tables(); chans > maxChannels || streams > maxChannels {
				t.Errorf("after %d ids the tables hold %d accounts and %d streams, bound %d", id+1, chans, streams, maxChannels)
				return
			}
			if id%500 == 499 {
				deliver()
				sim.Sleep(sweep)
			}
		}
		st := r.Stats()
		if st.UpstreamForeign == 0 || st.UpstreamControl < maxChannels {
			t.Errorf("flood: %d controls taken, %d refused; want the table filled and the rest refused",
				st.UpstreamControl, st.UpstreamForeign)
		}

		// The leased channel plays on: enough to push the flood's last
		// ids out of the live window, then two sweeps to retire them.
		for seq := uint64(2); seq < 2+2*DefaultQueueLen; seq++ {
			inject(dataPkt(t, leased, 1, seq, 1260))
			deliver()
		}
		sim.Sleep(2*sweep + sweep/2)
		chans, streams, acct, after := tables()
		if chans != 1 || streams != 1 {
			t.Errorf("after the flood went quiet the tables hold %d accounts and %d streams, want the leased channel alone", chans, streams)
		}
		if after != before {
			t.Error("the leased channel's transcoders were rebuilt")
		}
		info := r.Subscribers()[0]
		if want := uint64(2 + 2*DefaultQueueLen); acct.passed != want || info.Queued != 0 || info.Dropped != 0 {
			t.Errorf("leased channel: %d packets accounted (want %d), lessee dropped %d queued %d", acct.passed, want, info.Dropped, info.Queued)
		}
		if len(got) != int(acct.passed) {
			t.Errorf("lessee was handed %d packets of the %d its channel carried", len(got), acct.passed)
		}
		// Every one of them the ovl-low variant: the stream was never lost.
		for i, pkt := range got {
			var epoch uint32
			switch typ, _, _ := proto.PeekType(pkt); typ {
			case proto.TypeControl:
				c, _ := proto.UnmarshalControl(pkt)
				epoch = c.Epoch
			case proto.TypeData:
				d, _ := proto.UnmarshalData(pkt)
				epoch = d.Epoch
			}
			if epoch != profileEpoch(1, codec.ProfileOVLLow) {
				t.Errorf("packet %d went out under epoch %d, want the ovl-low tier's %d", i, epoch, profileEpoch(1, codec.ProfileOVLLow))
				break
			}
		}
	})
	sim.WaitIdle()
}

// TestQuietChannelResumes is the other half of the bounded channel
// table: a channel nobody leases by id goes quiet, the sweep is about to
// retire it, and its next packet arrives. From the moment that packet is
// admitted the channel is heard from again — it keeps its account and
// its stream, so the Data behind a Control always finds the transcoders
// the Control taught — and the receive path never reads a stream the
// sweep has meanwhile deleted. A wildcard ovl-low lessee keeps a tier
// active throughout, so every Control is rewritten and every Data
// transcoded.
func TestQuietChannelResumes(t *testing.T) {
	const carrier, quiet = uint32(1), uint32(9)
	wildcard := &proto.Subscribe{Channel: 0, Profile: uint8(codec.ProfileOVLLow)}

	// The interleaving by hand: admitted, then the sweep, then the rest
	// of the receive path.
	t.Run("admitted before the sweep", func(t *testing.T) {
		sim, _, r := newTestRelay(t, Config{QueueLen: 8})
		sim.Go("test", func() {
			if !r.subscribe("10.0.0.2:5004", wildcard, time.Minute) {
				t.Fatal("subscribe failed")
			}
			inject := func(data []byte) {
				r.handlePacket(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: data})
			}
			var seq uint64
			play := func(n int) { // the carrier pushes everything older out of the live window
				for i := 0; i < n; i++ {
					seq++
					inject(dataPkt(t, carrier, 1, seq, 320))
				}
			}
			inject(controlPkt(t, quiet, 1))
			inject(dataPkt(t, quiet, 1, 1, 320))
			inject(controlPkt(t, carrier, 1))
			play(2 * r.cfg.QueueLen)
			st := r.streams[quiet]
			r.trimChannels() // a sweep passes: the channel has a whole one of silence behind it

			if !r.seq.admit(quiet) {
				t.Fatal("a tracked channel was refused")
			}
			r.trimChannels()
			if c, ok := r.seq.chans[quiet]; !ok || c.passed != 2 || r.streams[quiet] != st {
				t.Fatalf("a sweep between admission and append: account %+v (tracked %v), stream kept %v; want 2 passed and the same stream",
					c, ok, r.streams[quiet] == st)
			}
			r.fanout(quiet, controlPkt(t, quiet, 1))
			if c := r.seq.chans[quiet]; c.passed != 3 {
				t.Errorf("%d packets accounted after the resumed one, want 3", c.passed)
			}

			// And it was about to go: left alone, the same silence retires it.
			play(2 * r.cfg.QueueLen)
			r.trimChannels()
			r.trimChannels()
			if _, ok := r.seq.chans[quiet]; ok || r.streams[quiet] != nil {
				t.Error("the channel was never quiet: the case above proved nothing")
			}
			drain(r)
		})
		sim.WaitIdle()
	})

	// The same with nothing by hand: the relay's own sweep, as fast as
	// it will run, beside a receive path that resumes the channel the
	// moment the next sweep would retire it.
	t.Run("under the sweep", func(t *testing.T) {
		conn := newRecordConn()
		r, err := New(vclock.System, conn, Config{Group: testGroup, QueueLen: 8, Shards: 1, SweepInterval: 20 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		go r.Run()
		defer r.Stop()
		g := &deliveryRig{t: t, r: r, conn: conn, sent: make(map[uint32]int)}
		g.join("10.0.0.2:5004", 0, 0, codec.ProfileOVLLow)
		inject := func(data []byte) {
			r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: data})
		}
		carrierCtl, carrierData := controlPkt(t, carrier, 1), dataPkt(t, carrier, 1, 1, 320)
		quietCtl, quietData := controlPkt(t, quiet, 1), dataPkt(t, quiet, 1, 1, 320)

		// doomed: the next sweep retires the channel unless it is heard from.
		doomed := func() bool {
			s := &r.seq
			s.mu.Lock()
			defer s.mu.Unlock()
			c, ok := s.chans[quiet]
			return !ok || s.quiet(c, s.swept, r.cfg.QueueLen)
		}
		// One injector, so nothing but the sweep runs beside the receive
		// path and no carrier packet falls between a Control and its Data.
		inject(carrierCtl)
		resumed, deadline := 0, time.Now().Add(20*time.Second)
		for ; resumed < 1000 && time.Now().Before(deadline); resumed++ {
			for !doomed() && time.Now().Before(deadline) {
				inject(carrierData)
			}
			inject(quietCtl)
			inject(quietData)
		}
		if resumed < 100 {
			t.Fatalf("the channel resumed only %d times", resumed)
		}
		g.settled()
		// Every Data packet followed its channel's Control through the one
		// receive path, so every one of them must have found transcoders.
		if st := r.Stats(); st.TranscodeEncodes != st.UpstreamData || st.TranscodeErrors != 0 || st.UpstreamForeign != 0 {
			t.Errorf("%d Data packets taken, %d transcoded (%d errors, %d refused): a resumed channel lost its stream",
				st.UpstreamData, st.TranscodeEncodes, st.TranscodeErrors, st.UpstreamForeign)
		}
	})
}

// replayRig builds a relay on a countConn whose one shard holds eight
// source-tier subscribers replaying a 1,000-packet backlog at the
// highest DVRBurst there is, and returns it with one replay pass: the
// worker's gather, then its flush. A pass that finds the cohort caught
// up puts every cursor back at the ring's oldest entry first, so the
// pass can run any number of times.
func replayRig(tb testing.TB) (r *Relay, pass func()) {
	tb.Helper()
	r, err := New(vclock.System, &countConn{recordConn: newRecordConn()}, Config{
		Group: testGroup, Channel: 1, DVR: true, DVRBurst: int(time.Second), Shards: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: controlPkt(tb, 1, 1)})
	for seq := uint64(1); seq <= 1000; seq++ {
		r.Inject(lan.Packet{From: "10.0.9.9:5004", To: testGroup, Data: dataPkt(tb, 1, 1, seq, 320)})
	}
	const cohort = 8
	for i := 1; i <= cohort; i++ {
		r.Inject(shiftSubPkt(tb, lan.Addr(fmt.Sprintf("10.0.1.%d:5004", i)), 1, 1, 3_600_000, 60_000))
	}
	sh := r.shards[0]
	b := &batch{dgs: make([]lan.Datagram, 0, r.cfg.Batch), slots: make([][]byte, r.cfg.Batch)}
	return r, func() {
		b.dgs, b.owners = b.dgs[:0], b.owners[:0]
		sh.mu.Lock()
		if r.catchupActive.Load() == 0 {
			for _, sub := range sh.order {
				sub.cursor, sub.replay = r.seq.ring.Tail(), true
				r.catchupActive.Add(1)
			}
		}
		r.gather(sh, b)
		sh.mu.Unlock()
		if len(b.dgs) > 0 {
			r.flush(sh, b.dgs, b.owners, flushQuiesce)
		}
	}
}

// TestReplayPassAllocatesNothing: a steady source-tier catch-up pass —
// eight ring reads into the batch's own slots, their send, the pacing —
// allocates nothing.
func TestReplayPassAllocatesNothing(t *testing.T) {
	r, pass := replayRig(t)
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("a replay pass allocates %v times, want 0", allocs)
	}
	if st := r.Stats(); st.DVRBacklog < 8*100 {
		t.Errorf("%d backlog packets served over 101 passes of eight replays, want a packet a pass each", st.DVRBacklog)
	}
}

// BenchmarkReplayPass prices one gather pass and its flush over eight
// source-tier subscribers catching up from the ring.
func BenchmarkReplayPass(b *testing.B) {
	_, pass := replayRig(b)
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
