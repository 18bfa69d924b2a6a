package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dvr"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/vclock"
)

// The traced pass reports the per-layer metrics three ways, all from
// outside the daemons: relay A's own counters and histograms, scraped
// from its ops endpoint; a packet walk, which pushes packets captured at
// the tap through each layer's public functions in the order the relay
// would, one span per call; and an in-process relay replica behind a
// timing connection, fed the same packets through Relay.Inject.

// traceSpan is one call into a layer. Spans of one packet share Trace;
// Parent indexes the span that caused this one, -1 at the root.
type traceSpan struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the walk began
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

type recorder struct {
	t0    time.Time
	spans []traceSpan
}

func (r *recorder) begin(trace, name string, parent int) int {
	r.spans = append(r.spans, traceSpan{Trace: trace, Name: name, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// selfTimes is each span name's mean self time in ns: a span's duration
// minus what its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	sum, n := map[string]float64{}, map[string]float64{}
	for i, s := range r.spans {
		sum[s.Name] += float64(self[i])
		n[s.Name]++
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(struct {
		SelfNs map[string]float64 `json:"mean_self_ns"`
		Spans  []traceSpan        `json:"spans"`
	}{r.selfTimes(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timeOp reports fn's cost per call: the median ns over five timed
// rounds of iters calls, and the heap allocations per call.
func timeOp(iters int, fn func(i int)) (ns, allocs float64) {
	fn(0)
	rounds := make([]float64, 5)
	for r := range rounds {
		t := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(t)) / float64(iters)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return median(rounds), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// sinks binds n mute sinks for the walk and the replica to send to.
func openSinks(n int) ([]*net.UDPConn, []lan.Addr, error) {
	var cs []*net.UDPConn
	var as []lan.Addr
	for i := 0; i < n; i++ {
		c, err := listenLoopback()
		if err != nil {
			closeSinks(cs)
			return nil, nil, err
		}
		muteReceiveBuffer(c)
		cs = append(cs, c)
		as = append(as, lan.Addr(c.LocalAddr().String()))
	}
	return cs, as, nil
}

func closeSinks(cs []*net.UDPConn) {
	for _, c := range cs {
		c.Close()
	}
}

// loopOnly hides a conn's BatchWriter, so lan.WriteBatch takes the
// portable one-Send-per-datagram path.
type loopOnly struct{ lan.Conn }

// captured is what the live run left for the offline layers: stream
// packets from the tap and the audio format they carry.
type captured struct {
	workload string
	ctl      []byte
	data     [][]byte
}

// walk pushes the captured packets through every layer and fills in the
// proto, codec, security, dvr and lan metrics. Spans are recorded for the
// first walkSpans packets; the metrics come from timed loops over all of
// them, because a span's two clock reads cost more than a header peek.
func walk(c captured, r *result, tracePath string) error {
	if len(c.data) == 0 || c.ctl == nil {
		return fmt.Errorf("trace: the tap captured no packets to walk")
	}
	ctl, err := proto.UnmarshalControl(c.ctl)
	if err != nil {
		return fmt.Errorf("trace: captured control packet: %w", err)
	}
	var datas []*proto.Data
	for _, p := range c.data {
		d, err := proto.UnmarshalData(p)
		if err != nil {
			return fmt.Errorf("trace: captured data packet: %w", err)
		}
		datas = append(datas, d)
	}
	n := len(datas)
	tiers := []codec.Profile{codec.ProfileULaw, codec.ProfileOVLHigh, codec.ProfileOVLLow}
	tx := map[codec.Profile]*codec.Transcoder{}
	for _, p := range tiers {
		if tx[p], err = codec.NewTranscoder(ctl.Codec, ctl.Params, p); err != nil {
			return fmt.Errorf("trace: transcoder %s: %w", p, err)
		}
	}
	ring := dvr.NewRing(vclock.System, 30*time.Second, 0)

	// The control packets the relay would see: Subscribes as the harness
	// sent them, signed per scheme, from the addresses they came from.
	const nsubs = 256
	master := []byte("esbench-walk")
	keyring := security.NewKeyring(master)
	identRelay := keyring.Relay()
	hmacAuth := security.NewHMAC(master)
	var subs, identSubs, hmacSubs [][]byte
	var srcs []string
	ack, _ := (&proto.SubAck{Channel: streamChannel, Seq: 1, LeaseMs: subscriberLeaseMs}).Marshal()
	for i := 0; i < nsubs; i++ {
		req := proto.Subscribe{Channel: streamChannel, Seq: uint32(i + 1), LeaseMs: subscriberLeaseMs, Profile: uint8(i % 4)}
		pkt, err := req.Marshal()
		if err != nil {
			return err
		}
		src := fmt.Sprintf("127.0.0.1:%d", 20000+i)
		subs = append(subs, pkt)
		srcs = append(srcs, src)
		identSubs = append(identSubs, keyring.SignerAt(uint32(subscriberBase+i), src, 0).Sign(pkt))
		hmacSubs = append(hmacSubs, hmacAuth.Sign(pkt))
	}

	// Real sockets for the send path: 32 mute sinks, one conn per backend.
	sinkConns, sinkAddrs, err := openSinks(32)
	if err != nil {
		return err
	}
	defer closeSinks(sinkConns)
	udp := &lan.UDPNetwork{}
	backends := []struct {
		name string
		conn lan.Conn
	}{{"sendmmsg", nil}, {"loop", nil}, {"gso", nil}}
	for i := range backends {
		conn, err := udp.Attach("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer conn.Close()
		backends[i].conn = conn
	}
	backends[1].conn = loopOnly{backends[1].conn}
	if !lan.EnableGSO(backends[2].conn) {
		fmt.Fprintln(os.Stderr, "esbench: this build of lan has no GSO backend; lan.writebatch_ns_per_pkt.gso measures plain batches")
	}
	batchFor := func(pkt []byte) []lan.Datagram {
		b := make([]lan.Datagram, len(sinkAddrs))
		for i, a := range sinkAddrs {
			b[i] = lan.Datagram{To: a, Data: pkt}
		}
		return b
	}

	// Spans.
	rec := &recorder{t0: time.Now()}
	const walkSpans = 64
	for i := 0; i < min(walkSpans, n); i++ {
		pkt, d := c.data[i], datas[i]
		id := fmt.Sprintf("%s/%d/%d", c.workload, d.Epoch, d.Seq)
		root := rec.begin(id, "relay.packet", -1)
		s := rec.begin(id, "proto.PeekType", root)
		proto.PeekType(pkt)
		rec.end(s)
		s = rec.begin(id, "proto.UnmarshalData", root)
		proto.UnmarshalData(pkt)
		rec.end(s)
		s = rec.begin(id, "dvr.Ring.Append", root)
		ring.Append(pkt, false)
		rec.end(s)
		s = rec.begin(id, "dvr.Ring.Read", root)
		ring.Read(ring.Head()-1, nil)
		rec.end(s)
		for _, p := range tiers {
			tier := rec.begin(id, "relay.tier."+p.String(), root)
			s = rec.begin(id, "codec.Transcoder.Transcode", tier)
			payload, err := tx[p].Transcode(d.Payload)
			rec.end(s)
			if err != nil {
				return fmt.Errorf("trace: transcode %s: %w", p, err)
			}
			nd := *d
			nd.Payload = payload
			s = rec.begin(id, "proto.Data.Marshal", tier)
			nd.Marshal()
			rec.end(s)
			rec.end(tier)
		}
		for _, b := range backends {
			s = rec.begin(id, "lan.WriteBatch."+b.name, root)
			lan.WriteBatch(b.conn, batchFor(pkt))
			rec.end(s)
		}
		rec.end(root)

		id = fmt.Sprintf("%s/subscribe/%d", c.workload, i+1)
		root = rec.begin(id, "relay.subscribe", -1)
		s = rec.begin(id, "security.VerifySession", root)
		inner, _, _, _ := identRelay.VerifySession(identSubs[i], srcs[i])
		rec.end(s)
		s = rec.begin(id, "proto.UnmarshalSubscribe", root)
		proto.UnmarshalSubscribe(inner)
		rec.end(s)
		s = rec.begin(id, "proto.SubAck.Marshal", root)
		out, _ := (&proto.SubAck{Channel: streamChannel, Seq: uint32(i + 1), LeaseMs: subscriberLeaseMs}).Marshal()
		rec.end(s)
		s = rec.begin(id, "security.SignFor", root)
		identRelay.SignFor(uint32(subscriberBase+i), out)
		rec.end(s)
		rec.end(root)
	}
	if err := rec.write(tracePath); err != nil {
		return err
	}
	r.layer("harness.trace_spans", float64(len(rec.spans)), len(rec.spans))

	// Timed loops.
	set := func(name string, iters int, fn func(i int)) float64 {
		ns, allocs := timeOp(iters, fn)
		r.layer(name, ns, iters)
		return allocs
	}
	set("proto.peek_ns", 20000, func(i int) { proto.PeekType(c.data[i%n]) })
	r.layer("proto.data_unmarshal_allocs",
		set("proto.data_unmarshal_ns", 5000, func(i int) { proto.UnmarshalData(c.data[i%n]) }), 5000)
	set("proto.data_marshal_ns", 5000, func(i int) { datas[i%n].Marshal() })
	set("proto.subscribe_unmarshal_ns", 20000, func(i int) { proto.UnmarshalSubscribe(subs[i%nsubs]) })
	sa := &proto.SubAck{Channel: streamChannel, Seq: 7, LeaseMs: subscriberLeaseMs}
	set("proto.suback_marshal_ns", 20000, func(i int) { sa.Marshal() })

	for _, p := range tiers {
		p := p
		allocs := set("codec.transcode_ns."+p.String(), 200, func(i int) { tx[p].Transcode(datas[i%n].Payload) })
		if p == codec.ProfileOVLLow {
			r.layer("codec.transcode_allocs.ovl-low", allocs, 200)
		}
	}
	enc, err := codec.NewEncoder("ovl", ctl.Params, codec.MaxQuality)
	if err != nil {
		return err
	}
	dec, err := codec.NewDecoder("ovl", ctl.Params)
	if err != nil {
		return err
	}
	encoded := make([][]byte, n)
	set("codec.encode_ns.ovl", 200, func(i int) {
		out, _ := enc.Encode(datas[i%n].Payload)
		tail, _ := enc.Flush()
		encoded[i%n] = append(out, tail...)
	})
	set("codec.decode_ns.ovl", 200, func(i int) {
		if e := encoded[i%n]; e != nil {
			dec.Reset()
			dec.Decode(e)
		}
	})

	r.layer("security.ident_verify_allocs",
		set("security.ident_verify_ns", 5000, func(i int) { identRelay.VerifySession(identSubs[i%nsubs], srcs[i%nsubs]) }), 5000)
	ns, _ := timeOp(20, func(int) { identRelay.VerifySessionBatch(identSubs, srcs) })
	r.layer("security.ident_verify_batch_ns", ns/nsubs, 20*nsubs)
	set("security.ident_sign_ns", 5000, func(i int) { identRelay.SignFor(uint32(subscriberBase+i%nsubs), ack) })
	set("security.hmac_verify_ns", 5000, func(i int) { hmacAuth.Verify(hmacSubs[i%nsubs]) })
	set("security.hmac_sign_ns", 5000, func(i int) { hmacAuth.Sign(ack) })

	r.layer("dvr.append_allocs",
		set("dvr.append_ns", 20000, func(i int) { ring.Append(c.data[i%n], false) }), 20000)
	var scratch []byte
	tail := ring.Tail()
	span := ring.Head() - tail
	r.layer("dvr.read_allocs",
		set("dvr.read_ns", 20000, func(i int) { scratch, _, _, _ = ring.Read(tail+uint64(i)%span, scratch) }), 20000)

	batch := batchFor(c.data[0])
	for _, b := range backends {
		b := b
		ns, allocs := timeOp(200, func(int) { lan.WriteBatch(b.conn, batch) })
		r.layer("lan.writebatch_ns_per_pkt."+b.name, ns/float64(len(batch)), 200*len(batch))
		if b.name == "sendmmsg" {
			r.layer("lan.writebatch_allocs_per_pkt", allocs/float64(len(batch)), 200*len(batch))
		}
	}
	set("lan.send_ns", 2000, func(i int) { backends[0].conn.Send(sinkAddrs[i%len(sinkAddrs)], c.data[0]) })
	return recvCost(r, udp)
}

// recvCost measures the receive side of lan: a burst is left waiting in
// a fresh conn's socket, then drained through Recv, which starts the
// conn's batched reader.
func recvCost(r *result, udp *lan.UDPNetwork) error {
	const burst = 128
	tx, err := listenLoopback()
	if err != nil {
		return err
	}
	defer tx.Close()
	payload := make([]byte, 64)
	var perPkt, fill []float64
	for round := 0; round < 9; round++ {
		conn, err := udp.Attach("127.0.0.1:0")
		if err != nil {
			return err
		}
		to, err := net.ResolveUDPAddr("udp4", string(conn.LocalAddr()))
		if err != nil {
			conn.Close()
			return err
		}
		for i := 0; i < burst; i++ {
			tx.WriteToUDP(payload, to)
		}
		t := time.Now()
		got := 0
		for got < burst {
			if _, err := conn.Recv(100 * time.Millisecond); err != nil {
				break
			}
			got++
		}
		el := time.Since(t)
		if rb, ok := conn.(lan.RecvBatcher); ok && got > 0 {
			if st := rb.RecvBatchStats(); st.Batches > 0 {
				fill = append(fill, float64(st.Packets)/float64(st.Batches))
			}
		}
		conn.Close()
		if got > 0 {
			perPkt = append(perPkt, float64(el)/float64(got))
		}
	}
	r.layer("lan.recv_ns_per_pkt", median(perPkt), len(perPkt)*burst)
	r.layer("lan.recv_batch_fill", median(fill), len(fill))
	return nil
}

// countingConn is the lan.Conn the relay replica sends through. It
// counts what the relay hands it and tells the driver when a target is
// reached; with discard set the batch stops here instead of going to the
// kernel, which is how the send path's share of fan-out is found.
type countingConn struct {
	lan.Conn
	discard bool
	sent    atomic.Int64
	target  atomic.Int64
	reached chan struct{}
}

func (c *countingConn) WriteBatch(b []lan.Datagram) (n int, err error) {
	if n = len(b); !c.discard {
		n, err = lan.WriteBatch(c.Conn, b)
	}
	if t := c.target.Load(); c.sent.Add(int64(n)) >= t && t > 0 {
		select {
		case c.reached <- struct{}{}:
		default:
		}
	}
	return n, err
}

// await blocks until the relay has sent want datagrams in all.
func (c *countingConn) await(want int64) {
	c.target.Store(want)
	for end := time.After(5 * time.Second); c.sent.Load() < want; {
		select {
		case <-c.reached:
		case <-end:
			return
		}
	}
}

// replica runs relay.New in this process behind a countingConn, leases
// nsubs mute sinks through Inject, and injects the captured stream one
// packet at a time. It returns what the receive path pays per
// subscriber to enqueue a packet, and the process CPU per datagram the
// relay sent.
func replica(c captured, nsubs int, discard bool) (injectNsPerSub, cpuNsPerPkt float64, err error) {
	sinkConns, sinkAddrs, err := openSinks(nsubs)
	if err != nil {
		return 0, 0, err
	}
	defer closeSinks(sinkConns)
	conn, err := (&lan.UDPNetwork{}).Attach("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	cc := &countingConn{Conn: conn, discard: discard, reached: make(chan struct{}, 1)}
	port, err := reservePort()
	if err != nil {
		return 0, 0, err
	}
	group := lan.Addr(fmt.Sprintf("239.72.254.%d:%d", os.Getpid()%250+1, port))
	rl, err := relay.New(vclock.System, cc, relay.Config{Group: group, MaxSubscribers: nsubs + 8})
	if err != nil {
		conn.Close()
		return 0, 0, fmt.Errorf("trace: relay replica: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rl.Run()
	}()
	defer func() {
		rl.Stop()
		<-done
	}()
	for i, a := range sinkAddrs {
		req, _ := (&proto.Subscribe{Channel: streamChannel, Seq: uint32(i + 1), LeaseMs: subscriberLeaseMs}).Marshal()
		rl.Inject(lan.Packet{From: a, To: cc.LocalAddr(), Data: req})
	}
	if got := rl.NumSubscribers(); got != nsubs {
		return 0, 0, fmt.Errorf("trace: relay replica admitted %d of %d subscribers", got, nsubs)
	}
	cc.await(int64(nsubs)) // the SubAcks are not stream sends
	base, cpu0 := cc.sent.Load(), selfCPU()
	var inject []float64
	for i, pkt := range append([][]byte{c.ctl}, c.data...) {
		t := time.Now()
		rl.Inject(lan.Packet{From: "127.0.0.1:9", To: group, Data: pkt})
		inject = append(inject, float64(time.Since(t))/float64(nsubs))
		// One packet in flight at a time: the queues never overflow, and
		// enqueue and send do not overlap.
		cc.await(base + int64((i+1)*nsubs))
	}
	sent := cc.sent.Load() - base
	if sent == 0 {
		return 0, 0, fmt.Errorf("trace: relay replica sent nothing")
	}
	return median(inject), float64(selfCPU()-cpu0) / float64(sent), nil
}

// traced fills in the per-layer metrics of a run whose window was
// observed through relay A's ops endpoint, then stops the system and
// runs the offline layers.
func (s *system) traced(o *observation, d *figures, r *result) error {
	w := &s.cfg.w
	sc0, sc1 := o.scrape0, o.scrape1
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// relay: counters and histograms the daemon already keeps.
	sent := sc1.since(sc0, "es_relay_fanout_sent_total")
	flushes := sc1.since(sc0, "es_relay_fanout_flush_size_total") +
		sc1.since(sc0, "es_relay_fanout_flush_deadline_total") +
		sc1.since(sc0, "es_relay_fanout_flush_quiesce_total")
	r.layer("relay.batch_fill", ratio(sent, sc1.since(sc0, "es_relay_fanout_batches_total")), int(sent))
	r.layer("relay.flush_deadline_share", ratio(sc1.since(sc0, "es_relay_fanout_flush_deadline_total"), flushes), int(flushes))
	const residency, flushLat = "es_relay_queue_residency_seconds", "es_relay_flush_latency_seconds"
	nres := int(sc1.since(sc0, residency+"_count"))
	r.layer("relay.queue_residency_p50_us", sc1.quantile(sc0, residency, 0.5)*1e6, nres)
	r.layer("relay.queue_residency_p99_us", sc1.quantile(sc0, residency, supportedTail(nres, 0.99))*1e6, nres)
	nfl := int(sc1.since(sc0, flushLat+"_count"))
	r.layer("relay.flush_latency_p99_us", sc1.quantile(sc0, flushLat, supportedTail(nfl, 0.99))*1e6, nfl)
	r.layer("relay.fanout_dropped", sc1.since(sc0, "es_relay_fanout_dropped_total"), int(sent))
	r.layer("relay.send_errors", sc1.since(sc0, "es_relay_senderrors_total"), int(sent))
	upstream := sc1.since(sc0, "es_relay_upstream_data_total")
	encodes := ratio(sc1.since(sc0, "es_relay_transcode_encodes_total"), upstream)
	r.layer("relay.transcode_encodes_per_pkt", encodes, int(upstream))
	if w.profiles != nil {
		// One encode per active non-source tier per upstream packet, never
		// per subscriber.
		bad := 0
		if math.Abs(encodes-float64(len(w.profiles)-1)) > 0.01 {
			bad = 1
		}
		r.count("encodes per packet", 1, bad)
	}
	admitted := sc1.since(sc0, "es_relay_subscribes_total") + sc1.since(sc0, "es_relay_refreshes_total") +
		sc1.since(sc0, "es_relay_unsubscribes_total")
	r.layer("relay.admit_batch_fill", ratio(admitted, sc1.since(sc0, "es_relay_admit_batches_total")), int(admitted))
	r.layer("relay.admit_overflow", sc1.since(sc0, "es_relay_admit_overflow_total"), int(admitted))

	// Cancels draw no ack; the relay's own count says whether they took,
	// and a lost cancel would also turn the next subscribe into a refresh.
	// A cancel cannot be retried, so where the generator saw requests lost
	// (and retried them) as many cancels may have gone the same way.
	cancels, joins, slack := s.churn.removes, s.churn.creates, s.churn.retransmits
	for i := range o.joins {
		n := len(s.cohorts[i].probes) + len(s.cohorts[i].mutes)
		joins += n
		if o.converged[i] != 0 {
			cancels += n
		}
	}
	gone := int(sc1.since(sc0, "es_relay_unsubscribes_total"))
	r.count("cancels", cancels, max(0, abs(cancels-gone)-slack))
	fresh := int(sc1.since(sc0, "es_relay_subscribes_total"))
	r.count("new leases", joins, max(0, abs(joins-fresh)-slack))

	// relay: from /proc and the probes.
	// The loaded relay's own subscribers; where it has none, the chain's.
	tr := summarize(d.transitA, 0.99)
	if tr.N == 0 {
		tr = summarize(d.transit, 0.99)
	}
	r.layer("relay.transit_p50_us", tr.P50, tr.N)
	r.layer("relay.transit_p99_us", tr.Tail, tr.N)
	whole0, whole1 := o.winA0, o.winA1
	ticks := float64(whole1.userTicks + whole1.sysTicks - whole0.userTicks - whole0.sysTicks)
	r.layer("relay.cpu_sys_share", ratio(float64(whole1.sysTicks-whole0.sysTicks), ticks), int(ticks))
	r.layer("relay.ctxsw_per_kpkt", ratio(float64(whole1.ctxSwitches-whole0.ctxSwitches), sent/1000), int(sent))
	nOnA := len(s.probes) + len(s.mutes) + othersOnA
	r.layer("relay.rss_kb_per_sub", ratio(float64(o.endA.currentRSSKB-s.idleRSSKB), float64(nOnA)), nOnA)
	r.layer("relay.cpu_us_per_ctl_op", ratio(float64(whole1.cpuNs-whole0.cpuNs)/1e3, float64(s.churn.sent())), s.churn.sent())

	// obs: the cost of being watched.
	r.layer("obs.scrape_ms_p50", median(o.scrapeMs), len(o.scrapeMs))
	var tap1, tap2 float64
	for _, t := range d.tapData {
		switch {
		case t.ts >= o.t0 && t.ts < o.halfAt:
			tap1++
		case t.ts >= o.halfAt && t.ts <= o.t1:
			tap2++
		}
	}
	// Where cohorts cycle, the two halves hold different shares of replay
	// and cannot be compared.
	if len(s.cohorts) == 0 {
		quiet := ratio(float64(o.half.cpuNs-whole0.cpuNs), tap1)
		watched := ratio(float64(whole1.cpuNs-o.half.cpuNs), tap2)
		r.layer("obs.overhead_pct", 100*ratio(watched-quiet, quiet), int(tap1+tap2))
	}

	// lease
	rt := summarize(o.rtts, 0.99)
	r.layer("lease.rtt_p50_us", rt.P50, rt.N)
	r.layer("lease.rtt_p99_us", rt.Tail, rt.N)
	r.layer("lease.unanswered", float64(s.churn.unanswered), s.churn.requests)
	r.layer("lease.retransmits", float64(s.churn.retransmits), s.churn.requests)

	// dvr, live side
	r.layer("dvr.catchup_s", median(d.catchup), len(d.catchup))
	r.layer("dvr.first_replay_ms", median(d.firstReplay), len(d.firstReplay))

	// rebroadcast / vad: what the tap saw of the producer.
	var jitter, toWire []float64
	var audioS float64
	td := d.tapData
	for i := 2; i < len(td); i++ {
		cur, prev := td[i], td[i-1]
		if cur.ts < o.t0 || cur.ts > o.t1 {
			continue
		}
		// A producer on the audio clock emits each packet one packet's
		// worth of audio after the one before.
		expect := float64(prev.frames-td[i-2].frames) / sampleRate * 1e6
		jitter = append(jitter, math.Abs(float64(cur.ts-prev.ts)/1e3-expect))
		audioS += float64(cur.frames-prev.frames) / sampleRate
		if wr := s.src.writtenAt(prev.frames); wr != 0 { // prev.frames is cur's first frame
			toWire = append(toWire, float64(cur.ts-wr)/1e6)
		}
	}
	r.layer("rebroadcast.cpu_ms_per_audio_s", ratio(float64(o.reb1.cpuNs-o.reb0.cpuNs)/1e6, audioS), int(audioS))
	js := summarize(jitter, 0.99)
	r.layer("rebroadcast.emit_jitter_p99_us", js.Tail, js.N)
	_, ctlTimes := s.tap.snapshot()
	var gaps []float64
	for i := 1; i < len(ctlTimes); i++ {
		gaps = append(gaps, float64(ctlTimes[i]-ctlTimes[i-1])/1e6)
	}
	gs := summarize(gaps, 0.99)
	r.layer("rebroadcast.control_gap_p99_ms", gs.Tail, gs.N)
	r.layer("vad.write_to_wire_p50_ms", median(toWire), len(toWire))

	// speaker / audiodev
	sk := skew(s.meter, s.direct().name, s.far().name, time.Unix(0, o.t0), time.Unix(0, o.t1))
	for i := range sk {
		sk[i] = math.Abs(sk[i])
	}
	sort.Float64s(sk)
	var mean float64
	for _, v := range sk {
		mean += v / float64(len(sk))
	}
	r.layer("speaker.skew_p95_ms", quantile(sk, supportedTail(len(sk), 0.95)), len(sk))
	r.layer("speaker.skew_mean_ms", mean, len(sk))
	r.layer("speaker.latency_drift_ms_per_s", slope(d.playAt, d.playMs), len(d.playMs))
	if at, ok := s.far().firstSound(); ok && len(d.tapData) > 0 {
		r.layer("speaker.first_sound_ms", float64(at-d.tapData[0].ts)/1e6, 1)
	}
	st := s.far().sp.Stats()
	r.layer("speaker.dropped_late", float64(st.DroppedLate), int(st.DataPackets))
	r.layer("speaker.gap_fills", float64(st.GapFills), int(st.DataPackets))
	r.layer("audiodev.underruns", float64(s.far().sp.Device().GetStats().Underruns), int(st.DataPackets))

	r.layer("harness.build_s", s.cfg.buildS, 1)

	// Offline layers, on a quiet process.
	c := captured{workload: w.name}
	s.tap.mu.Lock()
	c.ctl, c.data = s.tap.ctlP, s.tap.raw
	s.tap.mu.Unlock()
	nsubs := max(32, len(s.probes)+len(s.mutes), w.shiftProbes+w.shiftMutes)
	s.teardown()
	runtime.GC()
	if err := walk(c, r, filepath.Join(s.cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}
	// The same fan-out twice: once into the kernel, once into nothing.
	// What the second run saves is the send path's share of the first.
	inject, real, err := replica(c, nsubs, false)
	if err != nil {
		return err
	}
	_, dry, err := replica(c, nsubs, true)
	if err != nil {
		return err
	}
	r.layer("relay.inject_ns_per_sub", inject, len(c.data)+1)
	r.layer("relay.writebatch_share", 1-dry/real, (len(c.data)+1)*nsubs)
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
