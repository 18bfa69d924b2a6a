package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
)

// runConfig is one invocation: a workload, the seed its inputs are made
// from, how long to measure, and whether this is the traced pass.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration // measured time of the whole run, shared equally among the set-ups
	setups int           // how many times the system is brought up and measured
	trace  bool
	binDir string // where rebroadcastd and relayd were built
	outDir string // logs, key files, trace files
	buildS float64
}

// each is the window one set-up is measured for.
func (c runConfig) each() time.Duration { return c.window / time.Duration(c.setups) }

const (
	// setupsPerRun is how many times an untraced run brings the whole
	// system up. Each set-up is measured for its share of the window and
	// every end-to-end metric is the median over the set-ups: the same
	// binaries cost a third more CPU per packet in one set-up than in the
	// next and keep doing so for as long as the processes live (see README,
	// "Noise"), so several short-lived systems tell more than one
	// long-lived one. A traced run is one set-up and one window.
	setupsPerRun = 5
	// warmUp lets speakers lock and the producer's pipeline fill before
	// the window opens.
	warmUp = time.Second
	// grace is how long after the window in-flight packets may land.
	grace = 200 * time.Millisecond
	// maxGenLateUs voids a run in which a tenth of the generators' ops ran
	// further behind schedule than this: a harness that could not keep its
	// own timetable measured itself. The limit is on the p90, not the p99:
	// on the machine this was sized on the hypervisor holds a vCPU back for
	// 100–250 ms a few times an hour, the generator catches up within as
	// long again, and that alone is 1–2 % of a window's ops late by tens
	// of milliseconds (README, "Noise") without moving any gated median.
	maxGenLateUs = 5_000
	// subscriberLease outlives any run, so no subscriber refreshes
	// during the window; the control-plane load is the churners' alone.
	subscriberLeaseMs = 120_000
)

var runSerial atomic.Int64 // distinguishes set-ups within one process

// system is everything one set-up brings up.
type system struct {
	cfg   runConfig
	dir   string
	keys  *keys
	group *net.UDPAddr
	tap   *tap

	src     *source
	srcStop chan struct{}
	reb     *child
	relayA  *child // the relay under test: it carries the workload's subscribers
	relayB  *child // a second relay of the same build, leasing the stream from A
	addrA   *net.UDPAddr
	addrB   *net.UDPAddr
	opsA    string // relay A's ops endpoint; traced runs only

	probes   []*probe  // live, on relay A
	mutes    []*client // live, on relay A
	farProbe *probe    // live, on relay B: the transit a listener behind the chain sees
	// cohorts are the time-shifted joiners, one set of sockets per cycle.
	cohorts []cohort
	churn   *churn

	meter     *core.SkewMeter
	listeners []*listener // on the group, on relay A, on relay B

	profileMismatch int   // SubAcks that granted another tier than asked
	idleRSSKB       int64 // relay A's resident set before anyone subscribed
}

type cohort struct {
	probes []*probe
	mutes  []*client
}

// othersOnA is how many lessees relay A has beside the workload's
// subscribers: its speaker and relay B.
const othersOnA = 2

// far is the speaker behind the last relay; direct the one on the group.
func (s *system) far() *listener    { return s.listeners[len(s.listeners)-1] }
func (s *system) direct() *listener { return s.listeners[0] }

// setup starts the daemons, admits the live subscribers, starts the
// producer, and returns once the stream reaches every probe and sounds at
// the far speaker. cycles is
// how many time-shifted cohorts to prepare sockets for.
func setup(cfg runConfig, cycles int) (sys *system, err error) {
	w := &cfg.w
	n := runSerial.Add(1)
	s := &system{cfg: cfg, meter: core.NewSkewMeter(), srcStop: make(chan struct{})}
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()
	s.dir = filepath.Join(cfg.outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
	if err = os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if s.keys, err = newKeys(w.auth, s.dir, cfg.seed); err != nil {
		return nil, err
	}
	var ports [3]int
	for i := range ports {
		if ports[i], err = reservePort(); err != nil {
			return nil, err
		}
	}
	// A group of this set-up's own: nothing from an earlier set-up or a
	// concurrent run can land on it.
	s.group = &net.UDPAddr{IP: net.IPv4(239, 72, byte(os.Getpid()%250+1), byte(n%250+1)), Port: ports[0]}
	s.src = newSource(w.channels, w.live, cfg.seed)
	if s.tap, err = newTap(s.group, s.src.params.BytesPerFrame()); err != nil {
		return nil, err
	}

	s.addrA = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: ports[1]}
	// The table is sized well above what a run leases: a Subscribe and its
	// retransmission that reach the relay in one admission pass are both
	// inserted (see README, findings), and every such pair leaks one slot.
	args := []string{"-group", s.group.String(), "-listen", s.addrA.String(), "-report", "0", "-max-subscribers", "4096"}
	args = append(args, s.keys.flags()...)
	args = append(args, w.relayFlags...)
	if cfg.trace {
		l, err := net.Listen("tcp4", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.opsA = l.Addr().String()
		l.Close()
		args = append(args, "-ops-addr", s.opsA)
	}
	relayd := filepath.Join(cfg.binDir, "relayd")
	if s.relayA, err = spawn("relay-a", relayd, s.dir, false, args...); err != nil {
		return nil, err
	}
	if err = awaitRelay(s.keys, s.addrA, 10*time.Second); err != nil {
		return nil, err
	}
	if idle, err := sampleProc(s.relayA.pid()); err == nil {
		s.idleRSSKB = idle.currentRSSKB
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	id := uint32(subscriberBase)
	// Relay B leases the stream from A before any subscriber does, so A
	// serves it first in its shard's gather pass.
	s.addrB = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: ports[2]}
	args = []string{"-upstream", s.addrA.String(), "-listen", s.addrB.String(), "-report", "0"}
	if w.auth == "ident" {
		args = append(args, "-identity", fmt.Sprint(relayBIdentity))
	}
	args = append(args, s.keys.flags()...)
	if s.relayB, err = spawn("relay-b", relayd, s.dir, false, args...); err != nil {
		return nil, err
	}
	if err = awaitRelay(s.keys, s.addrB, 10*time.Second); err != nil {
		return nil, err
	}
	if s.farProbe, err = s.openProbe(s.addrB, &id); err != nil {
		return nil, err
	}
	if err = s.admit([]*probe{s.farProbe}, nil, 0, true); err != nil {
		return nil, err
	}
	if err = s.openSubscribers(&s.probes, &s.mutes, w.probes, w.mutes, &id); err != nil {
		return nil, err
	}
	if err = s.admit(s.probes, s.mutes, 0, true); err != nil {
		return nil, err
	}
	s.cohorts = make([]cohort, cycles)
	for c := range s.cohorts {
		co := &s.cohorts[c]
		if err = s.openSubscribers(&co.probes, &co.mutes, w.shiftProbes, w.shiftMutes, &id); err != nil {
			return nil, err
		}
	}
	if s.churn, err = newChurn(s.keys, s.addrA, rng.Perm(w.churners), w.churnRate); err != nil {
		return nil, err
	}

	sources := []lan.Addr{lan.Addr(s.group.String()), lan.Addr(s.addrA.String()), lan.Addr(s.addrB.String())}
	for i, src := range sources {
		l, err := startListener(fmt.Sprintf("speaker-%d", i), src, s.keys, speakerIdentity+uint32(i), s.meter)
		if err != nil {
			return nil, err
		}
		s.listeners = append(s.listeners, l)
	}

	s.reb, err = spawn("rebroadcastd", filepath.Join(cfg.binDir, "rebroadcastd"), s.dir, true,
		"-group", s.group.String(), "-id", fmt.Sprint(streamChannel), "-codec", "raw",
		"-rate", fmt.Sprint(sampleRate), "-channels", fmt.Sprint(w.channels))
	if err != nil {
		return nil, err
	}
	go s.src.run(s.reb.stdin, s.srcStop)

	deadline := time.Now().Add(10 * time.Second)
	for !s.streaming() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("set-up: the stream did not reach every probe and the far speaker within 10 s (logs in %s)", s.dir)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// streaming reports whether the system is up: the stream has reached
// every probe and the speaker at the end of the chain has played its
// first block of it.
func (s *system) streaming() bool {
	if s.tap.headSeq() == 0 {
		return false
	}
	for _, p := range s.allProbes() {
		if p.lastSeq() == 0 {
			return false
		}
	}
	_, sounding := s.far().firstSound()
	return sounding
}

// allProbes are the live probes on either relay.
func (s *system) allProbes() []*probe {
	return append(s.probes[:len(s.probes):len(s.probes)], s.farProbe)
}

// openProbe binds one subscriber socket on relay, takes the next identity
// for it, and starts reading it.
func (s *system) openProbe(relay *net.UDPAddr, id *uint32) (*probe, error) {
	cl, err := newClient(s.keys, *id, relay)
	if err != nil {
		return nil, err
	}
	*id++
	cl.sc.c.SetReadBuffer(1 << 20)
	return newProbe(cl), nil
}

// openSubscribers binds the sockets of one subscriber set of relay A —
// probes are read, mute sinks are not — appending to the caller's slices
// as it goes, so that whatever was opened before an error is still closed
// by teardown.
func (s *system) openSubscribers(ps *[]*probe, ms *[]*client, probes, mutes int, id *uint32) error {
	for i := 0; i < probes; i++ {
		p, err := s.openProbe(s.addrA, id)
		if err != nil {
			return err
		}
		if t := s.cfg.w.profiles; t != nil {
			p.profile = t[i%len(t)]
		}
		*ps = append(*ps, p)
	}
	for i := 0; i < mutes; i++ {
		cl, err := newClient(s.keys, *id, s.addrA)
		if err != nil {
			return err
		}
		*id++
		*ms = append(*ms, &cl)
	}
	return nil
}

// admit subscribes one set. The join order decides where a subscriber
// sits in the relay's shards, and so how early in each gather pass it is
// served; probes are spread evenly through the order — one in the middle
// of each equal stretch, the same for every seed — so together they see
// what subscribers anywhere in the table see. With wait set every ack is
// awaited (and each mute sink's is read before it goes mute); without,
// the set joins inside the measured window and no ack is waited for.
func (s *system) admit(probes []*probe, mutes []*client, shiftMs uint32, wait bool) error {
	total := len(probes) + len(mutes)
	if total == 0 {
		return nil
	}
	type member struct {
		cl    *client
		probe *probe // nil for a mute sink
		req   subReq
	}
	req := subReq{channel: streamChannel, leaseMs: subscriberLeaseMs, shiftMs: shiftMs}
	order := make([]member, 0, total)
	tiers := s.cfg.w.profiles
	for i, m := range mutes {
		if !wait {
			muteReceiveBuffer(m.sc.c) // nobody will read its ack
		}
		mem := member{cl: m, req: req}
		if tiers != nil {
			mem.req.profile = tiers[i%len(tiers)]
		}
		order = append(order, mem)
	}
	for i, p := range probes {
		// The middle of the i-th equal stretch, plus the probes already in.
		at := (2*i+1)*len(mutes)/(2*len(probes)) + i
		order = append(order, member{})
		copy(order[at+1:], order[at:])
		order[at] = member{cl: &p.client, probe: p, req: req}
		order[at].req.profile = p.profile
	}
	// Batches stay below the relay's receive queue so a join storm is not
	// tail-dropped before admission sees it; within a batch the requests
	// are all in flight before the first ack is awaited.
	const batch = 64
	seqs := make([]uint32, batch)
	for lo := 0; lo < len(order); lo += batch {
		part := order[lo:min(lo+batch, len(order))]
		for i, m := range part {
			var err error
			if seqs[i], err = m.cl.subscribe(m.req); err != nil {
				return err
			}
		}
		if !wait {
			time.Sleep(500 * time.Microsecond)
			continue
		}
		for i, m := range part {
			direct := m.probe == nil
			ev, err := m.cl.awaitAck(seqs[i], 200*time.Millisecond, direct)
			if err != nil { // lost: ask again, one at a time
				if ev, err = m.cl.request(m.req, direct); err != nil {
					return err
				}
			}
			if ev.ack.Status != proto.SubOK {
				return fmt.Errorf("relay %s refused a subscriber: %s", m.cl.relay, ev.ack.Status)
			}
			if ev.ack.Profile != m.req.profile {
				s.profileMismatch++
			}
			if direct {
				muteReceiveBuffer(m.cl.sc.c)
			}
		}
	}
	return nil
}

func (s *system) teardown() {
	if s.srcStop != nil {
		close(s.srcStop)
		s.srcStop = nil
	}
	for _, c := range []*child{s.reb, s.relayB, s.relayA} {
		if c != nil {
			c.stop()
		}
	}
	for _, l := range s.listeners {
		l.stop()
	}
	if s.churn != nil {
		s.churn.close()
	}
	closeSet := func(ps []*probe, ms []*client) {
		for _, p := range ps {
			p.close()
		}
		for _, m := range ms {
			m.sc.c.Close()
		}
	}
	closeSet(s.probes, s.mutes)
	if s.farProbe != nil { // a set-up that failed half-way has none yet
		s.farProbe.close()
	}
	for _, co := range s.cohorts {
		closeSet(co.probes, co.mutes)
	}
	if s.tap != nil {
		s.tap.close()
	}
	s.listeners, s.probes, s.mutes, s.farProbe, s.cohorts, s.churn, s.tap = nil, nil, nil, nil, nil, nil, nil
	s.reb, s.relayA, s.relayB = nil, nil, nil
}

// span is a stretch of the measured window with relay A's cost over it.
type span struct {
	from, to int64 // Unix ns
	a0, a1   procSample
	cohort   int // which time-shifted cohort was replayed in it; -1 = none
}

// observation is everything measure took from the window, before it is
// turned into metrics.
type observation struct {
	t0, t1     int64
	spans      []span // where relay CPU is attributed; the whole window unless cohorts cycle
	stolen     int64  // clock ticks the hypervisor kept from this machine's CPUs during the window
	winA0      procSample
	winA1      procSample
	half       procSample
	halfAt     int64
	reb0, reb1 procSample
	self0      int64
	self1      int64
	joins      []int64 // per cohort: when its first Subscribe left
	converged  []int64 // per cohort: when every probe reached the live head; 0 = never
	rtts       []float64
	scrape0    scrape
	scrape1    scrape
	scrapeMs   []float64
	endA       procSample
	drops      int64
}

// measure runs the window.
func (s *system) measure() (*observation, error) {
	cfg := s.cfg
	o := &observation{}
	var err error
	if cfg.trace {
		if o.scrape0, _, err = scrapeMetrics(s.opsA); err != nil {
			return nil, err
		}
	}
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		s.churn.run(churnStop)
	}()
	o.self0 = selfCPU()
	if o.reb0, err = sampleProc(s.reb.pid()); err != nil {
		return nil, err
	}
	a0, err := sampleProc(s.relayA.pid())
	if err != nil {
		return nil, err
	}
	o.stolen = -stolenTicks()
	start := time.Now()
	o.t0 = start.UnixNano()
	end := start.Add(cfg.each())

	// Halfway through, relay A is sampled once more. The second half of a
	// traced window is then scraped once a second, as an operator's
	// collector would; the first half is not, and the difference in relay
	// cost between the halves is what being watched costs.
	halfStop := make(chan struct{})
	halfDone := make(chan struct{})
	go func() {
		defer close(halfDone)
		select {
		case <-halfStop:
			return
		case <-time.After(cfg.each() / 2):
		}
		o.half, _ = sampleProc(s.relayA.pid())
		o.halfAt = time.Now().UnixNano()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for cfg.trace {
			if _, ms, err := scrapeMetrics(s.opsA); err == nil {
				o.scrapeMs = append(o.scrapeMs, ms)
			}
			select {
			case <-halfStop:
				return
			case <-tick.C:
			}
		}
	}()

	if len(s.cohorts) > 0 {
		if err = s.cycleCohorts(o, end); err != nil {
			return nil, err
		}
	}
	time.Sleep(time.Until(end))

	a1, err := sampleProc(s.relayA.pid())
	if err != nil {
		return nil, err
	}
	o.t1 = time.Now().UnixNano()
	o.stolen += stolenTicks()
	if o.reb1, err = sampleProc(s.reb.pid()); err != nil {
		return nil, err
	}
	o.self1 = selfCPU()
	close(churnStop)
	<-churnDone
	close(halfStop)
	<-halfDone
	o.winA0, o.winA1 = a0, a1
	if len(s.cohorts) == 0 {
		o.spans = []span{{from: o.t0, to: o.t1, a0: a0, a1: a1, cohort: -1}}
	}
	o.rtts = s.churn.settle()
	time.Sleep(grace)
	if cfg.trace {
		if o.scrape1, _, err = scrapeMetrics(s.opsA); err != nil {
			return nil, err
		}
	}
	if o.endA, err = sampleProc(s.relayA.pid()); err != nil {
		return nil, err
	}
	ports := map[int]bool{}
	for _, p := range s.allProbes() {
		ports[p.port()] = true
	}
	for _, co := range s.cohorts {
		for _, p := range co.probes {
			ports[p.port()] = true
		}
	}
	o.drops, _ = socketDrops(ports)
	return o, nil
}

// cycleCohorts runs join → replay → converge → cancel for one cohort
// after another until the window has no room for the next. Relay cost is
// attributed to the join → converge spans only: that is replay, with the
// handful of live listeners beside it.
func (s *system) cycleCohorts(o *observation, end time.Time) error {
	shift := s.cfg.w.shift(s.cfg.each())
	for i, co := range s.cohorts {
		a0, err := sampleProc(s.relayA.pid())
		if err != nil {
			return err
		}
		join := time.Now()
		if err := s.admit(co.probes, co.mutes, uint32(shift/time.Millisecond), false); err != nil {
			return err
		}
		var conv time.Time
		for time.Now().Before(end) {
			head := s.tap.headSeq()
			ok := true
			for _, p := range co.probes {
				if p.lastSeq()+2 < head {
					ok = false
					break
				}
			}
			if ok {
				conv = time.Now()
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		a1, err := sampleProc(s.relayA.pid())
		if err != nil {
			return err
		}
		o.joins = append(o.joins, join.UnixNano())
		if conv.IsZero() {
			o.converged = append(o.converged, 0)
			return nil
		}
		o.converged = append(o.converged, conv.UnixNano())
		o.spans = append(o.spans, span{from: join.UnixNano(), to: conv.UnixNano(), a0: a0, a1: a1, cohort: i})
		// Cancel the cohort so the next one is replayed alone. Cancels are
		// unacknowledged and a burst can overrun the relay's receive queue,
		// so they go out paced, and twice: a cancel for a lease already
		// gone is a no-op.
		for pass := 0; pass < 2; pass++ {
			n := 0
			cancel := func(c *client) {
				c.subscribe(subReq{channel: streamChannel})
				if n++; n%32 == 0 {
					time.Sleep(500 * time.Microsecond)
				}
			}
			for _, p := range co.probes {
				cancel(&p.client)
			}
			for _, m := range co.mutes {
				cancel(m)
			}
			time.Sleep(100 * time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond) // let the queues drain
	}
	return nil
}

// cohortCycles is how many join → converge cycles fit a window: a cohort
// replays shift of backlog at dvrBurst against a live rate of about 140
// packets/s, then needs a moment to cancel.
func cohortCycles(w *workload, window time.Duration) int {
	shift := w.shift(window)
	if shift == 0 {
		return 0
	}
	const liveRate = 140.0
	cycle := time.Duration(float64(shift)*liveRate/(dvrBurst-liveRate)) + 500*time.Millisecond
	return max(1, int(float64(window)/(1.15*float64(cycle))))
}

// runOnce is preflight, then for each set-up: bring the system up, wait
// for it to warm, measure its share of the window, check what came out,
// tear it down; then the verdict over all of them. Every run is reported
// as it went: nothing is measured twice.
func runOnce(cfg runConfig) (*result, error) {
	if err := preflight(); err != nil {
		return nil, err
	}
	cycles := cohortCycles(&cfg.w, cfg.each())
	// Fixed waits are not set-up work and are left out of setup_s: the
	// warm-up, and for time-shifted cohorts the real time it takes the
	// relay's ring to hold shift of history.
	fill := warmUp
	if shift := cfg.w.shift(cfg.each()); shift > 0 {
		fill = shift + time.Second
	}
	r := newResult(cfg)
	var setupS []float64
	var parts []*figures
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		sys, err := setup(cfg, cycles)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		time.Sleep(fill)
		err = func() error {
			defer sys.teardown()
			o, err := sys.measure()
			if err != nil {
				return err
			}
			failedBefore := r.failures()
			f := sys.assess(o, r)
			parts = append(parts, f)
			if cfg.trace {
				if err := sys.traced(o, f, r); err != nil {
					return err
				}
			}
			// The daemons' logs are kept only when there is something to
			// look up.
			if r.failures() == failedBefore {
				os.RemoveAll(sys.dir)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	r.conclude(setupS, parts)
	return r, nil
}

// reportMissing says on standard error which stretches of [first, last]
// a probe never received and when the tap saw them, so that a failed run
// shows whether one subscriber or the whole relay lost them.
func reportMissing(port int, got []delivery, ref map[uint64]delivery, first, last uint64, t0 int64) {
	seen := make(map[uint64]bool, len(got))
	for _, d := range got {
		seen[d.seq] = true
	}
	var from uint64
	for seq := first; seq <= last+1; seq++ {
		t, ok := ref[seq]
		miss := ok && !seen[seq] && seq <= last
		if miss && from == 0 {
			from = seq
			fmt.Fprintf(os.Stderr, "esbench: probe :%d missed seq %d (on the wire at +%.3f s)", port, seq, float64(t.ts-t0)/1e9)
		}
		if !miss && from != 0 {
			fmt.Fprintf(os.Stderr, " to %d, %d packets\n", seq-1, seq-from)
			from = 0
		}
	}
}

// reportReorders says on standard error which packets reached a probe
// after a later one or a second time, and how long after by the kernel's
// receive stamps.
func reportReorders(port int, got []delivery) {
	for i := 1; i < len(got); i++ {
		if got[i].seq <= got[i-1].seq {
			fmt.Fprintf(os.Stderr, "esbench: probe :%d received seq %d after seq %d, stamped %.3f ms later\n",
				port, got[i].seq, got[i-1].seq, float64(got[i].ts-got[i-1].ts)/1e6)
		}
	}
}

// within counts the deliveries stamped inside any of spans.
func within(ds []delivery, spans []span) int {
	n := 0
	for _, d := range ds {
		for _, sp := range spans {
			if d.ts >= sp.from && d.ts <= sp.to {
				n++
				break
			}
		}
	}
	return n
}

// assess checks one set-up's window for correctness, booking every
// operation in r, and returns what the set-up measured.
func (s *system) assess(o *observation, r *result) *figures {
	w := &s.cfg.w
	tapData, _ := s.tap.snapshot()
	ref := make(map[uint64]delivery, len(tapData))
	for _, t := range tapData {
		ref[t.seq] = t.delivery
	}

	// What every live probe was owed: the packets the tap saw inside the
	// window. Packets from the last moments may still be in a relay.
	var first, last uint64
	var tapIn []delivery
	for _, t := range tapData {
		tapIn = append(tapIn, t.delivery)
		if t.ts < o.t0 || t.ts > o.t1-int64(grace) {
			continue
		}
		if first == 0 {
			first = t.seq
		}
		last = t.seq
	}
	owed := 0
	if first != 0 {
		owed = int(last - first + 1)
	}
	// The stream is still running while this is worked out: what reached
	// a probe after the tap's record was copied is not in question.
	var tapLast uint64
	if len(tapData) > 0 {
		tapLast = tapData[len(tapData)-1].seq
	}
	settled := func(p *probe) []delivery {
		got := p.deliveries()
		for len(got) > 0 && got[len(got)-1].seq > tapLast {
			got = got[:len(got)-1]
		}
		return got
	}
	// transitOf is what the tap-to-probe way took for every packet the tap
	// stamped inside the window.
	transitOf := func(got []delivery) []float64 {
		var us []float64
		for _, d := range got {
			if t, ok := ref[d.seq]; ok && t.ts >= o.t0 && t.ts <= o.t1 {
				us = append(us, float64(d.ts-t.ts)/1e3)
			}
		}
		return us
	}
	// checked books one live probe's stream against what it was owed and
	// returns what it received.
	checked := func(p *probe) []delivery {
		got := settled(p)
		c := checkStream(got, ref, p.profile == 0, first, last)
		r.tallyStream("probe", owed, len(got), c)
		if c.missing > 0 {
			reportMissing(p.port(), got, ref, first, last, o.t0)
		}
		if c.reorders+c.duplicates > 0 {
			reportReorders(p.port(), got)
		}
		return got
	}
	// The gated transit is the probe's behind relay B, two hops from the
	// producer through the relay under test; that of relay A's own
	// subscribers is reported per layer (see README, "Where the latencies
	// are measured").
	farTransit := transitOf(checked(s.farProbe))
	// Datagrams the relay under test sent inside the spans its CPU is
	// attributed to. Mute sinks are not observed, so each subscriber set is
	// taken to have received what its probes received on average.
	var transitA []float64
	var perLive float64
	for _, p := range s.probes {
		got := checked(p)
		transitA = append(transitA, transitOf(got)...)
		perLive += float64(within(got, o.spans)) / float64(len(s.probes))
	}
	r.count("granted tiers", len(s.allProbes())+len(s.mutes), s.profileMismatch)
	onA := perLive * float64(len(s.probes)+len(s.mutes))

	// Time-shifted probes: no gap from the first replayed packet to the
	// live head, and they must have got there.
	var catchup, firstReplay []float64
	for i, co := range s.cohorts {
		if i >= len(o.joins) {
			break // the window closed before this cohort's turn
		}
		var sp []span
		for _, x := range o.spans {
			if x.cohort == i {
				sp = append(sp, x)
			}
		}
		if o.converged[i] == 0 {
			r.count("cohort convergence", 1, 1)
		} else {
			r.count("cohort convergence", 1, 0)
			catchup = append(catchup, float64(o.converged[i]-o.joins[i])/1e9)
		}
		var perShifted float64
		for _, p := range co.probes {
			got := settled(p)
			if len(got) == 0 {
				r.count("replay deliveries", 1, 1)
				continue
			}
			lo, hi := got[0].seq, got[len(got)-1].seq
			c := checkStream(got, ref, true, lo, hi)
			r.tallyStream("replay", int(hi-lo+1), len(got), c)
			if c.reorders+c.duplicates > 0 {
				reportReorders(p.port(), got)
			}
			firstReplay = append(firstReplay, float64(got[0].ts-o.joins[i])/1e6)
			perShifted += float64(within(got, sp)) / float64(len(co.probes))
		}
		size := float64(len(co.probes) + len(co.mutes))
		onA += perShifted*size + size // the stream, and one SubAck each
	}

	// Beside its subscribers relay A sends one copy of every packet to its
	// speaker and one to relay B, and answers the churners.
	var spanNs, cpuNs int64
	for _, sp := range o.spans {
		spanNs += sp.to - sp.from
		cpuNs += sp.a1.cpuNs - sp.a0.cpuNs
	}
	delivered := onA + float64(othersOnA*within(tapIn, o.spans)) +
		float64(len(o.rtts))*float64(spanNs)/float64(o.t1-o.t0)
	if w.churners > 0 {
		r.count("control requests", s.churn.requests, s.churn.unanswered)
		r.count("control refusals", s.churn.requests, s.churn.refused)
		r.retransmits += s.churn.retransmits
	}

	// The gated playout latency is that of audio due in the first half of
	// the window. The simulated DAC runs slow on the real clock (see
	// README), so latency climbs by some 10 ms for every second a speaker
	// has been playing, at a rate that depends on how the harness's own
	// threads were scheduled; early audio carries little of that, and the
	// climb is reported per layer.
	var playAt, playMs, playEarly []float64
	for _, p := range s.far().latencies(s.src, tapData, o.t0, o.t1) {
		playAt, playMs = append(playAt, p.at), append(playMs, p.ms)
		if p.due < o.t0+(o.t1-o.t0)/2 {
			playEarly = append(playEarly, p.ms)
		}
	}
	// A speaker passes if it played the program inside the window. Its
	// DroppedLate and GapFills are reported per layer, not failed here:
	// with the DAC running slow a speaker discards a batch to catch up
	// every dozen seconds or so on unchanged code.
	for _, l := range s.listeners {
		silent := 1
		if l.playedIn(o.t0, o.t1) > 0 {
			silent = 0
		}
		r.count("speakers playing", 1, silent)
	}

	sort.Float64s(farTransit)
	sort.Float64s(transitA)
	return &figures{
		cpuNs: cpuNs, delivered: delivered, peakRSSKB: o.endA.peakRSSKB,
		transit: farTransit, transitA: transitA, playEarly: playEarly,
		late:   append(s.src.lateness(), s.churn.late...),
		selfNs: o.self1 - o.self0, stolen: o.stolen, windowNs: o.t1 - o.t0, drops: o.drops,
		playAt: playAt, playMs: playMs, catchup: catchup, firstReplay: firstReplay, tapData: tapData,
	}
}

// figures is what one set-up measured.
type figures struct {
	cpuNs     int64     // relay A's CPU over the spans it is attributed to
	delivered float64   // datagrams relay A sent in them
	peakRSSKB int64     // relay A's VmHWM
	transit   []float64 // µs, sorted: tap → the probe behind relay B
	transitA  []float64 // µs, sorted: tap → relay A's own probes
	playEarly []float64 // ms: audio due → played, first half of the window

	// The harness's own conduct.
	late     []float64 // µs behind schedule, per generator op
	selfNs   int64     // harness CPU
	stolen   int64     // clock ticks the hypervisor kept back
	windowNs int64
	drops    int64 // datagrams dropped at probe sockets

	// What the traced pass reports more of.
	playAt, playMs       []float64
	catchup, firstReplay []float64
	tapData              []tapRec
}

// conclude turns the set-ups' figures into the run's end-to-end metrics —
// each the median over the set-ups — and applies the harness validity
// limits: a generator that ran late or a harness that ate the machine
// measured itself, not the daemons.
func (r *result) conclude(setupS []float64, parts []*figures) {
	var cpu, rss, transit, play, late []float64
	var delivered, nTransit, nPlay int
	var selfNs, windowNs, stolen, drops int64
	for _, f := range parts {
		if f.delivered > 0 {
			cpu = append(cpu, float64(f.cpuNs)/f.delivered)
			delivered += int(f.delivered)
		}
		rss = append(rss, float64(f.peakRSSKB)/1024)
		if len(f.transit) > 0 {
			transit = append(transit, quantile(f.transit, 0.5))
			nTransit += len(f.transit)
		}
		if len(f.playEarly) > 0 {
			play = append(play, median(f.playEarly))
			nPlay += len(f.playEarly)
		}
		late = append(late, f.late...)
		selfNs, windowNs, stolen, drops = selfNs+f.selfNs, windowNs+f.windowNs, stolen+f.stolen, drops+f.drops
	}
	r.end("setup_s", setupS, len(setupS))
	// Relay A's CPU per datagram it sent is reported on every run but is
	// not an end-to-end metric: on the machine this was sized on it spreads
	// wider from run to run than any bound the contract allows (README,
	// "Noise").
	r.report("relay.cpu_ns_per_pkt", cpu, delivered)
	r.end("relay_peak_rss_mb", rss, len(rss))
	r.end("transit_p50_us", transit, nTransit)
	r.end("playout_latency_p50_ms", play, nPlay)

	r.genLate = summarize(late, 0.99)
	r.cpuShare = float64(selfNs) / float64(windowNs)
	r.stolenPct = 100 * float64(stolen) / clockTicks / (float64(windowNs) / 1e9)
	r.drops = drops
	if r.cpuShare > 0.5 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("harness.cpu_share %.2f > 0.5", r.cpuShare))
	}
	sort.Float64s(late)
	if l := quantile(late, 0.9); l > maxGenLateUs {
		r.Invalid = append(r.Invalid, fmt.Sprintf("a tenth of the generators' ops ran more than %.0f us behind schedule (limit %d)", l, maxGenLateUs))
	}
	if drops > 0 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("harness.probe_rcvbuf_drops %d > 0", drops))
	}
	if r.Trace {
		r.layer("harness.gen_late_p99_us", r.genLate.Tail, r.genLate.N)
		r.layer("harness.cpu_share", r.cpuShare, 1)
		r.layer("harness.probe_rcvbuf_drops", float64(drops), 1)
		r.layer("harness.steal_pct", r.stolenPct, 1)
		r.layer("relay.duplicates", float64(r.duplicates), r.Ops["probe order"].Attempted)
	}
	r.finish()
}
