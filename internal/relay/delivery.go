package relay

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dvr"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
)

// Delivery: one arrival sequence, many cursors. The relay numbers every
// accepted upstream packet once, whatever its channel, and a subscriber
// is a position in that numbering plus a channel filter, a tier, and a
// pacing bucket — the per-listener object is the lease, never a copy of
// the stream. A live subscriber is a cursor with zero lag; one that
// falls more than Config.QueueLen entries behind is clamped forward and
// the jump charged as queue-full drops; a time-shifted join places the
// cursor in the past and a pause stops it, and either is then fed at
// Config.DVRBurst packets per second until cursor == head, its tokens
// earned at refill instants every replaying cursor shares, so that no
// timer need hold a batch for company (refill). There is no
// second structure to hand over to, so there is no seam: fanout appends
// and wakes the shard workers, and one gather loop — run by a worker, or
// by fanout itself for the chained lessees — serves every kind of
// subscriber.
//
// A packet's fan-out starts with the subtree feeds. Within a shard the
// chained lessees (downstream relays) lead the order (shard.place), and
// fanout gathers and sends their copies itself, on the receive
// goroutine, before it encodes any tier or wakes any worker: a
// downstream relay's copy, which every listener behind it waits on,
// waits for no transcode, no wake-up and no other shard's batch. A
// chained lessee on a tier other than the source is the exception: its
// copy waits for its encode, and its worker sends it. The workers then
// go in rounds — a worker yields after every full batch, so each shard's
// first batch goes out before any shard's second.
//
// Two goroutines may so gather for one subscriber, and FIFO on the wire
// is kept by one rule: a subscriber's datagrams sit in at most one
// unflushed batch (subscriber.inflight). A gather skips a subscriber
// another batch holds; flush releases it, and the goroutine that owns
// the batch, or the wake that follows fanout's own send, serves the rest.
//
// The last QueueLen entries are held by reference with the per-tier
// payloads buildProfilePayloads encoded on the receive path once the
// source-tier copies had left, so live delivery copies nothing. With
// Config.DVR the same indexes address a dvr.Ring holding the deep
// history; a cursor placed behind reads from it into a buffer owned by
// the batch slot it fills.

// entry is one accepted upstream packet. It is published with its source
// payload only; fanout then writes the tier variants and sets tiered, and
// the entry is immutable from there on.
type entry struct {
	seq      uint64          // index in the arrival sequence
	ch       uint32          // channel id
	at       time.Time       // arrival on the process clock, for residency
	payloads profilePayloads // wire variants per tier; nil falls back to the source's once tiered
	// tiered is set once the tier slots are written: a cursor on a tier
	// other than the source stops short of an entry without it (next).
	tiered atomic.Bool
}

// sequence is the relay's arrival sequence. Appenders (Run, and Inject
// callers beside it) serialize on mu; readers never lock: an entry is
// published into win before head admits its index.
type sequence struct {
	mu    sync.Mutex
	chans map[uint32]channel // the channels being tracked, at most maxChannels
	swept uint64             // head at the last sweep's trimChannels
	ring  *dvr.Ring          // deep history at the same indexes (nil without Config.DVR)

	// win is the live window, indexed seq % len(win). It has one slot
	// more than QueueLen: the appender may have overwritten the oldest
	// slot before it publishes the head that retires it.
	win  []atomic.Pointer[entry]
	head atomic.Uint64 // next index to be written
}

// maxChannels bounds the channel ids a relay tracks at once (sequence.chans
// and, with them, Relay.streams and its three transcoders a channel). A
// group carries one channel by the paper's design and a handful in
// practice; the bound is what a producer spraying ids can make a relay
// hold. Past it, packets of an id not yet tracked are refused until the
// sweep has retired a quiet one (trimChannels).
const maxChannels = 256

// channel is the sequence's account of one channel id.
type channel struct {
	passed uint64 // packets accepted so far: what a lessee of the channel is owed
	last   uint64 // arrival index of the newest, or the head when one was last admitted
}

// admit reports whether packets of ch are tracked, starting to if the
// table has room. An admitted packet marks its channel as heard from
// here on, not only once fanout has appended it: trimChannels decides
// under s.mu, so a channel resuming from quiet cannot lose its stream
// between its packet's admission and its append. handlePacket calls it
// under r.mu; s.mu stays a leaf.
func (s *sequence) admit(ch uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chans[ch]
	if !ok && len(s.chans) >= maxChannels {
		return false
	}
	s.chans[ch] = channel{passed: c.passed, last: s.head.Load()}
	return true
}

// quiet reports whether c has had no packet since index since and its
// newest has left a live window of the given length. Caller holds s.mu.
func (s *sequence) quiet(c channel, since uint64, window int) bool {
	return c.last < since && s.head.Load()-c.last > uint64(window)
}

// trimChannels forgets the channels that no subscriber leases by id, that
// have been silent for a whole sweep and whose newest packet has left the
// live window: the sequence's account and the stream with its transcoders
// go together. The count a returning id restarts from is owed to nobody,
// because only a lessee by id reads it. That is decided with every
// shard locked, so no lease can appear or change filter meanwhile — and
// only on a sweep that found a quiet channel at all, which on a relay
// carrying its ordinary few is when one of them has stopped.
func (r *Relay) trimChannels() {
	s := &r.seq
	s.mu.Lock()
	since, found := s.swept, false
	s.swept = s.head.Load()
	for _, c := range s.chans {
		if found = s.quiet(c, since, r.cfg.QueueLen); found {
			break
		}
	}
	s.mu.Unlock()
	if !found {
		return
	}
	leased := make(map[uint32]bool)
	for _, sh := range r.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock() // all of them, until the trim is done
		for _, sub := range sh.order {
			leased[sub.channel] = true
		}
	}
	// txMu outside seq.mu, which is a leaf everywhere else too.
	r.txMu.Lock()
	defer r.txMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch, c := range s.chans {
		if !leased[ch] && s.quiet(c, since, r.cfg.QueueLen) {
			delete(s.chans, ch)
			delete(r.streams, ch)
		}
	}
}

// at returns the entry at idx while the live window still holds it.
func (s *sequence) at(idx uint64) *entry {
	if e := s.win[idx%uint64(len(s.win))].Load(); e != nil && e.seq == idx {
		return e
	}
	return nil
}

// tip returns the head and how many of the packets before it a lessee
// of ch (0: every channel) is owed — where a subscriber joining live
// starts. Caller holds s.mu.
func (s *sequence) tip(ch uint32) (head, passed uint64) {
	head = s.head.Load()
	if ch == 0 {
		return head, head
	}
	return head, s.chans[ch].passed
}

// goLive puts sub's cursor at the head: zero lag.
func (r *Relay) goLive(sub *subscriber) {
	r.seq.mu.Lock()
	sub.cursor, sub.passed = r.seq.tip(sub.channel)
	r.seq.mu.Unlock()
}

// fanout appends one upstream packet to the arrival sequence, sends the
// chained lessees' copies (serveLead), builds the per-tier variants and
// wakes the shard workers for everyone else. ch is the packet's channel
// id (already parsed by handlePacket). The entry is published with its
// source payload alone, so a downstream relay's copy leaves before any
// tier is encoded; the encodes follow, once per active tier and outside
// every lock but txMu, and a tier subscriber's cursor waits for them
// (entry.tiered).
func (r *Relay) fanout(ch uint32, data []byte) {
	e := &entry{ch: ch, at: time.Now()}
	e.payloads[codec.ProfileSource] = data
	s := &r.seq
	s.mu.Lock()
	e.seq = s.head.Load()
	s.chans[ch] = channel{passed: s.chans[ch].passed + 1, last: e.seq}
	if s.ring != nil {
		t, _, _ := proto.PeekType(data)
		s.ring.Append(data, t == proto.TypeControl)
	}
	s.win[e.seq%uint64(len(s.win))].Store(e)
	s.head.Store(e.seq + 1)
	s.mu.Unlock()
	for _, sh := range r.shards {
		r.serveLead(sh)
	}
	r.buildProfilePayloads(ch, data, &e.payloads)
	e.tiered.Store(true)
	// The wake comes after every lead flush, so a worker whose gather
	// skipped a lessee that fanout's batch held serves it now, and after
	// the tier variants, so one that stopped at this entry for them does.
	for _, sh := range r.shards {
		sh.mu.Lock()
		if len(sh.order) > 0 {
			sh.work.Broadcast()
		}
		sh.mu.Unlock()
	}
}

// serveLead takes one gather pass over sh's chained lessees on the
// calling goroutine and flushes it, counted as a quiesce flush: the
// worker's cursors, accounting and flush, in the shard's lead batch. A
// UDP send has no per-destination back-pressure, so only a full local
// send buffer can block it, and that blocks every worker alike.
func (r *Relay) serveLead(sh *shard) {
	sh.mu.Lock()
	b := sh.leadBatch
	if sh.lead == 0 || sh.stopped || b == nil {
		// nil: another fanout is sending it, and the lessees it holds
		// are its to serve; the worker, woken next, serves anyone else.
		sh.mu.Unlock()
		return
	}
	sh.leadBatch = nil
	b.dgs, b.owners = b.dgs[:0], b.owners[:0]
	r.gather(sh, b)
	sh.mu.Unlock()
	if len(b.dgs) > 0 {
		r.flush(sh, b.dgs, b.owners, flushQuiesce)
	}
	sh.mu.Lock()
	sh.leadBatch = b
	sh.mu.Unlock()
}

// seek moves a live cursor to the next entry its filter delivers and
// returns it, or nil once the cursor is at the head; a cursor more than
// QueueLen behind is clamped first. Caller holds sh.mu.
func (r *Relay) seek(sh *shard, sub *subscriber) *entry {
	for {
		head := r.seq.head.Load()
		if sub.cursor >= head {
			return nil
		}
		if head-sub.cursor > uint64(r.cfg.QueueLen) {
			r.clamp(sh, sub)
		}
		e := r.seq.at(sub.cursor)
		if e == nil {
			continue // the appender lapped this read: clamp again
		}
		if sub.channel == 0 || e.ch == sub.channel {
			return e
		}
		sub.cursor++
	}
}

// clamp moves a live cursor up to QueueLen entries behind the head and
// charges it the packets it skipped as queue-full drops: those of its
// own filter only, so a channel lessee is never charged for another
// channel's packet. They are counted as what the subscriber is owed up
// to the head, less what it has passed, less what still waits in the
// window. Caller holds sh.mu.
func (r *Relay) clamp(sh *shard, sub *subscriber) {
	s := &r.seq
	s.mu.Lock()
	head, owed := s.tip(sub.channel)
	sub.cursor = head - uint64(r.cfg.QueueLen)
	n := int64(owed-sub.passed) - int64(r.backlog(sub))
	s.mu.Unlock()
	sub.passed += uint64(n)
	sub.dropped += n
	sh.dropped += n
	for ; n > 0; n-- {
		r.tracer.Drop(obs.PathFanout, obs.ReasonQueueFull, string(sub.addr), sub.channel)
	}
}

// backlog counts the packets waiting for a live subscriber: the entries
// between its cursor and the head, as far back as the clamp allows,
// that its filter delivers.
func (r *Relay) backlog(sub *subscriber) (n int) {
	if sub.replay || sub.paused {
		return 0
	}
	head := r.seq.head.Load()
	for i := max(sub.cursor, head-min(head, uint64(r.cfg.QueueLen))); i < head; i++ {
		if e := r.seq.at(i); e != nil && (sub.channel == 0 || e.ch == sub.channel) {
			n++
		}
	}
	return n
}

// settle brings the shard's live cursors up to date without delivering
// anything and returns the shard's queue depth. Clamps and their drop
// charges otherwise wait for the worker to reach the subscriber, which
// a stalled send socket can delay for as long as it likes, so the sweep
// settles every shard (before the ladder reads the drops), and so do
// Subscribers and Pressure. Caller holds sh.mu.
func (r *Relay) settle(sh *shard) (queued int) {
	for _, sub := range sh.order {
		if !sub.replay && !sub.paused {
			r.seek(sh, sub)
			queued += r.backlog(sub)
		}
	}
	sh.queued = queued
	sh.maxQueued = max(sh.maxQueued, queued)
	return queued
}

// refill tops up sub's replay token bucket and returns how long until it
// holds a whole token (0: ready). Tokens accrue one per quantum,
// q = 1s/Config.DVRBurst, at the instants origin + k·q that every cursor
// of the relay shares, and at most 100 ms worth are kept. So a catch-up
// cohort, however staggered its joins, comes due at once: the worker's
// one timed wait wakes with all of it eligible, and the pass fills a
// batch without any timer holding it. The ticks are counted with
// Time.Sub from the relay's origin, which keeps the monotonic reading
// (Time.Truncate would drop it, and a wall-clock step would then stall
// or burst every replay).
func (r *Relay) refill(sub *subscriber, now time.Time) time.Duration {
	q := time.Second / time.Duration(r.cfg.DVRBurst)
	k := int64(now.Sub(r.origin) / q)
	burst := int64(max(r.cfg.DVRBurst/10, 1))
	if sub.ticks == 0 {
		sub.tokens = 1 // the seed: a replay's first packet leaves at once
	} else {
		sub.tokens = int(min(int64(sub.tokens)+k+1-sub.ticks, burst))
	}
	sub.ticks = k + 1
	if sub.tokens > 0 {
		return 0
	}
	return r.origin.Add(time.Duration(k+1) * q).Sub(now)
}

// pass is what one gather pass shares across its subscribers: the relay
// clock (replay pacing), the process clock (residency — the simulated
// clock would report it as zero), and the replay accounting.
type pass struct {
	now, wall       time.Time
	served, evicted int64
}

// next takes the next packet owed to sub, returning its wire bytes, or
// nil and — when only an empty token bucket stands in the way — how
// long until a token is due. A live cursor is handed the window's entry
// by reference; one on a tier other than the source stops, its cursor
// unchanged, at an entry whose tier variants fanout is still building.
// A replay cursor reads the recorded history instead, into *slot,
// transcoded for the subscriber's tier on demand; one the ring wrapped
// past restarts at its oldest entry and is counted; one that reaches
// the head is live from the next packet on. Caller holds sh.mu.
func (r *Relay) next(sh *shard, sub *subscriber, slot *[]byte, p *pass) ([]byte, time.Duration) {
	for !sub.paused {
		if !sub.replay {
			e := r.seek(sh, sub)
			if e == nil || sub.profile != codec.ProfileSource && !e.tiered.Load() {
				break // at the head, or this tier's variant is not built yet: fanout's wake follows it
			}
			sub.cursor, sub.passed = sub.cursor+1, sub.passed+1
			r.queueResidency.Observe(p.wall.Sub(e.at))
			if data := e.payloads[sub.profile]; data != nil {
				return data, 0
			}
			return e.payloads[codec.ProfileSource], 0
		}
		if sub.cursor >= r.seq.head.Load() {
			r.seq.mu.Lock()
			head, passed := r.seq.tip(sub.channel)
			r.seq.mu.Unlock()
			if sub.cursor >= head { // converged: live from the next packet on
				sub.replay, sub.passed = false, passed
				r.catchupActive.Add(-1)
			}
			continue
		}
		if wait := r.refill(sub, p.now); wait > 0 {
			return nil, wait
		}
		data, age, _, st := r.seq.ring.Read(sub.cursor, *slot)
		*slot = data
		if st == dvr.ReadEvicted {
			sub.cursor = r.seq.ring.Tail()
			p.evicted++
			continue
		}
		sub.cursor++
		_, ch, err := proto.PeekType(data)
		if st != dvr.ReadOK || err != nil || (sub.channel != 0 && ch != sub.channel) {
			continue
		}
		if sub.profile != codec.ProfileSource {
			if b := r.transcodeFor(ch, data, sub.profile); b != nil {
				data = b
			}
		}
		sub.tokens--
		p.served++
		r.catchupLag.Observe(age)
		return data, 0
	}
	return nil, 0
}

// batch is a shard worker's pending WriteBatch.
type batch struct {
	dgs    []lan.Datagram
	owners []*subscriber // owners[i] is the subscriber behind dgs[i]
	// slots[i] backs dgs[i] when that packet was read from the deep
	// ring: a buffer per batch position, reused only after the flush, so
	// backlog packets gathered into one batch never alias.
	slots [][]byte
	// lead marks a shard's lead batch (serveLead): it walks the
	// chained lessees only, and leaves a replaying or paused cursor to
	// the worker, which paces it.
	lead bool
}

// gather walks the shard once (a lead batch: its chained lessees),
// taking at most one packet per subscriber — round-robin, so a deep
// backlog cannot starve its neighbours, and FIFO per subscriber because
// a cursor only moves forward and its datagrams sit in one unflushed
// batch at a time (subscriber.inflight). It reports
// whether it took anything (a pass that takes nothing has left every
// cursor at the head, paused, or out of tokens — or held by another
// goroutine's batch) and, for the out-of-tokens case, the shortest
// refill delay, so the worker can sleep exactly that long. Caller holds
// sh.mu.
func (r *Relay) gather(sh *shard, b *batch) (progress bool, wait time.Duration) {
	p := pass{now: r.clock.Now(), wall: time.Now()}
	before, head := len(b.dgs), r.seq.head.Load()
	subs := sh.order
	if b.lead {
		subs = sh.order[:sh.lead]
	}
	for _, sub := range subs {
		if len(b.dgs) >= len(b.slots) {
			break
		}
		if sub.cursor >= head && !sub.replay {
			continue // the common case, without the calls: live and up to date
		}
		if sub.inflight != nil && sub.inflight != b || sub.replay && b.lead {
			continue // its last packet waits in another batch (FIFO), or the worker paces it
		}
		data, w := r.next(sh, sub, &b.slots[len(b.dgs)], &p)
		if data != nil {
			b.dgs = append(b.dgs, lan.Datagram{To: sub.addr, Data: data})
			b.owners = append(b.owners, sub)
			sub.inflight = b
		} else if w > 0 && (wait == 0 || w < wait) {
			wait = w
		}
	}
	if p.served+p.evicted > 0 {
		r.count(func(s *Stats) {
			s.DVRBacklog += p.served
			s.DVREvictions += p.evicted
		})
	}
	return len(b.dgs) > before, wait
}

// flushTrigger names what caused a batch flush.
type flushTrigger int

const (
	flushSize    flushTrigger = iota // batch reached cfg.Batch
	flushQuiesce                     // the shard ran dry, or the relay is stopping
)

// shardWorker turns its shard's cursors into lan.Datagram batches, and
// is work-conserving about it: a batch flushes when full (size) or the
// moment a gather pass takes nothing more (quiesce — every cursor at the
// head, paused, or out of tokens; the relay stopping is the last such
// flush). No packet waits on a timer: a relay's hold time is skew
// between the speakers behind it and those on the group (§3.2 anchors
// the producer's clock at arrival), and at audio rates the only company
// a linger could collect is the next packet, a whole period away.
// Batches still fill without one. Under load, arrivals pile up behind
// the cursors while a flush is in WriteBatch outside the shard lock, and
// the next pass gathers them together; in a DVR catch-up, every replay
// bucket refills at the same instants (refill), so the pass at each one
// finds the whole cohort due.
func (r *Relay) shardWorker(sh *shard) {
	defer func() {
		r.mu.Lock()
		r.workersDone++
		r.workersIdle.Broadcast()
		r.mu.Unlock()
	}()
	b := batch{dgs: lan.GetBatch(), slots: make([][]byte, r.cfg.Batch)}
	defer func() { lan.PutBatch(b.dgs) }() // reuse pool: zero steady-state allocation
	for {
		b.dgs, b.owners = b.dgs[:0], b.owners[:0]
		trigger := flushQuiesce
		sh.mu.Lock()
		for {
			progress, wait := r.gather(sh, &b)
			if len(b.dgs) >= len(b.slots) {
				trigger = flushSize
				break
			}
			if sh.stopped || len(b.dgs) > 0 && !progress {
				break // stopping, or ran dry: send what there is, now
			}
			switch {
			case progress:
				// Cursors may still be behind the head.
			case wait > 0:
				// Token-starved replay and nothing else to do: sleep until
				// the next refill instant rather than waiting for a signal
				// that may never come. An arrival wakes it early.
				sh.work.WaitTimeout(&sh.mu, wait)
			default:
				sh.work.Wait(&sh.mu)
			}
		}
		stopped := sh.stopped
		sh.mu.Unlock()
		if len(b.dgs) > 0 {
			r.flush(sh, b.dgs, b.owners, trigger)
		}
		if trigger == flushSize {
			// The shard has more to send: let the other shards send a
			// batch first. A goroutine inside sendmmsg keeps its P until
			// the runtime takes it back, and at audio rates the relay
			// idles for more than 10 ms between packets, so without the
			// yield the workers — more of them than CPUs — take turns by
			// whole passes, and whoever's shard is woken last waits for
			// every other shard's subscribers.
			runtime.Gosched()
		}
		if stopped && len(b.dgs) == 0 {
			return
		}
	}
}

// flush sends one gathered batch through the relay's socket and settles
// the accounting. WriteBatch has prefix semantics — datagrams before the
// first error were handed to the substrate, the rest were not — so on a
// partial send the failing datagram is skipped and the remainder
// retried: one subscriber with a poisoned path (ICMP-refused port,
// firewall EPERM) must not starve the subscribers batched after it.
func (r *Relay) flush(sh *shard, dgs []lan.Datagram, owners []*subscriber, trigger flushTrigger) {
	t0 := time.Now()
	first, size := dgs[0].To, len(dgs)
	var sent, errs int64
	all := owners
	for len(dgs) > 0 {
		n, err := lan.WriteBatch(r.conn, dgs)
		n = min(n, len(dgs)) // defensive: prefix contract
		sh.mu.Lock()
		for _, sub := range owners[:n] {
			sub.sent++
		}
		if err == nil || n+1 >= len(dgs) {
			// Every datagram is sent or skipped: the batch's subscribers
			// are free to be gathered into another.
			for _, sub := range all {
				sub.inflight = nil
			}
		}
		sh.sent += int64(n)
		sh.mu.Unlock()
		sent += int64(n)
		dgs, owners = dgs[n:], owners[n:]
		if err == nil {
			break
		}
		if len(dgs) > 0 { // skip the datagram that errored, keep going
			r.tracer.Drop(obs.PathFanout, obs.ReasonSendError, string(dgs[0].To), 0)
			dgs, owners = dgs[1:], owners[1:]
		}
		errs++
	}
	r.flushLatency.Observe(time.Since(t0))
	r.tracer.Send(obs.PathFanout, string(first), 0, size)
	r.count(func(s *Stats) {
		s.FanoutSent += sent
		s.SendErrors += errs
		s.Batches++
		if trigger == flushSize {
			s.FlushSize++
		} else {
			s.FlushQuiesce++
		}
	})
}

// grantShift resolves a Subscribe's requested time shift against the
// recorded history: the granted shift (the age of the entry the cursor
// actually landed on — clamped to the ring's depth, walked back to a
// Control packet of the lessee's channel so the decoder locks
// immediately) is stored on the subscriber, echoed in the ack, and —
// when there is backlog to replay — the cursor is placed there. A request the ring cannot satisfy in
// full (deeper than the recorded history, or nothing recorded at all) is
// clamped and counted, as is a wildcard Subscribe on a wildcard relay,
// which names no stream to be shifted on and is granted live. Caller
// holds sh.mu.
func (r *Relay) grantShift(sh *shard, sub *subscriber, q *request, t *tally) {
	if q.sub.Channel == 0 && r.cfg.Channel == 0 {
		t.dvrClamped++
		return
	}
	start, granted, clamped := r.seq.ring.Clamp(time.Duration(q.sub.ShiftMs)*time.Millisecond, sub.channel)
	if clamped {
		t.dvrClamped++
	}
	sub.shiftMs = uint32(granted / time.Millisecond)
	q.ack.ShiftMs = sub.shiftMs
	if granted <= 0 {
		return // quiet stream: nothing to replay, start live
	}
	sub.cursor, sub.replay = start, true
	r.catchupActive.Add(1)
	// The replay is driven by the shard worker, which on a quiet channel
	// may be parked with nothing to fan out. Wake it so the backlog
	// starts flowing now rather than at the next live packet.
	sh.work.Broadcast()
}

// setPaused parks or resumes sub's cursor on behalf of a Pause the
// control pipeline has verified and matched to the lease (admission.go).
// A pause is a cursor that does not advance: it stays where the live
// stream, or a replay, had reached and nothing is delivered; resume
// feeds everything recorded since from there at the bounded burst rate.
// Pausing the paused, or resuming the running, changes nothing. Caller
// holds sh.mu.
func (r *Relay) setPaused(sh *shard, sub *subscriber, paused bool) {
	switch {
	case paused && !sub.paused:
		if sub.replay {
			r.catchupActive.Add(-1)
		}
		sub.replay, sub.paused = true, true
	case !paused && sub.paused:
		sub.paused = false
		r.catchupActive.Add(1)
		sh.work.Broadcast() // wake the worker: the replay starts now
	}
}

// transcodeFor re-encodes one packet read from the deep ring for a
// single delivery tier — the replay analog of buildProfilePayloads,
// which encodes once per active profile for the whole fan-out. Backlog
// is positioned per subscriber, so it is encoded per subscriber instead,
// bounded by the burst rate. The derived epoch matches the live path's exactly
// (profileEpoch), so the decoder cannot tell where the backlog ends
// and live begins. Backlog recorded under an earlier stream
// configuration (epoch mismatch against the learned stream) falls back
// to the source payload — the decoder handles the epoch change the
// same way it handles any reconfiguration. nil means "serve the source
// payload".
func (r *Relay) transcodeFor(ch uint32, data []byte, p codec.Profile) []byte {
	t, _, err := proto.PeekType(data)
	if err != nil {
		return nil
	}
	r.txMu.Lock()
	defer r.txMu.Unlock()
	st := r.streams[ch]
	if st == nil || st.tx[p] == nil {
		return nil
	}
	switch t {
	case proto.TypeControl:
		if ctl, err := proto.UnmarshalControl(data); err == nil && ctl.Epoch == st.ctl.Epoch {
			return tierControl(ctl, p)
		}
	case proto.TypeData:
		if d, err := proto.UnmarshalData(data); err == nil && d.Epoch == st.ctl.Epoch {
			return tierData(st.tx[p], d, p)
		}
	}
	return nil
}
