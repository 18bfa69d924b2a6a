package relay

import (
	"sort"
	"time"

	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
)

// The control plane is one pipeline. Every packet that can change the
// lease table — a Subscribe (grant, refresh, cancel, loop refusal) or a
// Pause (park, resume) — enters one bounded queue, and admitBatch takes
// a gather pass of them through the same five steps: one verify call,
// parse by type, group by shard in arrival order, apply each under the
// shard's lock through the one lease-holder check (holds), then sign
// every reply with one call and send them as one WriteBatch. In the
// terms of the TURN allocation this lease is modelled on, allocate,
// refresh and delete are one authenticated request whose lifetime
// field picks the action; arrival order is the only order.

// handleRequest routes one control request into the pipeline: enqueued
// for the admission worker when Run drives the relay, or — no worker
// (driven by tests without Run, or via Inject) — processed
// synchronously as a batch of one, so every caller sees the same
// verification and admission semantics. The queue's bound is the door:
// whatever the request, a flood beyond it is shed here, counted and
// traced, before any verification work is spent on it.
func (r *Relay) handleRequest(pkt lan.Packet) {
	r.admitMu.Lock()
	if !r.admitRunning || r.admitStop {
		r.admitMu.Unlock()
		r.admitBatch([]lan.Packet{pkt})
		return
	}
	if len(r.admitQ) >= admitQueueLen {
		r.admitMu.Unlock()
		r.count(func(s *Stats) { s.AdmitOverflow++ })
		r.tracer.Drop(obs.PathControl, obs.ReasonQueueFull, string(pkt.From), 0)
		return
	}
	r.admitQ = append(r.admitQ, pkt)
	if len(r.admitQ) == 1 || len(r.admitQ) >= DefaultAdmitBatch {
		// Wake the worker when it may be idle (first packet) or its
		// gather window can end early (a full batch is ready); the
		// in-between enqueues pile up for the current window.
		r.admitCond.Broadcast()
	}
	r.admitMu.Unlock()
}

// admitWorker drains the admission queue in gather passes of up to
// DefaultAdmitBatch requests each and hands every pass to admitBatch.
// Batching is what survives a join storm: verification, lease-table
// insertion, ack signing, and the ack sends are all amortized per
// pass instead of paid per packet. It exits once Stop is called and
// the queue has drained — subscribers whose request was already
// queued still get their answer.
func (r *Relay) admitWorker() {
	defer func() {
		r.admitMu.Lock()
		r.admitDone = true
		r.admitCond.Broadcast()
		r.admitMu.Unlock()
	}()
	// lastPass is when the previous gather pass was taken; initialized
	// far in the past so the first request ever is admitted instantly.
	lastPass := r.clock.Now().Add(-time.Hour)
	for {
		r.admitMu.Lock()
		for len(r.admitQ) == 0 && !r.admitStop {
			r.admitCond.Wait(&r.admitMu)
		}
		if len(r.admitQ) == 0 {
			r.admitMu.Unlock()
			return
		}
		if len(r.admitQ) < DefaultAdmitBatch && !r.admitStop &&
			r.clock.Now().Sub(lastPass) < admitGatherWindow {
			// Back-to-back passes mean a storm is arriving one recv at a
			// time: without this bounded beat the worker would wake per
			// packet and batch verification would never see a batch. The
			// enqueue path cuts the wait short once a full batch is
			// ready; an isolated request never enters this branch and
			// is admitted with no added latency.
			r.admitCond.WaitTimeout(&r.admitMu, admitGatherWindow)
		}
		lastPass = r.clock.Now()
		n := DefaultAdmitBatch
		if n > len(r.admitQ) {
			n = len(r.admitQ)
		}
		batch := make([]lan.Packet, n)
		copy(batch, r.admitQ)
		rest := copy(r.admitQ, r.admitQ[n:])
		r.admitQ = r.admitQ[:rest]
		r.admitMu.Unlock()
		r.admitBatch(batch)
	}
}

// request is one control packet that survived verification and
// parsing: exactly one of sub and pause is set.
type request struct {
	from  lan.Addr
	sub   *proto.Subscribe
	pause *proto.Pause
	// Who signed the request and the sequence a lease's replay window
	// consumes. session (the scheme binds identities) gates the identity
	// match; without it identity is 0 and seq is a Pause's own Seq — a
	// shared-key Subscribe carries no sequence and is not windowed.
	identity uint32
	seq      uint64
	session  bool
	ack      proto.SubAck
	send     bool // an ack goes out (pauses, cancels and refused holders stay silent)
}

// tally is one pass's counter deltas, folded into Stats under a single
// r.mu acquisition once the pass has been applied.
type tally struct {
	authDropped, malformed, rejected, loops       int64
	subscribes, refreshes, unsubscribes           int64
	redirects, tierSheds, identityMismatch, stale int64
	dvrClamped                                    int64
}

// admitBatch verifies, applies, and answers one gather pass of control
// requests. With Config.Auth set the whole pass is verified in one
// call; unverified requests are dropped silently (a reply to an
// unverified source is the reflection primitive the auth exists to
// close). Requests are applied per shard, in arrival order, under one
// shard-lock acquisition; the acks are signed in one call and sent as
// one WriteBatch.
//
// Shedding happens here: when the relay is past Config.ShedSubscribers
// or Config.ShedPressure and a sibling is known (SetSiblings), a *new*
// subscriber is answered with SubRedirect naming the least-loaded
// eligible sibling — round-robined so a storm spreads — instead of a
// lease. Refreshes, cancels, and loop refusals are never shed.
func (r *Relay) admitBatch(pkts []lan.Packet) {
	var t tally
	datas := make([][]byte, len(pkts))
	for i := range pkts {
		datas[i] = pkts[i].Data
	}
	var ids []uint32
	var seqs []uint64
	var oks []bool // nil: no auth, everything passes
	session := false
	if r.cfg.Auth != nil {
		srcs := make([]string, len(pkts))
		for i := range pkts {
			srcs[i] = string(pkts[i].From)
		}
		datas, ids, seqs, oks = r.cfg.Auth.VerifySessionBatch(datas, srcs)
		session = r.cfg.Auth.BindsIdentity()
	}
	reqs := make([]request, 0, len(pkts))
	for i := range pkts {
		if oks != nil && !oks[i] {
			t.authDropped++
			r.tracer.Drop(obs.PathControl, obs.ReasonAuth, string(pkts[i].From), 0)
			continue
		}
		q := request{from: pkts[i].From, session: session}
		var err error
		if typ, _, _ := proto.PeekType(datas[i]); typ == proto.TypePause {
			if q.pause, err = proto.UnmarshalPause(datas[i]); err == nil {
				q.seq = uint64(q.pause.Seq)
			}
		} else {
			q.sub, err = proto.UnmarshalSubscribe(datas[i])
		}
		if err != nil {
			t.malformed++
			r.tracer.Drop(obs.PathControl, obs.ReasonMalformed, string(pkts[i].From), 0)
			continue
		}
		if session {
			// One sequence per lease, whatever the request: the trailer's.
			q.identity, q.seq = ids[i], seqs[i]
		}
		reqs = append(reqs, q)
	}

	// Shed state, sampled once per pass: the load thresholds move on
	// the order of announce cycles, not packets.
	var sibs []proto.RelayInfo
	r.mu.Lock()
	nsubs := r.nsubs
	sibfn := r.siblings
	r.mu.Unlock()
	shedding := r.cfg.ShedSubscribers > 0 && nsubs >= r.cfg.ShedSubscribers
	if !shedding && r.cfg.ShedPressure > 0 {
		shedding = int(r.Pressure()) >= r.cfg.ShedPressure
	}
	// The subscriber-count threshold can also be crossed *by this very
	// batch* (a storm arrives faster than announce cycles), so whenever
	// it is configured the sibling list is fetched up front and the
	// count re-checked per insert — otherwise one gather pass would
	// overshoot the operator's cap by up to a full batch. Tier shedding
	// answers at refresh time, so with ShedTier on the sibling list is
	// needed whether or not the relay is shedding newcomers right now.
	if sibfn != nil && (shedding || r.cfg.ShedSubscribers > 0 || r.cfg.ShedTier) {
		sibs = r.eligibleSiblings(sibfn())
	}

	// Group by shard, keeping arrival order within each: a cancel acts
	// on the lease the Subscribe ahead of it in this same pass created.
	byShard := make([][]*request, len(r.shards))
	for i := range reqs {
		q := &reqs[i]
		if q.pause != nil {
			if r.seq.ring == nil {
				continue // not recording: nothing to replay on resume
			}
		} else {
			q.ack = proto.SubAck{Channel: q.sub.Channel, Seq: q.sub.Seq, Status: proto.SubOK}
			q.send = true
			if ch := q.sub.Channel; r.cfg.Channel != 0 && ch != 0 && ch != r.cfg.Channel {
				// Names a channel this relay does not carry: refused
				// without touching whatever lease the sender holds.
				q.ack.Status = proto.SubNoChannel
				t.rejected++
				r.tracer.Drop(obs.PathControl, obs.ReasonChannelFilter, string(q.from), ch)
				continue
			}
		}
		sh := r.shardFor(q.from)
		byShard[sh.index] = append(byShard[sh.index], q)
	}
	for k, qs := range byShard {
		if len(qs) == 0 {
			continue
		}
		sh := r.shards[k]
		now := r.clock.Now()
		sh.mu.Lock()
		for _, q := range qs {
			if q.pause != nil {
				r.applyPause(sh, q, &t)
			} else {
				r.applySubscribe(sh, q, now, shedding, sibs, &t)
			}
		}
		sh.mu.Unlock()
	}

	// The pass is counted before it is answered: whoever holds an ack
	// can already read its lease in the counters.
	r.mu.Lock()
	r.stats.AuthDropped += t.authDropped
	r.stats.Malformed += t.malformed
	r.stats.Rejected += t.rejected
	r.stats.Loops += t.loops
	r.stats.Subscribes += t.subscribes
	r.stats.Refreshes += t.refreshes
	r.stats.Unsubscribes += t.unsubscribes
	r.stats.Redirects += t.redirects
	r.stats.TierSheds += t.tierSheds
	r.stats.IdentityMismatch += t.identityMismatch
	r.stats.ReplayDropped += t.stale
	r.stats.DVRClamped += t.dvrClamped
	r.stats.AdmitBatches++
	r.mu.Unlock()

	// Ack: marshal, sign in one call, one WriteBatch. Prefix semantics
	// as in flush: a failing datagram is skipped and the rest retried.
	outs := make([]lan.Datagram, 0, len(reqs))
	ackIDs := make([]uint32, 0, len(reqs)) // parallel to outs
	for i := range reqs {
		q := &reqs[i]
		if !q.send {
			continue
		}
		out, err := q.ack.Marshal()
		if err != nil {
			continue
		}
		outs = append(outs, lan.Datagram{To: q.from, Data: out})
		ackIDs = append(ackIDs, q.identity)
	}
	if r.cfg.Auth != nil && len(outs) > 0 {
		// Under an identity scheme each ack is signed under its
		// recipient's own credential, so only that subscriber can
		// validate its grant.
		raw := make([][]byte, len(outs))
		for i := range outs {
			raw[i] = outs[i].Data
		}
		for i, signed := range r.cfg.Auth.SignForBatch(ackIDs, raw) {
			outs[i].Data = signed
		}
	}
	for len(outs) > 0 {
		n, err := lan.WriteBatch(r.conn, outs)
		if n > len(outs) {
			n = len(outs)
		}
		outs = outs[n:]
		if err == nil {
			break
		}
		if len(outs) > 0 {
			r.tracer.Drop(obs.PathControl, obs.ReasonSendError, string(outs[0].To), 0)
			outs = outs[1:]
		}
		r.count(func(s *Stats) { s.SendErrors++ })
	}
}

// holds is the one lease-holder check: may q act on sub's lease? Under
// an identity scheme the request must come from the identity that
// created the lease, with a sequence above everything the session has
// consumed — any valid credential can sign a packet claiming any
// source, so without it one subscriber could cancel, pause, hijack or
// replay-extend another's session. Under the shared key only a Pause is
// windowed, on its own Seq: verification proves a pause was once
// genuine, not that it is fresh, and a recorder must not re-park a
// subscriber with an old one. A request that passes consumes its
// sequence, whatever it then does; one that fails is dropped silently,
// like every auth failure. Caller holds the shard lock.
func (r *Relay) holds(sub *subscriber, q *request, t *tally) bool {
	windowed := q.session || q.pause != nil
	switch {
	case q.session && sub.identity != q.identity:
		t.identityMismatch++
		r.tracer.Drop(obs.PathControl, obs.ReasonAuth, string(q.from), 0)
	case windowed && q.seq <= sub.ctlSeq:
		if q.session {
			t.stale++
		}
		r.tracer.Drop(obs.PathControl, obs.ReasonStale, string(q.from), 0)
	default:
		if windowed {
			sub.ctlSeq = q.seq
		}
		return true
	}
	q.send = false
	return false
}

// applySubscribe applies one Subscribe to its shard: the lifetime and
// path fields pick the action — loop refusal, cancel, refresh, or a new
// lease (or the redirect or refusal a new lease turns into). Caller
// holds sh.mu.
func (r *Relay) applySubscribe(sh *shard, q *request, now time.Time, shedding bool, sibs []proto.RelayInfo, t *tally) {
	req := q.sub
	sub := sh.subs[q.from]
	if sub != nil && !r.holds(sub, q, t) {
		return
	}
	loop := req.PathID == r.relayID || int(req.Hops) >= r.cfg.MaxHops
	if loop || req.LeaseMs == 0 {
		// Both end whatever lease the sender holds. A loop — the path
		// already crossed this relay (its own id came back) or is deeper
		// than any sane chain — is also refused out loud: granting would
		// close a forwarding cycle, a refresh is how an established one
		// announces itself, and expiry alone would keep it spinning for
		// a full lease. A cancel is not answered.
		if sub != nil {
			r.evict(sh, sub)
			t.unsubscribes++
		}
		q.send = loop
		if loop {
			q.ack.Status = proto.SubLoop
			t.rejected++
			t.loops++
			r.tracer.Drop(obs.PathControl, obs.ReasonLoop, string(q.from), req.Channel)
		}
		return
	}
	lease := r.grant(req)
	q.ack.LeaseMs = uint32(lease / time.Millisecond)
	if sub != nil {
		if sub.shedPending {
			// The ladder ran out of rungs for this subscriber; a refresh
			// is the one packet a redirect may answer (the lease layer
			// ignores unsolicited acks), so steer it now — or, with no
			// eligible sibling, keep serving.
			sub.shedPending = false
			r.mu.Lock()
			to := r.pickSibling(sibs, req.Channel)
			r.mu.Unlock()
			if to != "" {
				q.ack.Status, q.ack.Redirect, q.ack.LeaseMs = proto.SubRedirect, to, 0
				r.evict(sh, sub)
				t.tierSheds++
				return
			}
		}
		// An established subscriber is served even when the relay is
		// shedding — steering moves newcomers.
		r.refresh(sh, sub, req, now.Add(lease), now)
		// The ack reports the tier actually served — under ladder
		// pressure that may sit below the requested profile — and
		// echoes the shift granted at lease creation: a refresh neither
		// moves the cursor nor disturbs a pause taken across it.
		q.ack.Profile, q.ack.ShiftMs = uint8(sub.profile), sub.shiftMs
		t.refreshes++
		return
	}
	// A new lease. r.nsubs is exact under r.mu, so admissions never pass
	// either cap even when a single batch crosses it. Pressure stays
	// per-pass — its score moves on flush cadence, not per insert.
	var to string
	r.mu.Lock()
	if shedding || (r.cfg.ShedSubscribers > 0 && r.nsubs >= r.cfg.ShedSubscribers) {
		// With no eligible sibling the newcomer is admitted anyway — a
		// redirect with nowhere to point is just a refusal, and the
		// stream is better served overloaded than not at all.
		to = r.pickSibling(sibs, req.Channel)
	}
	full := r.nsubs >= r.cfg.MaxSubscribers
	if to == "" && !full {
		r.nsubs++
	}
	r.mu.Unlock()
	switch {
	case to != "":
		q.ack.Status, q.ack.Redirect, q.ack.LeaseMs = proto.SubRedirect, to, 0
		t.redirects++
	case full:
		q.ack.Status, q.ack.LeaseMs = proto.SubTableFull, 0
		t.rejected++
		r.tracer.Drop(obs.PathControl, obs.ReasonTableFull, string(q.from), req.Channel)
	default:
		sub = r.insert(sh, q.from, req, now.Add(lease), now)
		sub.identity, sub.ctlSeq = q.identity, q.seq
		q.ack.Profile = uint8(sub.profile)
		t.subscribes++
		if r.seq.ring != nil && req.ShiftMs != 0 {
			r.grantShift(sh, sub, q, t)
		}
	}
}

// applyPause applies one Pause to the lease it names. The channel must
// be the leased one (0 is a wildcard on either side) — a pause addressed
// to some other channel leaves this lease alone, sequence included.
// Caller holds sh.mu.
func (r *Relay) applyPause(sh *shard, q *request, t *tally) {
	sub := sh.subs[q.from]
	if sub == nil {
		return // no lease, nothing to pause
	}
	ch := sub.channel
	if ch == 0 {
		ch = r.cfg.Channel
	}
	if pc := q.pause.Channel; pc != 0 && ch != 0 && pc != ch {
		r.tracer.Drop(obs.PathControl, obs.ReasonChannelFilter, string(q.from), pc)
		return
	}
	if r.holds(sub, q, t) {
		r.setPaused(sh, sub, q.pause.Paused)
	}
}

// grant sizes the lease a Subscribe is given: at least MinLease, at
// most Config.MaxLease.
func (r *Relay) grant(req *proto.Subscribe) time.Duration {
	lease := time.Duration(req.LeaseMs) * time.Millisecond
	if lease < MinLease {
		lease = MinLease
	}
	// Chain-aware sizing: a subscriber with relays behind it is a whole
	// subtree's feed, and losing its lease silences every speaker
	// downstream. Scale the grant with the chain depth so deep links
	// refresh (and can be lost) less often, while plain speakers keep
	// the requested cadence.
	lease *= time.Duration(req.Hops) + 1
	if lease > r.cfg.MaxLease {
		lease = r.cfg.MaxLease
	}
	return lease
}

// insert creates addr's lease at the live head of the stream, last of
// its group in the fan-out order: a chained lessee at order[sh.lead], a
// speaker at the end. Caller holds sh.mu and has already taken the
// table slot (r.nsubs).
func (r *Relay) insert(sh *shard, addr lan.Addr, req *proto.Subscribe, expires, now time.Time) *subscriber {
	prof := requestedProfile(req)
	sub := &subscriber{
		addr: addr, channel: req.Channel,
		hops: req.Hops, pathID: req.PathID, joined: sh.joins,
		profile: prof, reqProfile: prof, ladderAt: now,
		expires: expires,
	}
	sh.joins++
	r.goLive(sub)
	r.profCount[prof].Add(1)
	sh.subs[addr] = sub
	sh.place(sub)
	return sub
}

// refresh extends sub's lease and adopts what the request re-states:
// channel filter, path, requested tier. A hop count that crosses 0
// moves the subscriber between the fan-out order's two groups. Caller
// holds sh.mu.
func (r *Relay) refresh(sh *shard, sub *subscriber, req *proto.Subscribe, expires, now time.Time) {
	sub.expires = expires
	if sub.channel != req.Channel {
		// New filter, new numbering: what the old one still had
		// waiting is no longer owed.
		sub.channel = req.Channel
		if !sub.replay {
			r.goLive(sub)
		}
	}
	if (req.Hops > 0) != (sub.hops > 0) {
		sh.unplace(sub)
		sub.hops = req.Hops
		sh.place(sub)
	}
	sub.hops = req.Hops
	sub.pathID = req.PathID
	if prof := requestedProfile(req); prof != sub.reqProfile {
		// A re-requested tier resets the ladder: the new ask is served
		// immediately and dwell starts over from here.
		r.profCount[sub.profile].Add(-1)
		sub.reqProfile, sub.profile = prof, prof
		r.profCount[prof].Add(1)
		sub.ladderAt = now
		sub.ladderDrops = sub.dropped
	}
}

// evict removes sub's lease and gives its table slot back. Caller
// holds sh.mu.
func (r *Relay) evict(sh *shard, sub *subscriber) {
	r.remove(sh, sub)
	r.mu.Lock()
	r.nsubs--
	r.mu.Unlock()
}

// eligibleSiblings filters and ranks the steer candidates: not this
// relay itself, not anything chained directly behind it (redirecting a
// subscriber into our own subtree invites the loop the PathID check
// would then have to break), unicast-addressed, least-loaded first
// with address as the tie-break.
func (r *Relay) eligibleSiblings(records []proto.RelayInfo) []proto.RelayInfo {
	self := string(r.Addr())
	out := records[:0:0]
	for _, ri := range records {
		if ri.Addr == self || ri.Group == self {
			continue
		}
		if a := lan.Addr(ri.Addr); a.Validate() != nil || a.IsMulticast() {
			continue
		}
		out = append(out, ri)
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := out[i].LoadScore(), out[j].LoadScore(); si != sj {
			return si < sj
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// pickSibling round-robins across the channel-compatible siblings ("",
// when there is none). Caller holds r.mu (for the round-robin cursor).
func (r *Relay) pickSibling(sibs []proto.RelayInfo, channel uint32) string {
	n := len(sibs)
	for k := 0; k < n; k++ {
		ri := sibs[int(r.redirRR)%n]
		r.redirRR++
		if ri.Channel == 0 || channel == 0 || ri.Channel == channel {
			return ri.Addr
		}
	}
	return ""
}
