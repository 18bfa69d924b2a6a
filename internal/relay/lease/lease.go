// Package lease maintains one TURN-style relay subscription: the
// subscribe / refresh / cancel cycle a client runs against a relay's
// unicast address. It is shared by the speaker (tuning to a relay
// instead of a multicast group) and by a chained relay (subscribing to
// its upstream relay), so both sides pace refreshes the same way, carry
// the same loop-detection path fields, and — when an authenticator is
// installed — sign their subscribes and verify the relay's grants the
// same way (§5.1 applied to the control plane).
package lease

import (
	"errors"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/security"
	"repro/internal/vclock"
)

// MinLease is the smallest lease a relay grants (requests below it are
// rounded up). The refresh pacing floors the lease — never the wait —
// at this value, so a refresh always lands strictly inside even the
// shortest granted lease.
const MinLease = time.Second

// ErrAuthFailed reports a SubAck that failed control-plane verification
// and was dropped before reaching the lease state.
var ErrAuthFailed = errors.New("lease: suback failed authentication")

// MaxRedirects caps how many SubRedirect hops one subscription follows
// before giving up. A shedding relay points the subscriber at a
// sibling; the sibling may itself be shedding, so a short chain is
// legitimate — but an unbounded one would let a misconfigured (or
// hostile) relay set bounce a subscriber around forever without it
// ever hearing silence. Landing a granted lease resets the budget.
const MaxRedirects = 4

// ErrRedirectLimit reports a SubRedirect that was ignored because the
// current subscription attempt already followed MaxRedirects of them.
var ErrRedirectLimit = errors.New("lease: redirect chain exceeded limit")

// Stats is the subscription-side accounting.
type Stats struct {
	Subscribes  int64 // subscribe/refresh/cancel packets sent
	Acks        int64 // SubAcks accepted (answering an outstanding request)
	Refusals    int64 // acks refusing the lease (any non-OK status)
	Loops       int64 // acks refusing with SubLoop (subset of Refusals)
	Stale       int64 // acks ignored: detached, or a seq this target was never asked
	AuthDropped int64 // acks dropped by control-plane verification
	Redirects   int64 // SubRedirect acks followed to a sibling relay
}

// Subscriber maintains at most one live lease with a relay. The owner
// keeps receiving on its own connection and feeds SubAck packets in via
// HandleAckData (or pre-parsed ones via HandleAck); the Subscriber only
// sends.
type Subscriber struct {
	clock vclock.Clock
	conn  lan.Conn
	name  string // refresh-task diagnostics label

	mu      sync.Mutex
	pace    vclock.Cond   // signaled whenever the refresh pacing changes
	target  lan.Addr      // relay being leased from; "" while detached
	channel uint32        // channel requested from the relay
	want    time.Duration // lease duration requested
	granted time.Duration // lease duration the relay last granted
	path    func() (hops uint8, pathID uint64)
	auth    security.Authenticator // signs subscribes, verifies acks; nil = plaintext
	// profile is the delivery tier requested in every subscribe.
	profile codec.Profile
	// shift is the time shift requested in every subscribe ("from this
	// long ago", served from the relay's DVR ring); curShift is the
	// shift the relay's last grant said it actually honored, clamped to
	// what its ring still held.
	shift    time.Duration
	curShift time.Duration
	seq      uint32
	// ackFloor is the seq of the first subscribe sent to the current
	// target: only acks echoing a seq in [ackFloor, seq] answer a
	// request this target was actually asked. Anything below is a late
	// reply from a previous target (or a duplicated datagram from that
	// exchange); anything above was never sent at all.
	ackFloor uint32
	// redirects counts SubRedirect hops followed since the owner's last
	// Subscribe (or the last granted lease); at MaxRedirects further
	// redirects are refused instead of followed.
	redirects int
	stats     Stats
	started   bool // refresh task spawned
	closed    bool

	// Optional instruments (SetInstruments): rtt observes the wall-clock
	// Subscribe→SubAck round trip, margin observes how much of the
	// granted lease was still left each time a refresh went out — the
	// distance-to-expiry safety margin the pacing is supposed to keep
	// comfortably positive. Wall clock on purpose: these measure the
	// process, not the simulation.
	rtt    *obs.Histogram
	margin *obs.Histogram
	// sentSeq/sentAt stamp the most recent subscribe for RTT matching;
	// expiresWall is the wall-clock expiry of the current grant.
	sentSeq     uint32
	sentAt      time.Time
	expiresWall time.Time
}

// New creates a detached subscriber sending through conn. name labels
// the refresh task in diagnostics.
func New(clock vclock.Clock, conn lan.Conn, name string) *Subscriber {
	return &Subscriber{clock: clock, conn: conn, name: name, pace: clock.NewCond()}
}

// SetPath installs the loop-detection path source: fn is consulted for
// the Hops/PathID pair carried by every subsequent subscribe packet. A
// chained relay uses it to report the relays already behind it; plain
// speakers leave it unset (zero hops, zero path id).
func (s *Subscriber) SetPath(fn func() (hops uint8, pathID uint64)) {
	s.mu.Lock()
	s.path = fn
	s.mu.Unlock()
}

// SetAuth installs the control-plane authenticator: every subsequent
// subscribe packet is signed with it, and HandleAckData verifies every
// SubAck before the grant can touch the lease state. A nil
// authenticator restores plaintext operation. The authenticator must be
// safe for use from the refresh task concurrently with the owner's
// receive loop (the HMAC scheme is; one-way stream signers are not).
func (s *Subscriber) SetAuth(a security.Authenticator) {
	s.mu.Lock()
	s.auth = a
	s.mu.Unlock()
}

// SetProfile sets the delivery tier requested by every subsequent
// subscribe packet (codec.ProfileSource — the zero value — asks for
// the untouched upstream payload).
func (s *Subscriber) SetProfile(p codec.Profile) {
	s.mu.Lock()
	s.profile = p
	s.mu.Unlock()
}

// SetShift sets the time shift requested by every subsequent subscribe
// packet: "start my stream from this long ago", served out of the
// relay's DVR generation ring. Zero — the default — is live. The relay
// clamps the request to the history it actually holds; read the truth
// with GrantedShift. Set it before the first Subscribe: the relay
// honors a shift when the lease is created, not on a refresh, and
// every subscribe until one is answered — however many are lost —
// carries it.
func (s *Subscriber) SetShift(d time.Duration) {
	s.mu.Lock()
	if d < 0 {
		d = 0
	}
	s.shift = d
	s.mu.Unlock()
}

// GrantedShift returns the time shift the relay's most recent grant
// actually honored — clamped to its ring depth, zero from a relay
// without a DVR. It resets on re-targeting and means nothing until the
// first grant.
func (s *Subscriber) GrantedShift() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curShift
}

// Pause asks the relay to freeze this subscription's delivery cursor.
// The relay's DVR ring keeps recording the channel, so a later Resume
// replays the gap at faster than realtime. Best effort, like Cancel:
// the packet is signed when an authenticator is installed, and a relay
// without a DVR ring for the channel ignores it.
func (s *Subscriber) Pause() { s.sendPause(true) }

// Resume unfreezes a paused subscription: the relay replays everything
// recorded since the Pause through its catch-up path, then hands the
// subscription back to live delivery.
func (s *Subscriber) Resume() { s.sendPause(false) }

func (s *Subscriber) sendPause(paused bool) {
	s.mu.Lock()
	target, channel := s.target, s.channel
	auth := s.auth
	s.seq++
	req := proto.Pause{Channel: channel, Seq: s.seq, Paused: paused}
	s.mu.Unlock()
	if target == "" {
		return
	}
	data, err := req.Marshal()
	if err != nil {
		return
	}
	if auth != nil {
		data = auth.Sign(data)
	}
	s.conn.Send(target, data)
}

// SetInstruments installs the control-plane histograms: rtt observes
// each Subscribe→SubAck round trip, margin observes the lease time
// remaining whenever a refresh is sent. Either may be nil. The owner
// registers the same histograms with its obs registry.
func (s *Subscriber) SetInstruments(rtt, margin *obs.Histogram) {
	s.mu.Lock()
	s.rtt = rtt
	s.margin = margin
	s.mu.Unlock()
}

// Subscribe starts (or re-targets) the lease: it sends one subscribe
// packet immediately and keeps refreshing until Cancel or Close. A
// zero channel accepts whatever the relay carries.
func (s *Subscriber) Subscribe(target lan.Addr, channel uint32, lease time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.target = target
	s.channel = channel
	s.want = lease
	s.granted = 0
	s.redirects = 0 // a fresh target gets a fresh redirect budget
	// The next send uses seq+1; acks for anything earlier belong to a
	// previous target and must not install a grant here.
	s.ackFloor = s.seq + 1
	started := s.started
	s.started = true
	s.pace.Broadcast()
	s.mu.Unlock()
	s.send(target, channel, lease)
	if !started {
		s.clock.Go(s.name, s.refreshLoop)
	}
}

// Cancel releases the current lease: it sends one zero-lease subscribe
// (best effort — if the packet is lost the relay expires us) and stops
// refreshing. The refresh task stays parked for a later Subscribe.
func (s *Subscriber) Cancel() {
	s.mu.Lock()
	target, channel := s.target, s.channel
	s.target = ""
	s.granted = 0
	s.mu.Unlock()
	if target != "" {
		s.send(target, channel, 0)
	}
}

// Close stops the refresh task for good. It does not cancel the lease;
// call Cancel first when the relay should forget us immediately.
func (s *Subscriber) Close() {
	s.mu.Lock()
	s.closed = true
	s.pace.Broadcast()
	s.mu.Unlock()
}

// Target returns the relay currently subscribed to ("" if none).
func (s *Subscriber) Target() lan.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// Granted returns the lease duration the relay last granted (0 before
// the first ack).
func (s *Subscriber) Granted() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.granted
}

// Stats returns a snapshot of the accounting.
func (s *Subscriber) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// HandleAckData ingests one raw SubAck datagram from the owner's
// receive loop. from is the datagram's source address: only the relay
// currently subscribed to may answer the control plane, so an ack from
// anywhere else — an off-path forger, or a previous target after
// re-targeting — is counted stale and never reaches the lease state,
// even before the seq window applies. The packet is then verified when
// an authenticator is installed (a forged or unsigned grant is dropped
// and counted, never applied), parsed, and applied via HandleAck. It
// returns ErrAuthFailed on a verification failure and the parse error
// on a malformed packet; a stale-but-well-formed ack is not an error
// (it is counted and ignored).
func (s *Subscriber) HandleAckData(from lan.Addr, data []byte) (proto.SubStatus, error) {
	s.mu.Lock()
	auth := s.auth
	if s.target == "" || from != s.target {
		s.stats.Stale++
		s.mu.Unlock()
		return 0, nil
	}
	s.mu.Unlock()
	if auth != nil {
		inner, ok := auth.Verify(data)
		if !ok {
			s.mu.Lock()
			s.stats.AuthDropped++
			s.mu.Unlock()
			return 0, ErrAuthFailed
		}
		data = inner
	}
	ack, err := proto.UnmarshalSubAck(data)
	if err != nil {
		return 0, err
	}
	st, follow, channel, want, err := s.apply(ack)
	if follow != "" {
		// Followed a redirect: chase the new target immediately rather
		// than waiting out a refresh interval with no lease anywhere.
		s.send(follow, channel, want)
	}
	return st, err
}

// HandleAck ingests one parsed SubAck and returns its status. A granted
// lease re-paces the refresh cycle; a refusal is counted but the
// periodic subscribe keeps going — leases are soft state, so a full
// table may drain and the refresh doubles as the retry, at one small
// packet per refresh interval.
//
// Only acks answering a request sent to the *current* target are
// applied: while detached every ack is stale by definition, and a seq
// outside [ackFloor, seq] is a late reply from a previous target or a
// duplicated datagram — installing its grant would adopt a lease the
// current relay never made and mis-pace the refresh loop against it.
func (s *Subscriber) HandleAck(ack *proto.SubAck) proto.SubStatus {
	st, follow, channel, want, _ := s.apply(ack)
	if follow != "" {
		s.send(follow, channel, want)
	}
	return st
}

// apply ingests one in-window SubAck under the lock and reports what
// must happen outside it: a non-empty follow means a redirect was
// accepted and the caller must immediately subscribe to that target
// (send takes the lock itself, so it cannot run here). err is
// ErrRedirectLimit when a redirect was refused for exhausting the
// chain budget.
func (s *Subscriber) apply(ack *proto.SubAck) (st proto.SubStatus, follow lan.Addr, channel uint32, want time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.target == "" || ack.Seq < s.ackFloor || ack.Seq > s.seq {
		s.stats.Stale++
		return ack.Status, "", 0, 0, nil
	}
	s.stats.Acks++
	if s.rtt != nil && ack.Seq == s.sentSeq {
		// Control RTT: only the newest outstanding request is timed — an
		// earlier in-window ack is a retransmit answer whose send time we
		// no longer hold.
		s.rtt.Observe(time.Since(s.sentAt))
	}
	switch {
	case ack.Status == proto.SubRedirect:
		next := lan.Addr(ack.Redirect)
		if next == s.target || next.Validate() != nil || next.IsMulticast() {
			// "Go where you already are", or somewhere a lease cannot
			// live: a refusal in redirect's clothing.
			s.stats.Refusals++
			return ack.Status, "", 0, 0, nil
		}
		if s.redirects >= MaxRedirects {
			s.stats.Refusals++
			return ack.Status, "", 0, 0, ErrRedirectLimit
		}
		s.redirects++
		s.stats.Redirects++
		s.target = next
		s.granted = 0
		s.curShift = 0 // the sibling's DVR ring starts fresh
		// Acks from the shedding relay (or any earlier target) must not
		// install a grant against the new one.
		s.ackFloor = s.seq + 1
		s.pace.Broadcast()
		return ack.Status, next, s.channel, s.want, nil
	case ack.Status != proto.SubOK:
		s.stats.Refusals++
		if ack.Status == proto.SubLoop {
			s.stats.Loops++
		}
	case ack.LeaseMs > 0:
		granted := time.Duration(ack.LeaseMs) * time.Millisecond
		// Every OK grant extends the wall-clock expiry, even when the
		// duration is unchanged — that is what a refresh does. The
		// grant also reports the time shift actually honored, which the
		// relay's DVR ring may have clamped below the request.
		s.curShift = time.Duration(ack.ShiftMs) * time.Millisecond
		s.expiresWall = time.Now().Add(granted)
		s.redirects = 0 // landed: a later shed starts a fresh chain
		if granted != s.granted {
			s.granted = granted
			s.pace.Broadcast() // re-pace the refresh off the real lease
		}
	}
	return ack.Status, "", 0, 0, nil
}

// send emits one subscribe packet (lease 0 = cancel).
func (s *Subscriber) send(target lan.Addr, channel uint32, lease time.Duration) {
	s.mu.Lock()
	path := s.path
	s.mu.Unlock()
	var hops uint8
	var pathID uint64
	if path != nil {
		// Evaluated outside s.mu: the path source takes the owner's own
		// locks (e.g. a relay walking its subscriber shards).
		hops, pathID = path()
	}
	s.mu.Lock()
	s.seq++
	s.sentSeq = s.seq
	s.sentAt = time.Now()
	if s.margin != nil && lease > 0 && s.granted > 0 && !s.expiresWall.IsZero() {
		// Refresh margin: how close to expiry this refresh cut it. A
		// negative margin (lease already lapsed) clamps into the lowest
		// bucket, which is exactly where an operator should see it.
		s.margin.Observe(time.Until(s.expiresWall))
	}
	req := proto.Subscribe{
		Channel: channel,
		Seq:     s.seq,
		LeaseMs: uint32(lease / time.Millisecond),
		Hops:    hops,
		PathID:  pathID,
		Profile: uint8(s.profile),
		ShiftMs: uint32(s.shift / time.Millisecond),
	}
	auth := s.auth
	s.stats.Subscribes++
	s.mu.Unlock()
	data, err := req.Marshal()
	if err != nil {
		return
	}
	if auth != nil {
		data = auth.Sign(data)
	}
	s.conn.Send(target, data)
}

// refreshLoop re-sends the subscription well before the lease expires.
// One long-lived task per subscriber, started by the first Subscribe;
// it idles (cheaply) while detached. Pacing is off the granted lease —
// the value the relay actually enforces — floored at MinLease, so with
// a relay-clamped 1s lease the refresh still lands at ~333ms, three
// refreshes inside every lease instead of a flapping race at expiry.
// When a grant arrives mid-wait (the relay clamped our request down),
// the pace cond wakes the loop to recompute off the real lease instead
// of finishing a wait sized to the requested one.
func (s *Subscriber) refreshLoop() {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		lease := s.granted
		if lease <= 0 {
			lease = s.want
		}
		if lease < MinLease {
			lease = MinLease
		}
		if s.pace.WaitTimeout(&s.mu, lease/3) {
			continue // pacing changed (grant, re-target, close): recompute
		}
		target, channel, want := s.target, s.channel, s.want
		s.mu.Unlock()
		if target != "" {
			s.send(target, channel, want)
		}
		s.mu.Lock()
	}
}
