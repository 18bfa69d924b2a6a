package relay

import (
	"cmp"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dvr"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/relay/lease"
	"repro/internal/security"
	"repro/internal/vclock"
)

// Defaults.
const (
	// DefaultShards is the subscriber-table shard count.
	DefaultShards = 8
	// DefaultQueueLen bounds how far a live subscriber may lag the
	// stream, in packets of the relay's arrival sequence.
	DefaultQueueLen = 64
	// DefaultMaxSubscribers caps the whole subscriber table.
	DefaultMaxSubscribers = 1024
	// DefaultMaxLease caps any granted lease.
	DefaultMaxLease = 5 * time.Minute
	// MinLease is the smallest grantable lease; requests below it are
	// rounded up so refresh storms cannot be provoked. It mirrors the
	// floor the lease layer paces refreshes against.
	MinLease = lease.MinLease
	// DefaultSweepInterval is the lease-expiry scan cadence.
	DefaultSweepInterval = time.Second
	// DefaultUpstreamLease is the lease a chained relay requests from
	// its upstream relay.
	DefaultUpstreamLease = 15 * time.Second
	// DefaultMaxHops bounds a subscription path's relay depth: a
	// subscribe whose path already crossed this many relays is refused
	// with SubLoop. It is the backstop that breaks any cycle the path-id
	// check misses — around a loop the reported hop count grows with
	// every refresh until it trips this limit.
	DefaultMaxHops = 8
	// DefaultBatch is the fan-out batch size: how many datagrams a shard
	// worker accumulates before one WriteBatch flush.
	DefaultBatch = 32
	// DefaultAdmitBatch is how many queued control requests the admission
	// worker gathers per pass: verification, lease-table insertion, ack
	// signing, and the ack sends are all amortized across the gather.
	DefaultAdmitBatch = 256
	// admitQueueLen bounds the admission queue: 16 gather passes of
	// backlog — a join storm beyond it is load-shed at the door
	// (counted, traced) rather than allowed to grow an unbounded packet
	// backlog.
	admitQueueLen = 4096
	// admitGatherWindow is how long the admission worker lets a
	// partially-filled gather pass pile up before verifying what it has.
	// The window only engages while passes are arriving back-to-back
	// (within one window of each other) — interrupt moderation for the
	// control plane: a lone Subscribe or a steady refresh trickle is
	// admitted immediately, while a join storm's packets, which would
	// otherwise trickle out of the socket one recv at a time and keep
	// every gather pass at a single packet, pile into full batches. A
	// full batch ends the window immediately.
	admitGatherWindow = time.Millisecond
	// recvTimeout bounds how long Run waits for any packet before
	// re-checking liveness.
	recvTimeout = 5 * time.Second
	// DefaultDVRBurst caps how fast a catching-up subscriber is fed
	// backlog, in packets per second. At the paper's nominal 100
	// packets/s stream rate this replays five seconds of backlog per
	// wall second — convergence within depth/4 seconds of joining —
	// while bounding the extra load one time-shifted join can put on
	// its shard.
	DefaultDVRBurst = 500
)

// Config parameterizes a relay.
type Config struct {
	// Group is the multicast group to join and relay. Required unless
	// Upstream is set.
	Group lan.Addr
	// Upstream chains this relay behind another relay: instead of
	// joining a multicast group it subscribes to the upstream relay's
	// unicast address (reusing the speaker's lease logic) and fans the
	// received stream out to its own subscribers, composing bridges
	// across network segments the way TURN relays compose allocations.
	// Exactly one of Group and Upstream must be set.
	Upstream lan.Addr
	// UpstreamLease overrides DefaultUpstreamLease.
	UpstreamLease time.Duration
	// MaxHops overrides DefaultMaxHops.
	MaxHops int
	// Channel restricts the relay to one channel id; 0 relays whatever
	// the group carries and accepts any requested channel.
	Channel uint32
	// Shards overrides DefaultShards.
	Shards int
	// QueueLen overrides DefaultQueueLen: how many packets a live
	// subscriber's cursor may lag the head of the relay's arrival
	// sequence before it is clamped forward and the jump counted as
	// queue-full drops. The sequence numbers every accepted packet, so
	// on a multi-channel group the window is shared by its channels.
	QueueLen int
	// MaxSubscribers overrides DefaultMaxSubscribers.
	MaxSubscribers int
	// MaxLease overrides DefaultMaxLease.
	MaxLease time.Duration
	// SweepInterval overrides DefaultSweepInterval.
	SweepInterval time.Duration
	// Batch overrides DefaultBatch. 1 disables batching: every datagram
	// is its own send call.
	Batch int
	// Auth, when set, authenticates the relay control plane (§5.1
	// applied to the one path that creates forwarding state): every
	// inbound control request — Subscribe or Pause — must verify before
	// it can touch the lease table. Failures are dropped silently,
	// without a SubAck, so a forged request from a spoofed source draws
	// zero reply traffic and the relay cannot be grown into a reflection
	// amplifier; every outbound SubAck is signed so subscribers can
	// trust the granted lease. It must be safe for concurrent use.
	//
	// When the scheme binds identities (per-subscriber credentials),
	// each request verifies under its own credential with the packet's
	// UDP source bound into the tag, every lease remembers the identity
	// that created it, and refresh/cancel/pause must present that
	// identity with a sequence above everything the session has already
	// consumed — closing both cross-subscriber forgery and
	// capture-and-replay.
	Auth security.RelayAuthenticator
	// UpstreamAuth is what a chained relay signs its own upstream lease
	// with and verifies the upstream's grants under: the client side of
	// the scheme the upstream relay demands. Under a shared key that is
	// the same key Auth holds; with per-subscriber identities admission
	// holds the whole keyring while the upstream lease signs as this
	// relay's own identity. Required with Upstream whenever Auth is set
	// — one chain, one scheme — and New refuses the pair without it.
	UpstreamAuth security.Authenticator
	// TraceSample sets the packet tracer's 1-in-N sampling rate for
	// send events (drop events always hit the exact reason counters;
	// sampling only thins the event ring). 0 uses obs.DefaultTraceSample;
	// 1 records everything — the setting experiments use to assert on
	// individual drop events.
	TraceSample int
	// ShedSubscribers, when positive, is the subscriber count at which
	// the relay starts shedding: a *new* Subscribe arriving while the
	// table already holds this many is answered with SubRedirect naming
	// a sibling relay (when SetSiblings knows one) instead of a lease.
	// Established subscribers are never shed — refreshes and cancels
	// are served normally. 0 disables count-based shedding.
	ShedSubscribers int
	// ShedPressure, when positive, sheds new subscribers while the
	// relay's queue-pressure score (0-255; see Info) is at or above
	// this value. 0 disables pressure-based shedding.
	ShedPressure int
	// ShedTier steers away subscribers the quality ladder has run out
	// of room for: when a downgrade lands a subscriber on the bottom
	// rung — the relay is already serving it the cheapest tier there is
	// and its queue still drops — its next refresh is answered with
	// SubRedirect to a less-loaded sibling (when SetSiblings knows one)
	// instead of a lease. Requires Ladder; with no eligible sibling the
	// subscriber is served normally, exactly like the other shed modes.
	ShedTier bool
	// SourceHops overrides the relay-hops-from-source value stamped in
	// the catalog record's load vector: 0 derives it (1 when joining
	// the group directly, 2 when chained — the minimum a chain can be).
	// cmd/relayd sets it from the discovered upstream's own record, so
	// depth accumulates along real chains.
	SourceHops int
	// Ladder enables the adaptive delivery-quality ladder: a subscriber
	// whose queue keeps dropping packets is stepped one tier down
	// (toward cheaper encodings) per sweep, and stepped back up toward
	// its requested profile after a drop-free dwell. Requested profiles
	// are honored either way; the ladder only controls whether the
	// relay may move subscribers on its own.
	Ladder bool
	// LadderDwell overrides DefaultLadderDwell: how long a subscriber
	// must stay drop-free before an upgrade.
	LadderDwell time.Duration
	// LadderDownDrops overrides DefaultLadderDownDrops: the per-sweep
	// queue-drop delta that triggers a downgrade.
	LadderDownDrops int
	// GSO enables UDP_SEGMENT coalescing on the relay's socket (where
	// the backend supports it): the flush sorts each batch by
	// destination, so a subscriber owed several same-size packets costs
	// one kernel send instead of several.
	GSO bool
	// DVR enables time-shifted delivery: every relayed packet is also
	// recorded into one bounded ring (internal/dvr) at its index in the
	// arrival sequence, and a Subscribe carrying a time shift
	// (proto.Subscribe.ShiftMs) has its cursor placed that far back and
	// is fed the backlog at a bounded faster-than-realtime rate until it
	// converges on live. Pause/resume (proto.Pause) rides the same
	// cursor.
	DVR bool
	// DVRDepth bounds the recorded history in seconds of arrival time;
	// 0 uses dvr.DefaultDepth. The packet capacity is derived from the
	// depth (see dvr.NewRing) and shared by every channel relayed.
	DVRDepth time.Duration
	// DVRBurst overrides DefaultDVRBurst: the catch-up delivery rate
	// cap, in packets per second per catching-up subscriber, at most
	// one a nanosecond.
	DVRBurst int
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.QueueLen <= 0 {
		c.QueueLen = DefaultQueueLen
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = DefaultMaxSubscribers
	}
	if c.MaxLease <= 0 {
		c.MaxLease = DefaultMaxLease
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = DefaultSweepInterval
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	if c.UpstreamLease <= 0 {
		c.UpstreamLease = DefaultUpstreamLease
	}
	if c.MaxHops <= 0 {
		c.MaxHops = DefaultMaxHops
	}
	if c.MaxHops > 255 {
		// Propagated hop counts saturate at 255 on the wire; a larger
		// limit would never trip and silently disable the loop backstop.
		c.MaxHops = 255
	}
	if c.LadderDwell <= 0 {
		c.LadderDwell = DefaultLadderDwell
	}
	if c.LadderDownDrops <= 0 {
		c.LadderDownDrops = DefaultLadderDownDrops
	}
	if c.ShedPressure > 255 {
		c.ShedPressure = 255 // the score saturates there
	}
	if c.DVRDepth <= 0 {
		c.DVRDepth = dvr.DefaultDepth
	}
	if c.DVRBurst <= 0 {
		c.DVRBurst = DefaultDVRBurst
	}
	if c.DVRBurst > int(time.Second) {
		// One token a nanosecond is the finest refill quantum there is
		// (refill): a faster rate would make the quantum zero.
		c.DVRBurst = int(time.Second)
	}
}

// Stats is the relay's cumulative accounting. The `mib` and `help`
// tags name and document each counter on the obs registry
// (obs.StructCounters, served on /metrics and /snapshot), so a new
// field is published by adding it here, and the coverage test in
// internal/mgmt fails if a field lacks its tags.
type Stats struct {
	UpstreamControl  int64 `mib:"es.relay.upstream.control" help:"control packets taken off the group"`
	UpstreamData     int64 `mib:"es.relay.upstream.data" help:"data packets taken off the group"`
	UpstreamForeign  int64 `mib:"es.relay.upstream.foreign" help:"packets refused as not-from-the-group (injection attempts), for a foreign channel, or for a channel id beyond the 256 tracked at once"`
	Malformed        int64 `mib:"es.relay.malformed" help:"unparseable packets (any direction)"`
	Subscribes       int64 `mib:"es.relay.subscribes" help:"new subscriptions granted"`
	Refreshes        int64 `mib:"es.relay.refreshes" help:"lease refreshes"`
	Unsubscribes     int64 `mib:"es.relay.unsubscribes" help:"explicit lease cancellations"`
	Expired          int64 `mib:"es.relay.expired" help:"leases expired for silence"`
	Rejected         int64 `mib:"es.relay.rejected" help:"refused subscribe requests"`
	Loops            int64 `mib:"es.relay.loops" help:"subscribes refused with SubLoop (path revisits or too deep)"`
	Redirects        int64 `mib:"es.relay.redirects" help:"new subscribes answered with SubRedirect (load shed to a sibling relay)"`
	AuthDropped      int64 `mib:"es.relay.auth.dropped" help:"control requests dropped by control-plane verification (forged or unsigned; no SubAck sent)"`
	IdentityMismatch int64 `mib:"es.relay.identity.mismatch" help:"control requests signed by a valid credential other than the lease holder's (cross-subscriber forgery; dropped silently)"`
	ReplayDropped    int64 `mib:"es.relay.replay.dropped" help:"control requests dropped by the per-session replay window (sequence at or below the last consumed)"`
	TierSheds        int64 `mib:"es.relay.ladder.sheds" help:"ladder-floor subscribers redirected to a less-loaded sibling at refresh (Config.ShedTier)"`
	FanoutSent       int64 `mib:"es.relay.fanout.sent" help:"unicast packets delivered"`
	FanoutDropped    int64 `mib:"es.relay.fanout.dropped" help:"packets skipped by clamping a lagging subscriber forward (queue backpressure)"`
	SendErrors       int64 `mib:"es.relay.senderrors" help:"unicast send failures"`

	// Chaining telemetry (nonzero only with Config.Upstream set): the
	// relay's own lease against its upstream relay.
	UpstreamSubscribes  int64 `mib:"es.relay.upstream.subscribes" help:"lease packets sent to the upstream relay"`
	UpstreamAcks        int64 `mib:"es.relay.upstream.acks" help:"lease acks received from the upstream relay"`
	UpstreamRefused     int64 `mib:"es.relay.upstream.refused" help:"upstream lease refusals (loop, table full, channel)"`
	UpstreamStaleAcks   int64 `mib:"es.relay.upstream.stale" help:"upstream acks ignored as stale or foreign"`
	UpstreamAuthDropped int64 `mib:"es.relay.upstream.auth.dropped" help:"upstream acks dropped by verification"`
	UpstreamRedirects   int64 `mib:"es.relay.upstream.redirects" help:"redirects the relay's own upstream lease followed to a sibling"`

	// Admission telemetry: the batched control-request pipeline
	// (admission.go). AdmitBatches counts gather passes;
	// Subscribes+Refreshes+... per batch over AdmitBatches is the
	// achieved admission batch size.
	AdmitBatches  int64 `mib:"es.relay.admit.batches" help:"admission gather passes over queued control requests"`
	AdmitOverflow int64 `mib:"es.relay.admit.overflow" help:"control requests (Subscribe, Pause) dropped at the door because the admission queue was full"`

	// Batching telemetry: Batches counts WriteBatch flushes, split by
	// what triggered them. FanoutSent / Batches is the achieved batch
	// size — the syscall amortization factor on a real network.
	Batches       int64 `mib:"es.relay.fanout.batches" help:"WriteBatch flushes issued"`
	FlushSize     int64 `mib:"es.relay.fanout.flush.size" help:"flushes triggered by a full batch"`
	FlushDeadline int64 `mib:"es.relay.fanout.flush.deadline" help:"always 0: no batch waits on a timer (kept so dashboards reading it do not break)"`
	FlushQuiesce  int64 `mib:"es.relay.fanout.flush.quiesce" help:"partial batches flushed because the shard ran dry (nothing more to gather, or the relay stopping)"`

	// Delivery-profile telemetry: the quality ladder and the per-profile
	// encode path. TranscodeEncodes advances once per active non-source
	// profile per upstream packet — never per subscriber — so dividing
	// it by UpstreamData is the live profile count the fan-out pays for.
	TranscodeEncodes int64 `mib:"es.relay.transcode.encodes" help:"per-profile payload encodes (one per active profile per upstream packet)"`
	TranscodeErrors  int64 `mib:"es.relay.transcode.errors" help:"transcode failures (affected tiers fell back to the source payload)"`
	LadderDown       int64 `mib:"es.relay.ladder.down" help:"quality-ladder downgrades (one tier, queue pressure)"`
	LadderUp         int64 `mib:"es.relay.ladder.up" help:"quality-ladder upgrades (one tier, after a drop-free dwell)"`

	// Receive-socket telemetry. RecvBatchPackets / RecvBatches is the
	// achieved ingest batch size (recvmmsg; Linux only, zero elsewhere).
	// RecvDropped counts packets the socket's reader discarded because
	// Run had not drained its inbox — stream and control packets share
	// it, so a control burst shows up here as lost stream packets.
	RecvBatches      int64 `mib:"es.relay.recv.batches" help:"batched receive passes (recvmmsg) on the relay socket"`
	RecvBatchPackets int64 `mib:"es.relay.recv.packets" help:"packets delivered by batched receive passes"`
	RecvDropped      int64 `mib:"es.relay.recv.dropped" help:"received packets tail-dropped at the relay socket's full inbox (stream and control share it)"`

	// Time-shift (DVR) telemetry (nonzero only with Config.DVR set).
	// DVRCatchupActive is a gauge snapshot — subscribers currently
	// replaying backlog — folded in by Stats(), so it falls as cursors
	// converge on live.
	DVRRings         int64 `mib:"es.relay.dvr.rings" help:"DVR rings recording (one per relay with Config.DVR, shared by its channels)"`
	DVRBacklog       int64 `mib:"es.relay.dvr.backlog.packets" help:"backlog packets served to catching-up subscribers"`
	DVRCatchupActive int64 `mib:"es.relay.dvr.catchup.active" help:"subscribers currently replaying backlog toward the live head"`
	DVRClamped       int64 `mib:"es.relay.dvr.clamped" help:"time-shift requests granted less history than asked (ring depth or nothing recorded)"`
	DVREvictions     int64 `mib:"es.relay.dvr.evictions" help:"catch-up cursors the ring wrapped past (subscriber fell behind; re-clamped to the oldest entry)"`
}

// SubscriberInfo is one subscriber's public accounting snapshot.
type SubscriberInfo struct {
	Addr       lan.Addr
	Channel    uint32
	Hops       uint8         // relay hops behind this subscriber (0 = a speaker)
	Profile    codec.Profile // delivery tier currently served
	ReqProfile codec.Profile // tier requested at subscribe (ladder ceiling)
	Sent       int64         // unicast packets sent
	Dropped    int64         // packets skipped by clamping this subscriber forward
	Queued     int           // packets between its cursor and the head that its filter delivers
	Expires    time.Time
	Shift      time.Duration // granted time shift (DVR; 0 = joined live)
	CatchingUp bool          // currently replaying DVR backlog
	Paused     bool          // delivery parked by a Pause packet
}

// subscriber is one leased unicast destination.
type subscriber struct {
	addr    lan.Addr
	channel uint32
	hops    uint8  // relay depth behind this subscriber (speakers: 0)
	pathID  uint64 // path origin carried by its subscribe (speakers: 0)
	joined  uint64 // join stamp within its shard: its place in the fan-out order
	expires time.Time
	sent    int64
	dropped int64

	// Control-session state: identity is the subscriber credential the
	// lease was created under (identity scheme only; 0 otherwise), and
	// ctlSeq the highest control sequence this session has consumed —
	// refresh, cancel, and pause must all present the lease's identity
	// with a sequence above it, which closes both cross-subscriber
	// forgery (any valid credential can sign a packet claiming any
	// source) and same-source capture-and-replay. In legacy shared-key
	// mode ctlSeq tracks Pause.Seq alone, widened to u64.
	identity uint32
	ctlSeq   uint64

	// Quality-ladder state: profile is the tier currently served,
	// reqProfile the subscribe-time request the ladder may not exceed.
	// ladderDrops/ladderAt anchor the per-sweep drop delta and the
	// drop-free dwell (sim clock, like every protocol timer here).
	// shedPending marks a subscriber a downgrade just landed on the
	// bottom rung while Config.ShedTier is set: its next refresh is
	// answered with a redirect to a less-loaded sibling (when one
	// exists) instead of a lease.
	profile     codec.Profile
	reqProfile  codec.Profile
	ladderDrops int64
	ladderAt    time.Time
	shedPending bool

	// Delivery state (see delivery.go): cursor is the subscriber's
	// position in the relay's arrival sequence, and passed how many of
	// the packets before it its channel filter would deliver — what a
	// clamp measures its jump against while the cursor is live. replay
	// marks a cursor placed behind on purpose (a time-shifted join, a
	// pause): it is paced by the token bucket tokens (refill; ticks is
	// one more than the refill quanta from Relay.origin to its last
	// refill, 0 before the first) and never clamped until it reaches the
	// head; paused stops it entirely. shiftMs is the granted shift,
	// echoed on refresh acks.
	cursor  uint64
	passed  uint64
	replay  bool
	paused  bool
	shiftMs uint32
	tokens  int
	ticks   int64
	// inflight is the unflushed batch holding this subscriber's
	// datagrams, nil when none does: set by gather, cleared by flush, so
	// whichever goroutine gathers, one batch at a time carries them.
	inflight *batch
}

// shard is one slice of the subscriber table with its own fan-out
// worker. Every worker sends through the relay's one connection, so all
// data leaves from the address subscribers leased from.
type shard struct {
	index int // position in Relay.shards

	mu   sync.Mutex
	work vclock.Cond // signaled when the arrival sequence grows or a replay is armed
	subs map[lan.Addr]*subscriber
	// order is the fan-out order: the chained lessees (hops > 0) in
	// order[:lead], then the speakers, each group in join order (place).
	order   []*subscriber
	lead    int
	joins   uint64 // subscribers ever inserted: the next one's join stamp
	stopped bool
	// leadBatch is the batch fanout sends the chained lessees' copies
	// in (serveLead); nil while one goroutine has it out, because
	// Inject callers may fan out beside Run.
	leadBatch *batch

	// Per-shard pressure accounting (satellite to the lumped Stats
	// totals): a hot shard shows up here before it shows up anywhere.
	sent      int64 // unicast packets this shard's worker delivered
	dropped   int64 // packets its subscribers were clamped past
	queued    int   // packets between its live cursors and the head, as of the last settle
	maxQueued int   // high-water mark of queued
}

// remove drops sub from the table and settles the per-tier and replay
// gauges it was counted in; caller holds sh.mu.
func (r *Relay) remove(sh *shard, sub *subscriber) {
	r.profCount[sub.profile].Add(-1)
	if sub.replay && !sub.paused {
		r.catchupActive.Add(-1)
	}
	delete(sh.subs, sub.addr)
	sh.unplace(sub)
}

// place puts sub into the fan-out order at its join position within its
// group. A subscriber with relays behind it is a whole subtree's feed
// (the reason grant sizes its lease by depth), so the chained lessees
// lead every pass and a downstream relay's copy leaves before the
// speakers'. Moving one is O(n), as removing one is; it happens only
// when the relay's downstream topology changes. Caller holds sh.mu and
// sub is not in the order.
func (sh *shard) place(sub *subscriber) {
	lo, hi := sh.lead, len(sh.order)
	if sub.hops > 0 {
		lo, hi = 0, sh.lead
		sh.lead++
	}
	i, _ := slices.BinarySearchFunc(sh.order[lo:hi], sub.joined, func(s *subscriber, joined uint64) int {
		return cmp.Compare(s.joined, joined)
	})
	sh.order = slices.Insert(sh.order, lo+i, sub)
}

// unplace takes sub out of the fan-out order. Caller holds sh.mu.
func (sh *shard) unplace(sub *subscriber) {
	if i := slices.Index(sh.order, sub); i >= 0 {
		sh.order = slices.Delete(sh.order, i, i+1)
		if i < sh.lead {
			sh.lead--
		}
	}
}

// ShardStats is one shard's pressure snapshot.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Subscribers int   `json:"subscribers"`
	Queued      int   `json:"queued"`     // packets between its live cursors and the head, as of the last sweep
	MaxQueued   int   `json:"max_queued"` // high-water mark of Queued
	Sent        int64 `json:"sent"`
	Dropped     int64 `json:"dropped"`
}

// Relay bridges one multicast group (or, chained, another relay) to
// unicast subscribers.
type Relay struct {
	clock   vclock.Clock
	origin  time.Time // where replay refill quanta are counted from (refill)
	conn    lan.Conn
	cfg     Config
	shards  []*shard
	relayID uint64 // this relay's path identity (loop detection)
	// fanInFrom gates chained-mode fan-in: Control and Data are
	// accepted from this address only — cfg.Upstream, or the sibling a
	// redirect moved the lease to (guarded by mu).
	fanInFrom lan.Addr
	up        *lease.Subscriber // lease against cfg.Upstream (nil otherwise)

	// Hot-path instruments (see internal/obs): wall-clock histograms
	// and the sampled packet tracer. Always present — recording is a
	// few atomic adds, cheap enough to leave compiled in.
	flushLatency     *obs.Histogram // WriteBatch flush duration
	queueResidency   *obs.Histogram // arrival→gather time per packet
	transcodeLatency *obs.Histogram // per-profile payload encode time
	upRTT            *obs.Histogram // upstream Subscribe→SubAck RTT (chained)
	leaseMargin      *obs.Histogram // upstream refresh margin (chained)
	catchupLag       *obs.Histogram // DVR backlog packet age when served
	tracer           *obs.Tracer

	// seq is the arrival sequence every subscriber is a cursor into.
	// catchupActive is the live count of subscribers replaying backlog
	// (lock-free, like profCount, because converge/pause flips happen
	// under shard locks while Stats() snapshots under r.mu).
	seq           sequence
	catchupActive atomic.Int64

	// Per-profile delivery state. profCount holds the live subscriber
	// count per tier (lock-free so fanout can snapshot the active set
	// without touching any shard); txMu guards the learned stream
	// configurations and their transcoders, which the single fan-out
	// path and concurrent Inject callers share.
	profCount [codec.NumProfiles]atomic.Int64
	txMu      sync.Mutex
	streams   map[uint32]*stream

	mu          sync.Mutex
	stats       Stats
	nsubs       int
	running     bool // Run spawned the shard workers
	stopped     bool
	workersDone int         // workers that have flushed and exited
	workersIdle vclock.Cond // signaled as each worker exits
	// siblings is the shedding steer source (SetSiblings): catalog
	// records of the other relays a redirect may name.
	siblings func() []proto.RelayInfo
	// redirRR round-robins redirects across eligible siblings within
	// and across admission batches, so one sibling does not absorb a
	// whole storm by itself.
	redirRR uint64
	// pressureDrops is the fanout-drop total at the last pressure
	// sample; new drops since then pin the score to maximum.
	pressureDrops int64

	// Admission queue (its own lock: enqueue must never contend with
	// the stats path, and the worker drains it while holding nothing
	// else). Lock order: admitMu is leaf-only — never acquired while
	// holding r.mu or a shard lock.
	admitMu      sync.Mutex
	admitCond    vclock.Cond
	admitQ       []lan.Packet
	admitRunning bool // Run spawned the admission worker
	admitStop    bool
	admitDone    bool // the admission worker has drained and exited
}

// New creates a relay that receives cfg.Group via conn — or, with
// cfg.Upstream set, subscribes to that relay instead — and serves
// subscribe requests arriving on conn's unicast address. Everything
// the relay sends — acks and fan-out alike — goes through conn.
func New(clock vclock.Clock, conn lan.Conn, cfg Config) (*Relay, error) {
	cfg.applyDefaults()
	switch {
	case cfg.Upstream != "":
		if cfg.Group != "" {
			return nil, fmt.Errorf("relay: configure Group or Upstream, not both")
		}
		if err := cfg.Upstream.Validate(); err != nil {
			return nil, fmt.Errorf("relay: upstream: %w", err)
		}
		if cfg.Upstream.IsMulticast() {
			return nil, fmt.Errorf("relay: upstream %q is multicast; set Group to join a group directly", cfg.Upstream)
		}
		if cfg.Auth != nil && cfg.UpstreamAuth == nil {
			// A relay that demands signatures sits in a signed chain: an
			// unsigned upstream lease would be dropped there silently.
			return nil, fmt.Errorf("relay: Upstream with Auth needs UpstreamAuth (the client side of the chain's scheme, for this relay's own lease)")
		}
	case !cfg.Group.IsMulticast():
		return nil, fmt.Errorf("relay: group %q is not multicast", cfg.Group)
	default:
		if err := conn.Join(cfg.Group); err != nil {
			return nil, fmt.Errorf("relay: joining %q: %w", cfg.Group, err)
		}
	}
	r := &Relay{clock: clock, origin: clock.Now(), conn: conn, cfg: cfg, streams: make(map[uint32]*stream)}
	r.relayID = newPathID(conn.LocalAddr())
	r.flushLatency = obs.NewHistogram("es_relay_flush_latency_seconds",
		"WriteBatch flush duration, gather to syscall return", nil)
	r.queueResidency = obs.NewHistogram("es_relay_queue_residency_seconds",
		"time from a packet's arrival to a subscriber's shard worker gathering it", nil)
	r.transcodeLatency = obs.NewHistogram("es_relay_transcode_latency_seconds",
		"per-profile payload transcode time in the fan-out path", nil)
	r.upRTT = obs.NewHistogram("es_relay_upstream_rtt_seconds",
		"upstream Subscribe→SubAck round trip (chained relays only)", nil)
	r.leaseMargin = obs.NewHistogram("es_relay_lease_margin_seconds",
		"upstream lease time remaining at each refresh (chained relays only)", nil)
	r.catchupLag = obs.NewHistogram("es_relay_dvr_catchup_lag_seconds",
		"age of each DVR backlog packet when served to a catching-up subscriber", nil)
	r.tracer = obs.NewTracer(cfg.TraceSample, 0)
	r.seq.chans = make(map[uint32]channel)
	r.seq.win = make([]atomic.Pointer[entry], cfg.QueueLen+1)
	if cfg.DVR {
		r.seq.ring = dvr.NewRing(clock, cfg.DVRDepth, 0)
		r.stats.DVRRings = 1
	}
	if cfg.Upstream != "" {
		r.fanInFrom = cfg.Upstream
		r.up = lease.New(clock, conn, "relay-upstream-"+string(conn.LocalAddr()))
		r.up.SetPath(r.pathInfo)
		r.up.SetAuth(cfg.UpstreamAuth)
		r.up.SetInstruments(r.upRTT, r.leaseMargin)
	}
	r.workersIdle = clock.NewCond()
	r.admitCond = clock.NewCond()
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{index: i, subs: make(map[lan.Addr]*subscriber), leadBatch: &batch{
			dgs:    make([]lan.Datagram, 0, cfg.Batch),
			owners: make([]*subscriber, 0, cfg.Batch),
			slots:  make([][]byte, cfg.Batch),
			lead:   true,
		}}
		sh.work = clock.NewCond()
		r.shards = append(r.shards, sh)
	}
	if cfg.GSO {
		// Best effort: the portable and simulated backends simply don't
		// implement the seam and the flush stays plain batches.
		lan.EnableGSO(conn)
	}
	return r, nil
}

// Addr returns the unicast address subscribers talk to.
func (r *Relay) Addr() lan.Addr { return r.conn.LocalAddr() }

// Group returns the multicast group being relayed (empty for a chained
// relay; see Upstream).
func (r *Relay) Group() lan.Addr { return r.cfg.Group }

// Upstream returns the relay this one is chained behind ("" if it
// joins a multicast group directly).
func (r *Relay) Upstream() lan.Addr { return r.cfg.Upstream }

// PathID returns this relay's loop-detection identity: the value a
// subscription path must not carry back to it.
func (r *Relay) PathID() uint64 { return r.relayID }

// Source returns the stream source: the multicast group, or the
// upstream relay for a chained relay.
func (r *Relay) Source() lan.Addr {
	if r.cfg.Upstream != "" {
		return r.cfg.Upstream
	}
	return r.cfg.Group
}

// Info returns the relay's catalog record (§4.3 discovery): where to
// lease from, what it relays, any channel restriction — and the load
// vector discovery ranks on: current subscriber count, the 0-255
// queue-pressure score, and the relay's depth from the stream source.
// It is the catalog's live record provider (Catalog.SetRelayFunc), so
// every announce carries the load as of that cycle.
func (r *Relay) Info() proto.RelayInfo {
	return proto.RelayInfo{
		Addr:     string(r.Addr()),
		Group:    string(r.Source()),
		Channel:  r.cfg.Channel,
		HasLoad:  true,
		Subs:     uint32(r.NumSubscribers()),
		Pressure: r.Pressure(),
		Hops:     r.sourceHops(),
	}
}

// sourceHops is the load vector's depth-from-source field.
func (r *Relay) sourceHops() uint8 {
	if r.cfg.SourceHops > 0 {
		if r.cfg.SourceHops > 255 {
			return 255
		}
		return uint8(r.cfg.SourceHops)
	}
	if r.cfg.Upstream != "" {
		return 2 // behind at least one other relay
	}
	return 1 // joins the group directly
}

// Pressure computes the relay's 0-255 queue-pressure score from the
// per-shard gauges: the fraction of the aggregate lag allowance
// (subscribers x QueueLen) that live cursors currently use, scaled to
// 255 — except that any fanout drop since the previous sample pins the
// score to maximum, because a relay actively shedding packets is
// overloaded no matter how far behind its subscribers happen to be at
// the instant of the sample. Each call consumes the
// drop delta, so the natural samplers (the catalog's announce cycle,
// the shed check per admission batch) see a score that decays once the
// dropping stops.
func (r *Relay) Pressure() uint8 {
	var queued, capacity, degraded, total int
	var dropped int64
	for _, sh := range r.shards {
		sh.mu.Lock()
		queued += r.settle(sh)
		capacity += len(sh.order) * r.cfg.QueueLen
		dropped += sh.dropped
		for _, sub := range sh.order {
			total++
			if sub.profile > sub.reqProfile {
				degraded++
			}
		}
		sh.mu.Unlock()
	}
	r.mu.Lock()
	delta := dropped - r.pressureDrops
	r.pressureDrops = dropped
	r.mu.Unlock()
	if delta > 0 {
		return 255
	}
	if capacity == 0 {
		return 0
	}
	p := queued * 255 / capacity
	// A ladder-degraded subscriber is pressure made durable: its queue
	// stopped overflowing *because* the relay cut its bitrate, so the
	// instantaneous queue occupancy under-reports how loaded the relay
	// is. Fold the degraded fraction in so discovery keeps steering new
	// subscribers elsewhere until tiers recover.
	if total > 0 && degraded > 0 {
		if dp := degraded * 255 / total; dp > p {
			p = dp
		}
	}
	if p > 255 {
		p = 255
	}
	return uint8(p)
}

// SetSiblings installs the steer source for load shedding: fn returns
// the catalog records of the other relays currently announcing (a
// Watcher snapshot, typically). A shedding relay redirects new
// subscribers to the least-loaded eligible sibling; with no sibling
// source — or no eligible sibling — it admits normally, because a
// redirect with nowhere to point is just a refusal. fn is called
// outside the relay's locks and must be safe for concurrent use.
func (r *Relay) SetSiblings(fn func() []proto.RelayInfo) {
	r.mu.Lock()
	r.siblings = fn
	r.mu.Unlock()
}

// newPathID mints a relay's 64-bit path identity. It must be unique
// per relay *instance*, never per configuration: real daemons all bind
// the same wildcard "0.0.0.0:5006" by default, so anything derived
// from the local address would give every relay the same identity and
// make straight chains refuse themselves as loops. Randomness is all
// loop detection needs — stability across restarts is not required,
// because path state is re-propagated on every refresh.
func newPathID(addr lan.Addr) uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id // 0 means "no path" on the wire
		}
	}
	// Entropy unavailable (or the 1-in-2^64 zero): fall back to an
	// FNV-1a hash of the bind address — weaker, but never zero.
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Stats returns a snapshot of the accounting, folding in the upstream
// lease counters for a chained relay, the receive socket's, and the
// shards' drop counts (as of each subscriber's last visit by its worker
// or by settle).
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	if r.up != nil {
		ls := r.up.Stats()
		st.UpstreamSubscribes = ls.Subscribes
		st.UpstreamAcks = ls.Acks
		st.UpstreamRefused = ls.Refusals
		st.UpstreamStaleAcks = ls.Stale
		st.UpstreamAuthDropped = ls.AuthDropped
		st.UpstreamRedirects = ls.Redirects
	}
	if rb, ok := r.conn.(lan.RecvBatcher); ok {
		rs := rb.RecvBatchStats()
		st.RecvBatches = rs.Batches
		st.RecvBatchPackets = rs.Packets
		st.RecvDropped = rs.Dropped
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		st.FanoutDropped += sh.dropped
		sh.mu.Unlock()
	}
	st.DVRCatchupActive = r.catchupActive.Load()
	return st
}

// NumSubscribers returns the current subscriber count.
func (r *Relay) NumSubscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nsubs
}

// ShardStats returns every shard's pressure snapshot, in shard order.
// It costs a scrape nothing per subscriber: the queue depths and drop
// counts are those the last sweep (or Pressure, or Subscribers) settled.
func (r *Relay) ShardStats() []ShardStats {
	out := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.Lock()
		out[i] = ShardStats{
			Shard:       i,
			Subscribers: len(sh.order),
			Queued:      sh.queued,
			MaxQueued:   sh.maxQueued,
			Sent:        sh.sent,
			Dropped:     sh.dropped,
		}
		sh.mu.Unlock()
	}
	return out
}

// Instruments exposes the relay's hot-path histograms and tracer, for
// registration (RegisterObs) and for benchmarks that fold latency
// percentiles into their reported results.
type Instruments struct {
	FlushLatency     *obs.Histogram
	QueueResidency   *obs.Histogram
	TranscodeLatency *obs.Histogram
	UpstreamRTT      *obs.Histogram
	LeaseMargin      *obs.Histogram
	CatchupLag       *obs.Histogram
	Tracer           *obs.Tracer
}

// Instruments returns the live instruments (never nil).
func (r *Relay) Instruments() Instruments {
	return Instruments{
		FlushLatency:     r.flushLatency,
		QueueResidency:   r.queueResidency,
		TranscodeLatency: r.transcodeLatency,
		UpstreamRTT:      r.upRTT,
		LeaseMargin:      r.leaseMargin,
		CatchupLag:       r.catchupLag,
		Tracer:           r.tracer,
	}
}

// shardFor hashes a subscriber address onto its shard (FNV-1a).
func (r *Relay) shardFor(addr lan.Addr) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return r.shards[h%uint64(len(r.shards))]
}

// Subscribers returns every subscriber's snapshot, sorted by address.
func (r *Relay) Subscribers() []SubscriberInfo {
	var out []SubscriberInfo
	for _, sh := range r.shards {
		sh.mu.Lock()
		r.settle(sh)
		for _, sub := range sh.order {
			out = append(out, SubscriberInfo{
				Addr:       sub.addr,
				Channel:    sub.channel,
				Hops:       sub.hops,
				Profile:    sub.profile,
				ReqProfile: sub.reqProfile,
				Sent:       sub.sent,
				Dropped:    sub.dropped,
				Queued:     r.backlog(sub),
				Expires:    sub.expires,
				Shift:      time.Duration(sub.shiftMs) * time.Millisecond,
				CatchingUp: sub.replay,
				Paused:     sub.paused,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stop shuts the relay down; Run and the shard workers return. The
// workers flush their partial batches on the way out (the quiesce
// trigger), so Stop waits for them before closing any socket — closing
// first would turn the final flush into send errors.
func (r *Relay) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	running := r.running
	r.mu.Unlock()
	if r.up != nil {
		// Release the upstream lease while our socket still works; if
		// the cancel is lost the upstream expires us after one lease.
		r.up.Cancel()
		r.up.Close()
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.stopped = true
		sh.work.Broadcast()
		sh.mu.Unlock()
	}
	r.admitMu.Lock()
	r.admitStop = true
	r.admitCond.Broadcast()
	if r.admitRunning {
		// Wait for the admission worker to drain its queue: subscribers
		// whose request already arrived still get their answer, and the
		// final acks go out before the socket closes below.
		for !r.admitDone {
			r.admitCond.Wait(&r.admitMu)
		}
	}
	r.admitMu.Unlock()
	if running {
		r.mu.Lock()
		for r.workersDone < len(r.shards) {
			r.workersIdle.Wait(&r.mu)
		}
		r.mu.Unlock()
	}
	r.conn.Close()
}

// isStopped reports whether Stop was called.
func (r *Relay) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// Run receives and relays until Stop. Spawn it via clock.Go; it spawns
// the shard workers and the lease sweeper itself, and — chained —
// opens the upstream subscription.
func (r *Relay) Run() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.mu.Unlock()
	for i, sh := range r.shards {
		sh := sh
		r.clock.Go(fmt.Sprintf("relay-shard-%d", i), func() { r.shardWorker(sh) })
	}
	r.admitMu.Lock()
	r.admitRunning = true
	r.admitMu.Unlock()
	r.clock.Go("relay-admit", r.admitWorker)
	r.clock.Go("relay-sweep", r.sweep)
	if r.up != nil {
		r.up.Subscribe(r.cfg.Upstream, r.cfg.Channel, r.cfg.UpstreamLease)
	}
	defer r.Stop() // conn closed externally: unblock the workers too
	for {
		pkt, err := r.conn.Recv(recvTimeout)
		if err == lan.ErrTimeout {
			if r.isStopped() {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		r.handlePacket(pkt)
	}
}

// Inject processes pkt as if it had arrived on the relay's connection.
// It exists for the experiments and tests that need a forged source
// address (real UDP source spoofing — the attack the control-plane auth
// closes), which the simulated segment cannot produce: its Send always
// stamps the sender's true address. Injection is synchronous even for
// control requests — the packet is fully applied (or dropped and
// counted) before Inject returns, bypassing the admission queue, so
// callers can assert on counter deltas immediately.
func (r *Relay) Inject(pkt lan.Packet) {
	if t, _, err := proto.PeekType(pkt.Data); err == nil && (t == proto.TypeSubscribe || t == proto.TypePause) {
		r.admitBatch([]lan.Packet{pkt})
		return
	}
	r.handlePacket(pkt)
}

// handlePacket classifies one received datagram.
func (r *Relay) handlePacket(pkt lan.Packet) {
	t, ch, err := proto.PeekType(pkt.Data)
	if err != nil {
		r.mu.Lock()
		r.stats.Malformed++
		r.mu.Unlock()
		r.tracer.Drop(obs.PathUpstream, obs.ReasonMalformed, string(pkt.From), 0)
		return
	}
	switch t {
	case proto.TypeSubscribe, proto.TypePause:
		r.handleRequest(pkt)
	case proto.TypeControl, proto.TypeData:
		r.mu.Lock()
		// Only packets from the configured source are relayed: off the
		// multicast group, or — chained — from the address the upstream
		// lease is held against (a relay sends everything from the
		// address it leases at). Without this check, anyone who can
		// reach the relay's unicast address — another process on the
		// upstream's host included — could inject one forged data
		// packet and have it amplified to every subscriber.
		if r.fanInFrom != "" {
			if pkt.From != r.fanInFrom {
				r.stats.UpstreamForeign++
				r.mu.Unlock()
				r.tracer.Drop(obs.PathUpstream, obs.ReasonForeign, string(pkt.From), ch)
				return
			}
		} else if pkt.To != r.cfg.Group {
			r.stats.UpstreamForeign++
			r.mu.Unlock()
			r.tracer.Drop(obs.PathUpstream, obs.ReasonForeign, string(pkt.From), ch)
			return
		}
		if r.cfg.Channel != 0 && ch != r.cfg.Channel {
			r.stats.UpstreamForeign++
			r.mu.Unlock()
			r.tracer.Drop(obs.PathUpstream, obs.ReasonChannelFilter, string(pkt.From), ch)
			return
		}
		// The channel table is bounded (maxChannels): an id it has no
		// room for is refused like any other foreign packet.
		if !r.seq.admit(ch) {
			r.stats.UpstreamForeign++
			r.mu.Unlock()
			r.tracer.Drop(obs.PathUpstream, obs.ReasonTableFull, string(pkt.From), ch)
			return
		}
		if t == proto.TypeControl {
			r.stats.UpstreamControl++
		} else {
			r.stats.UpstreamData++
		}
		r.mu.Unlock()
		r.fanout(ch, pkt.Data)
	case proto.TypeSubAck:
		// Chained: our upstream answering our own lease. The lease layer
		// verifies the grant (when the chain is authenticated) and
		// rejects stale or foreign acks before re-pacing on it. The gate
		// is the lease's *current* target, not the configured upstream:
		// a shedding upstream redirects us to a sibling, and from then
		// on that sibling is the relay whose acks — and whose data, via
		// r.fanInFrom — we accept.
		if r.up != nil {
			target := r.up.Target()
			if target == "" || pkt.From != target {
				return
			}
			r.up.HandleAckData(pkt.From, pkt.Data)
			if nt := r.up.Target(); nt != "" && nt != target {
				r.mu.Lock()
				r.fanInFrom = nt
				r.mu.Unlock()
			}
		}
	default:
		// Announce traffic is not ours to forward.
	}
}

// count applies a stats mutation under the relay lock.
func (r *Relay) count(fn func(*Stats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// pathInfo reports the loop-detection pair the relay's own upstream
// subscription carries: one hop more than the deepest downstream relay
// subscribed here, propagating that path's origin id — or this relay's
// own id when only speakers (hops 0, path 0) are subscribed. Around a
// cycle the propagated id eventually returns to its origin, which
// refuses with SubLoop; the growing hop count is the backstop.
func (r *Relay) pathInfo() (uint8, uint64) {
	var hops uint8
	pathID := r.relayID
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, sub := range sh.order {
			if sub.pathID != 0 && sub.hops >= hops {
				hops = sub.hops
				pathID = sub.pathID
			}
		}
		sh.mu.Unlock()
	}
	if hops < 255 {
		hops++
	}
	return hops, pathID
}

// sweep expires silent subscribers; with the
// ladder enabled it is also the quality controller's clock, stepping
// each shard's subscribers down under sustained drops and back up
// after a drop-free dwell (see ladderStep).
func (r *Relay) sweep() {
	for {
		r.clock.Sleep(r.cfg.SweepInterval)
		if r.isStopped() {
			return
		}
		r.sweepOnce(r.clock.Now())
	}
}

// sweepOnce is one sweep at now: expiry, settling, the ladder's step and
// the channel trim.
func (r *Relay) sweepOnce(now time.Time) {
	var expired, down, up int64
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, sub := range slices.Clone(sh.order) {
			if !sub.expires.After(now) {
				r.remove(sh, sub)
				expired++
			}
		}
		r.settle(sh) // charge what a stalled worker has not got to
		if r.cfg.Ladder {
			d, u := r.ladderStep(sh, now)
			down += d
			up += u
		}
		sh.mu.Unlock()
	}
	r.trimChannels()
	if expired+down+up > 0 {
		r.mu.Lock()
		r.nsubs -= int(expired)
		r.stats.Expired += expired
		r.stats.LadderDown += down
		r.stats.LadderUp += up
		r.mu.Unlock()
	}
}
