package main

import (
	"flag"
	"time"

	"repro/internal/lan"
	"repro/internal/relay"
	"repro/internal/security"
)

// options holds every relayd command-line setting. The flag layer is
// split out of main so the flag surface — names, defaults, and how
// they shape relay.Config — is testable without running the daemon.
type options struct {
	group    string
	upstream string
	catalog  string
	adverts  string
	maxHops  int
	listen   string
	channel  uint
	shards   int
	queue    int
	maxSubs  int
	maxLease time.Duration
	batch    int
	auth     string
	keyFile  string
	identity uint
	mintID   uint
	shedSubs int
	shedPres int
	shedTier bool

	ladder          bool
	ladderDownDrops int
	ladderDwell     time.Duration
	gso             bool

	dvr      bool
	dvrDepth time.Duration
	dvrBurst int

	report  time.Duration
	opsAddr string
	traceN  int
}

// parseFlags parses args (not including the program name) against the
// full relayd flag surface.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	if err := flagSet(o).Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// flagSet registers the full relayd flag surface on a fresh FlagSet,
// each flag bound to its field of o.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("relayd", flag.ContinueOnError)
	fs.StringVar(&o.group, "group", "239.72.1.1:5004", "multicast group to relay (ignored with -upstream)")
	fs.StringVar(&o.upstream, "upstream", "", "chain behind another relay: its unicast address, or 'discover' to pick one from the catalog (replaces -group)")
	fs.StringVar(&o.catalog, "catalog", "239.72.0.1:5003", "catalog group queried by -upstream discover")
	fs.StringVar(&o.adverts, "advertise", "", "catalog group to advertise this relay on (empty = off; the system default is 239.72.0.1:5003)")
	fs.IntVar(&o.maxHops, "max-hops", relay.DefaultMaxHops, "refuse subscription paths deeper than this many relays")
	fs.StringVar(&o.listen, "listen", "0.0.0.0:5006", "unicast address subscribers lease from")
	fs.UintVar(&o.channel, "channel", 0, "restrict to one channel id (0 = any)")
	fs.IntVar(&o.shards, "shards", relay.DefaultShards, "subscriber table shards")
	fs.IntVar(&o.queue, "queue", relay.DefaultQueueLen, "lag window: packets a live subscriber may fall behind the stream before it is skipped forward (counted as queue-full drops)")
	fs.IntVar(&o.maxSubs, "max-subscribers", relay.DefaultMaxSubscribers, "subscriber table capacity")
	fs.DurationVar(&o.maxLease, "max-lease", relay.DefaultMaxLease, "longest grantable lease")
	fs.IntVar(&o.batch, "batch", relay.DefaultBatch, "fan-out batch size in datagrams (1 = unbatched)")
	fs.StringVar(&o.auth, "auth", "none", "control-plane auth scheme: none, hmac, or ident (per-subscriber credentials) with -key-file (§5.1; forged subscribes are dropped silently)")
	fs.StringVar(&o.keyFile, "key-file", "", "file holding the control-plane key: the shared key (-auth hmac) or the chain master key (-auth ident)")
	fs.UintVar(&o.identity, "identity", 0, "this relay's subscriber identity for its upstream lease (with -auth ident and -upstream; credentials derive from the master key)")
	fs.UintVar(&o.mintID, "mint-identity", 0, "print the hex credential for this subscriber identity (derived from -key-file's master key) and exit")
	fs.IntVar(&o.shedSubs, "shed-subscribers", 0, "shed new subscribers (SubRedirect to a catalog sibling) at this subscriber count (0 = off; needs -advertise so siblings are watched)")
	fs.IntVar(&o.shedPres, "shed-pressure", 0, "shed new subscribers at this queue-pressure score, 1-255 (0 = off; needs -advertise so siblings are watched)")
	fs.BoolVar(&o.shedTier, "shed-tier", false, "redirect subscribers the quality ladder has pushed to the bottom rung to a less-loaded catalog sibling at their next refresh (needs -ladder and -advertise)")
	fs.BoolVar(&o.ladder, "ladder", false, "adaptive quality ladder: transcode congested subscribers down the profile tiers, recover after a clean dwell")
	fs.IntVar(&o.ladderDownDrops, "ladder-down-drops", relay.DefaultLadderDownDrops, "queue drops per sweep that push a subscriber one ladder tier down (with -ladder)")
	fs.DurationVar(&o.ladderDwell, "ladder-dwell", relay.DefaultLadderDwell, "drop-free dwell before a downgraded subscriber climbs one tier back (with -ladder)")
	fs.BoolVar(&o.gso, "gso", false, "UDP_SEGMENT segmentation offload on fan-out sockets (Linux; falls back to sendmmsg where unsupported)")
	fs.BoolVar(&o.dvr, "dvr", false, "time-shifted delivery: record relayed packets in a bounded ring and serve Subscribe shifts and pause/resume from it")
	fs.DurationVar(&o.dvrDepth, "dvr-depth", 0, "recorded history, one ring for everything the relay carries (0 = the built-in 30s default; with -dvr)")
	fs.IntVar(&o.dvrBurst, "dvr-burst", 0, "catch-up delivery rate in packets/s per subscriber (0 = the built-in default; with -dvr)")
	fs.DurationVar(&o.report, "report", 10*time.Second, "stats table interval (0 = silent)")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "ops HTTP endpoint: /metrics, /snapshot, /trace, /healthz, /debug/pprof (empty = off)")
	fs.IntVar(&o.traceN, "trace-sample", 0, "packet tracer 1-in-N sampling for the event ring (0 = default; drop counters are always exact)")
	return fs
}

// relayConfig shapes the parsed flags into the relay.Config main hands
// to relay.New. auth, upstreamAuth, and sourceHops arrive resolved —
// key loading and catalog discovery are side effects the flag layer
// stays out of.
func (o *options) relayConfig(auth security.RelayAuthenticator, upstreamAuth security.Authenticator, sourceHops int) relay.Config {
	cfg := relay.Config{
		Group:           lan.Addr(o.group),
		Upstream:        lan.Addr(o.upstream),
		MaxHops:         o.maxHops,
		Channel:         uint32(o.channel),
		Shards:          o.shards,
		QueueLen:        o.queue,
		MaxSubscribers:  o.maxSubs,
		MaxLease:        o.maxLease,
		Batch:           o.batch,
		Auth:            auth,
		UpstreamAuth:    upstreamAuth,
		TraceSample:     o.traceN,
		ShedSubscribers: o.shedSubs,
		ShedPressure:    o.shedPres,
		ShedTier:        o.shedTier,
		SourceHops:      sourceHops,
		Ladder:          o.ladder,
		LadderDownDrops: o.ladderDownDrops,
		LadderDwell:     o.ladderDwell,
		GSO:             o.gso,
		DVR:             o.dvr,
		DVRDepth:        o.dvrDepth,
		DVRBurst:        o.dvrBurst,
	}
	if o.upstream != "" {
		cfg.Group = "" // chained: the upstream relay is the source
	}
	return cfg
}
