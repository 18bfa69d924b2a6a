package relay

import (
	"strconv"

	"repro/internal/obs"
)

// RegisterObs publishes the relay's full ops surface on reg: every
// Stats counter (mechanically, via the mib tags), the subscriber and
// per-shard pressure gauges, the four hot-path histograms, the packet
// tracer, an identity info metric, and the per-subscriber table as
// JSON-snapshot detail. Call once per registry; the relay keeps no
// reference to reg.
func (r *Relay) RegisterObs(reg *obs.Registry) {
	reg.StructCounters("es_relay", func() any { return r.Stats() })
	reg.Gauge("es_relay_subscribers",
		"currently leased subscribers", func() int64 {
			return int64(r.NumSubscribers())
		})

	// Per-shard pressure: the lumped FanoutSent/FanoutDropped totals
	// hide a hot shard; these do not.
	shardLV := func(pick func(ShardStats) int64) func() []obs.LV {
		return func() []obs.LV {
			ss := r.ShardStats()
			out := make([]obs.LV, len(ss))
			for i, s := range ss {
				out[i] = obs.LV{Label: strconv.Itoa(s.Shard), Value: pick(s)}
			}
			return out
		}
	}
	reg.LabeledCounter("es_relay_shard_sent_total",
		"unicast packets delivered, by shard", "shard",
		shardLV(func(s ShardStats) int64 { return s.Sent }))
	reg.LabeledCounter("es_relay_shard_dropped_total",
		"packets skipped by clamping lagging subscribers forward, by shard", "shard",
		shardLV(func(s ShardStats) int64 { return s.Dropped }))
	reg.LabeledGauge("es_relay_shard_subscribers",
		"leased subscribers, by shard", "shard",
		shardLV(func(s ShardStats) int64 { return int64(s.Subscribers) }))
	reg.LabeledGauge("es_relay_shard_queued",
		"packets between live subscribers' cursors and the head at the last sweep, by shard", "shard",
		shardLV(func(s ShardStats) int64 { return int64(s.Queued) }))
	reg.LabeledGauge("es_relay_shard_max_queued",
		"high-water mark of queued packets over sweeps, by shard", "shard",
		shardLV(func(s ShardStats) int64 { return int64(s.MaxQueued) }))

	reg.Histogram(r.flushLatency)
	reg.Histogram(r.queueResidency)
	reg.Histogram(r.transcodeLatency)
	reg.Histogram(r.upRTT)
	reg.Histogram(r.leaseMargin)
	reg.Histogram(r.catchupLag)
	reg.Tracer("es_relay", r.tracer)

	reg.Info("es_relay_info", "relay identity", func() []obs.KV {
		return []obs.KV{
			{Key: "addr", Value: string(r.Addr())},
			{Key: "source", Value: string(r.Source())},
			{Key: "upstream", Value: string(r.Upstream())},
			{Key: "channel", Value: strconv.FormatUint(uint64(r.cfg.Channel), 10)},
			{Key: "shards", Value: strconv.Itoa(len(r.shards))},
		}
	})

	// High-cardinality detail stays off /metrics and on /snapshot.
	reg.JSONVar("es_relay_subscriber_table", func() any { return r.Subscribers() })
	reg.JSONVar("es_relay_shard_table", func() any { return r.ShardStats() })
}
