package main

import (
	"fmt"
	"time"
)

// workload is one named load. Every workload has the same skeleton —
// rebroadcastd → multicast group → relay A → relay B, subscribers and a
// speaker on A, a probe and a speaker behind B, a speaker on the group, a
// control-plane generator — so every metric is defined on every
// workload; the workloads differ in which part of relay A does the work.
type workload struct {
	name string // BENCHMARK.json and README.md say why each exists

	// Producer: sample format of the PCM program, and whether the
	// harness writes it on the audio clock (a live source) or as fast as
	// the pipe takes it, leaving the pacing to rebroadcastd's limiter.
	channels int
	live     bool

	// Relays.
	auth       string   // control-plane scheme on both relays
	relayFlags []string // extra relayd flags for relay A

	// Relay A's subscribers, admitted during set-up and served live
	// throughout.
	probes   int
	mutes    int
	profiles []uint8 // requested tiers, round-robin; nil = source

	// Time-shifted cohorts: each joins the stream shift ago, is replayed
	// up to the live head, and is cancelled before the next one joins.
	shiftProbes int
	shiftMutes  int

	// Control-plane load on relay A's idle channel.
	churners  int
	churnRate float64 // ops/s
}

// shift is how far back a time-shifted cohort joins. A tenth of the
// window keeps the ring fill (which is set-up, and real time) short and
// leaves room for several join → converge cycles per run.
func (w *workload) shift(window time.Duration) time.Duration {
	if w.shiftProbes == 0 {
		return 0
	}
	s := window * 3 / 10
	if s > 6*time.Second {
		s = 6 * time.Second
	}
	return s
}

const dvrBurst = 250 // packets/s per catching-up subscriber

var workloads = []workload{
	{
		name: "fanout_live",
		// Mono: 80 packets/s to 1,000 subscribers takes a third to a half of
		// one of this machine's two CPUs. At CD stereo (140/s) it took most of
		// one, and in a slow quarter-hour nearly both, where queues overflow
		// and the run measures the overload, not the code. 48 probes, because
		// a subscriber's transit is mostly its place in the relay's shards,
		// which its ephemeral port decides: fewer read a lottery.
		channels: 1,
		auth:     "none",
		probes:   48, mutes: 952,
	},
	{
		name:     "fanout_tiers",
		channels: 2,
		auth:     "hmac",
		probes:   8, mutes: 88,
		profiles: []uint8{0, 1, 2, 3},
	},
	{
		name:        "timeshift",
		channels:    2,
		auth:        "none",
		relayFlags:  []string{"-dvr", "-dvr-depth", "30s", "-dvr-burst", fmt.Sprint(dvrBurst)},
		probes:      8,
		shiftProbes: 8, shiftMutes: 292,
	},
	{
		name:     "chain_churn",
		channels: 1,
		live:     true,
		auth:     "ident",
		churners: 2000, churnRate: 4000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
