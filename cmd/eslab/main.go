// Command eslab regenerates the paper's figures, tables and quantified
// claims. Each experiment prints a table; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	eslab -exp all          # run everything (takes a few minutes)
//	eslab -exp fig4         # one experiment
//	eslab -list             # list experiments
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

// experiment is one runnable entry.
type experiment struct {
	name string
	desc string
	run  func(quick bool)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the problem
	}

	w := os.Stdout
	exps := []experiment{
		{"fig4", "Figure 4: compression CPU load vs. stream count", func(q bool) {
			secs := 60
			if q {
				secs = 5
			}
			experiments.Fig4(w, secs, 4, 8)
		}},
		{"fig5", "Figure 5: context-switch rate, in-kernel vs. user-level VAD", func(q bool) {
			secs := 60
			if q {
				secs = 10
			}
			experiments.Fig5(w, secs)
		}},
		{"bitrate", "E3 (§2.2): network overhead per transport", func(q bool) {
			secs := 10
			if q {
				secs = 2
			}
			experiments.E3Bitrate(w, secs)
		}},
		{"ratelimit", "E4 (§3.1): the rate limiter", func(q bool) {
			clip := 5 * time.Minute
			if q {
				clip = 20 * time.Second
			}
			experiments.E4RateLimiter(w, clip)
		}},
		{"sync", "E5 (§3.2): inter-speaker skew, epsilon sweep, and two drifting DACs", func(q bool) {
			var eps []time.Duration
			if q {
				eps = []time.Duration{5 * time.Millisecond, 50 * time.Millisecond}
			}
			experiments.E5Sync(w, eps)
			drift := 10 * time.Minute
			if q {
				drift = 2 * time.Minute
			}
			experiments.E5Drift(w, drift)
		}},
		{"bufsize", "E6 (§3.4): receive-buffer size vs. skipped audio", func(q bool) {
			var bufs []int
			if q {
				bufs = []int{1400, 89600}
			}
			experiments.E6BufferSize(w, bufs)
		}},
		{"join", "E7 (§2.3): control cadence vs. tune-in latency", func(q bool) {
			var ivs []time.Duration
			if q {
				ivs = []time.Duration{250 * time.Millisecond, time.Second}
			}
			experiments.E7JoinLatency(w, ivs)
		}},
		{"generations", "E8 (§2.2): multi-generation lossy coding", func(q bool) {
			gens := 5
			if q {
				gens = 3
			}
			experiments.E8Generations(w, gens)
		}},
		{"auth", "E9 (§5.1): packet authentication cost and DoS resistance", func(q bool) {
			iters := 5000
			if q {
				iters = 500
			}
			experiments.E9Auth(w, iters)
		}},
		{"loss", "E10 (§2.3): packet loss vs. audible glitches", func(q bool) {
			var rates []float64
			if q {
				rates = []float64{0, 0.02}
			}
			experiments.E10Loss(w, rates)
		}},
		{"relay", "E11: multicast-to-unicast relay fan-out and sync", func(q bool) {
			counts := []int{1, 4, 8, 16}
			if q {
				counts = []int{1, 4}
			}
			experiments.E11Relay(w, counts)
		}},
		{"batchorder", "E12: batched fan-out preserves per-subscriber order", func(q bool) {
			counts := []int{8, 64, 256}
			if q {
				counts = []int{8, 32}
			}
			experiments.E12BatchOrder(w, counts)
		}},
		{"chain", "E13: multi-hop relay chaining, discovery, and loop refusal", func(q bool) {
			hops := 3
			if q {
				hops = 2
			}
			experiments.E13Chain(w, hops)
		}},
		{"authrelay", "E14 (§5.1): authenticated relay control plane — signed chain, forged-subscribe drop", func(q bool) {
			secs := 4
			if q {
				secs = 2
			}
			experiments.E14AuthRelay(w, secs)
		}},
		{"opsplane", "E15: ops plane — live scrape coverage mid-storm, forged-subscribe drop attribution", func(q bool) {
			secs := 4
			if q {
				secs = 2
			}
			experiments.E15OpsPlane(w, secs)
		}},
		{"joinstorm", "E16: join storm — load-shed redirects steer a flash crowd of subscribes", func(q bool) {
			n := 2000
			if q {
				n = 400
			}
			experiments.E16JoinStorm(w, n)
		}},
		{"ladder", "E17: adaptive quality ladder — congestion-driven tier downgrade and recovery", func(q bool) {
			rounds := 50
			if q {
				rounds = 20
			}
			experiments.E17Ladder(w, rounds)
		}},
		{"dvr", "E18: time-shifted delivery — DVR catch-up join converging on the live stream", func(q bool) {
			behind := 10
			if q {
				behind = 5
			}
			experiments.E18DVR(w, behind)
		}},
		{"adversary", "E19 (§5.1): per-subscriber identities — forgery, replay, and steering all refused", func(q bool) {
			secs := 4
			if q {
				secs = 2
			}
			experiments.E19Adversary(w, secs)
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].name < exps[j].name })

	if o.list {
		for _, e := range exps {
			fmt.Printf("  %-12s %s\n", e.name, e.desc)
		}
		return
	}
	if o.exp == "" {
		fmt.Fprintln(os.Stderr, "usage: eslab -exp <name|all> [-quick]; eslab -list")
		os.Exit(2)
	}
	ran := false
	for _, e := range exps {
		if o.exp == "all" || o.exp == e.name {
			e.run(o.quick)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "eslab: unknown experiment %q (try -list)\n", o.exp)
		os.Exit(2)
	}
}
