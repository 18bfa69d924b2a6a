// Command esbench is the Ethernet Speaker system's benchmark. It starts
// the real daemons — rebroadcastd and one or two relayd — as child
// processes on 127.0.0.1 and a loopback-looped multicast group, and plays
// everything around them: the audio application writing PCM into
// rebroadcastd, a multicast tap that timestamps every packet the producer
// emits, unicast subscribers, a control-plane load, and in-process
// speakers. The daemons are driven through their flags and the wire
// protocol only, so the benchmark keeps working across refactors of
// their insides. See bench/README.md.
//
// One run (what the benchmark driver invokes):
//
//	esbench -workload fanout_live -seed 1 -seconds 20 -trace 0
//
// The whole suite, interleaved, with the traced pass, into out/result.json:
//
//	esbench -suite -runs 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/bench/quant"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fanout_live, fanout_tiers, timeshift or chain_churn")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs: PCM phase, probe placement, key material, churn order")
		seconds = flag.Int("seconds", 20, "measured time per run, shared equally among its set-ups")
		trace   = flag.Int("trace", 0, "1 = traced pass: relayd -ops-addr scraped, packet walk, relay replica; reports the per-layer metrics")
		suite   = flag.Bool("suite", false, "run every workload -runs times, interleaved, then the traced pass; write out/result.json")
		runs    = flag.Int("runs", 3, "untraced runs per workload with -suite")
		binDir  = flag.String("bin", "bench/out/bin", "directory holding freshly built rebroadcastd and relayd")
		outDir  = flag.String("out", "bench/out", "directory for logs, trace files and result.json")
		buildS  = flag.Float64("build-s", 0, "how long the build took (reported as harness.build_s)")
	)
	flag.Parse()
	handleSignals()
	base := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, binDir: *binDir, outDir: *outDir, buildS: *buildS}
	code := 0
	if *suite {
		code = runSuite(base, *runs)
	} else {
		base.trace = *trace != 0
		code = runSingle(base, *name)
	}
	killAllChildren()
	os.Exit(code)
}

// configFor completes base with the named workload and checks what a run
// needs before it starts.
func configFor(base runConfig, name string) (runConfig, error) {
	w, err := findWorkload(name)
	if err != nil {
		return base, err
	}
	base.w = *w
	base.setups = setupsPerRun
	if base.trace {
		base.setups = 1
	}
	if base.each() < time.Second {
		return base, fmt.Errorf("-seconds must be at least %d: one for each set-up", base.setups)
	}
	for _, d := range []string{"rebroadcastd", "relayd"} {
		if _, err := os.Stat(filepath.Join(base.binDir, d)); err != nil {
			return base, fmt.Errorf("%s not built in %s (run bench/run.sh): %w", d, base.binDir, err)
		}
	}
	return base, os.MkdirAll(base.outDir, 0o755)
}

// runSingle is one run in the driver's contract: every metric by name on
// the way, one JSON object as the last line of standard output, exit 0
// only if the run measured what it claims to.
func runSingle(base runConfig, name string) int {
	cfg, err := configFor(base, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 2
	}
	r, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 1
	}
	r.print(os.Stdout)
	if len(r.Invalid) > 0 {
		fmt.Fprintln(os.Stderr, "esbench: invalid run: the harness, not the system, limited the measurement")
		return 3
	}
	fmt.Println(r.driverLine())
	return 0
}

// suiteResult is out/result.json.
type suiteResult struct {
	Seed    int64              `json:"seed"`
	Seconds int                `json:"seconds"`
	Runs    []*result          `json:"runs"` // every untraced run made, invalid ones included and marked
	Traced  []*result          `json:"traced"`
	Summary map[string]spreads `json:"summary"` // workload → metric → median and quartiles over the valid untraced runs
	Claim   *string            `json:"claim"`   // a benchmark-defining change claims no gain
}

type spreads map[string]spread

type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

// runSuite interleaves the workloads across runs (A B C D A B C D …)
// rather than repeating one back to back: on a shared machine the kernel
// send path drifts over minutes, and interleaving puts every workload
// through the same weather.
func runSuite(base runConfig, runs int) int {
	seed, outDir := base.seed, base.outDir
	out := suiteResult{Seed: seed, Seconds: int(base.window / time.Second), Summary: map[string]spreads{}}
	bad := 0
	one := func(name string, seed int64, trace bool) *result {
		base.seed, base.trace = seed, trace
		cfg, err := configFor(base, name)
		if err == nil {
			var r *result
			if r, err = runOnce(cfg); err == nil {
				r.print(os.Stdout)
				if !r.Correct || len(r.Invalid) > 0 {
					bad++
				}
				return r
			}
		}
		fmt.Fprintf(os.Stderr, "esbench: %s: %v\n", name, err)
		bad++
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			if r := one(w.name, seed+int64(i), false); r != nil {
				out.Runs = append(out.Runs, r)
			}
		}
	}
	for _, w := range workloads {
		if r := one(w.name, seed, true); r != nil {
			out.Traced = append(out.Traced, r)
		}
	}
	for _, w := range workloads {
		sp := spreads{}
		add := func(name, unit string, value func(*result) float64) {
			var vs []float64
			for _, r := range out.Runs {
				if r.Workload == w.name && len(r.Invalid) == 0 {
					vs = append(vs, value(r))
				}
			}
			q1, q2, q3 := quant.Quartiles(vs)
			sp[name] = spread{Median: q2, Q1: q1, Q3: q3, Unit: unit, Runs: len(vs)}
		}
		for _, m := range endToEnd {
			add(m.name, m.unit, func(r *result) float64 { return r.EndToEnd[m.name].Value })
		}
		for _, r := range out.Runs { // what the untraced runs reported beside them
			for name, m := range r.Reported {
				if _, ok := sp[name]; !ok {
					add(name, m.Unit, func(r *result) float64 { return r.Reported[name].Value })
				}
			}
		}
		out.Summary[w.name] = sp
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d runs, %d traced)\n", filepath.Join(outDir, "result.json"), len(out.Runs), len(out.Traced))
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "esbench: %d runs failed, were incorrect, or were invalid\n", bad)
		return 1
	}
	return 0
}
