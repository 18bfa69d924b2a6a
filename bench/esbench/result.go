package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind it
}

// tally is one kind of operation, attempted and failed.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// result is one run's outcome.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Ops       map[string]*tally    `json:"ops"`
	EndToEnd  map[string]metric    `json:"end_to_end"`
	PerSetup  map[string][]float64 `json:"per_setup"` // each end-to-end metric as every set-up measured it; EndToEnd holds the medians
	PerLayer  map[string]metric    `json:"per_layer,omitempty"`
	Reported  map[string]metric    `json:"reported,omitempty"` // per-layer metrics an untraced run measures anyway: printed and kept, gated on none
	Invalid   []string             `json:"invalid,omitempty"`  // harness conditions that void the run

	genLate     summary
	cpuShare    float64
	stolenPct   float64 // of one CPU, kept back by the hypervisor during the window
	retransmits int     // control requests sent again for want of an ack
	drops       int64   // datagrams the kernel dropped at probe sockets
	duplicates  int     // second copies of a packet a probe received
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Ops: map[string]*tally{}, EndToEnd: map[string]metric{}, PerSetup: map[string][]float64{}, PerLayer: map[string]metric{}, Reported: map[string]metric{},
	}
}

func (r *result) count(kind string, attempted, failed int) {
	t := r.Ops[kind]
	if t == nil {
		t = &tally{}
		r.Ops[kind] = t
	}
	t.Attempted += attempted
	t.Failed += min(failed, max(attempted, 1))
}

// tallyStream books one probe's stream check: every packet owed must
// arrive, and every packet that arrives must be in order and the tap's.
func (r *result) tallyStream(who string, owed, got int, c streamCheck) {
	r.count(who+" deliveries", owed, c.missing)
	r.count(who+" order", got, c.reorders)
	r.count(who+" identity", got, c.mismatches+c.unknown)
	r.duplicates += c.duplicates
}

// end reports an end-to-end metric as the median of what the set-ups
// measured, over n samples in all.
func (r *result) end(name string, perSetup []float64, n int) {
	r.PerSetup[name] = perSetup
	r.EndToEnd[name] = metric{median(perSetup), unitOf(endToEnd, name), n}
}

// report is end for a per-layer metric that every run measures: a
// traced run files it with the others, an untraced one prints and keeps
// it beside the end-to-end metrics.
func (r *result) report(name string, perSetup []float64, n int) {
	r.PerSetup[name] = perSetup
	set := r.Reported
	if r.Trace {
		set = r.PerLayer
	}
	set[name] = metric{median(perSetup), unitOf(perLayer, name), n}
}

func (r *result) layer(name string, v float64, n int) {
	r.PerLayer[name] = metric{v, unitOf(perLayer, name), n}
}

// failures is how many operations have failed so far.
func (r *result) failures() int {
	n := 0
	for _, t := range r.Ops {
		n += t.Failed
	}
	return n
}

// finish totals the tallies and gives every declared metric a value, so
// a run always reports the same set.
func (r *result) finish() {
	for _, m := range endToEnd {
		if _, ok := r.EndToEnd[m.name]; !ok {
			r.end(m.name, nil, 0)
		}
	}
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.name]; !ok && r.Trace {
			r.layer(m.name, 0, 0)
		}
	}
	r.Attempted, r.Failed = 0, 0
	for _, t := range r.Ops {
		r.Attempted += t.Attempted
		r.Failed += t.Failed
	}
	r.Correct = r.Failed == 0
}

// print writes every metric by name with its unit and sample count,
// then the operations, for a person to read.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0f s  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for _, set := range []map[string]metric{r.EndToEnd, r.Reported, r.PerLayer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d", n, m.Value, m.Unit, m.N)
			if per := r.PerSetup[n]; len(per) > 1 {
				fmt.Fprintf(w, "  set-ups %.4g", per)
			}
			fmt.Fprintln(w)
		}
	}
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  ops %-36s %8d attempted %6d failed\n", k, r.Ops[k].Attempted, r.Ops[k].Failed)
	}
	fmt.Fprintf(w, "  harness: cpu_share %.3f  gen_late p%.1f %.0f us (n=%d)  retransmitted requests %d  stolen by the hypervisor %.1f %% of a CPU\n",
		r.cpuShare, r.genLate.TailPct, r.genLate.Tail, r.genLate.N, r.retransmits, r.stolenPct)
	if r.duplicates > 0 {
		fmt.Fprintf(w, "  probes received %d packets twice (reported, not failed: see README, findings)\n", r.duplicates)
	}
	for _, s := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", s)
	}
}

// driverLine is the one-object summary the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func (r *result) driverLine() string {
	set := r.EndToEnd
	if r.Trace {
		set = r.PerLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(set))
	for n, m := range set {
		ms[n] = vu{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(b)
}
