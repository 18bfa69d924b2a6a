// Command cmp compares two esbench result files metric by metric against
// the bounds in BENCHMARK.json:
//
//	go run ./bench/cmp bench/out/before.json bench/out/after.json
//
// For every workload and end-to-end metric it prints each side's median
// and quartiles over the untraced runs and a verdict: "same" when the
// second median is not worse than the first by more than the metric's
// bound; "worse" when it is; "better" when it improved by more than the
// first side's own spread; "unresolved" when either side's spread is
// wider than the bound, unless every run of one side beats every run of
// the other. It exits 1 if any metric reads worse or unresolved.
//
// What the runs reported beside the end-to-end metrics (relay CPU per
// packet) is compared the same way against the contract's widest bound
// and marked "not gated"; it does not decide the exit code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/bench/quant"
)

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type results struct {
	Runs []struct {
		Workload string           `json:"workload"`
		Invalid  []string         `json:"invalid"`
		EndToEnd map[string]value `json:"end_to_end"`
		Reported map[string]value `json:"reported"`
	} `json:"runs"`
}

// watchBound is the bound the reported, ungated metrics are read against:
// the widest the benchmark's contract allows.
const watchBound = 0.25

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func load(path string, v any) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
}

// values collects one metric's value from every valid run of one
// workload.
func (r *results) values(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if run.Workload != workload || len(run.Invalid) > 0 {
			continue
		}
		if m, ok := run.EndToEnd[metric]; ok {
			vs = append(vs, m.Value)
		} else if m, ok := run.Reported[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict compares a (before) with b (after). sign is +1 when lower is
// better, -1 when higher is.
func verdict(a, b []float64, bound, sign float64) string {
	_, ma, _ := quant.Quartiles(a)
	_, mb, _ := quant.Quartiles(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "missing"
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	worse := sign * (mb - ma) / ma // > 0: b is worse
	if quant.Spread(a) > bound || quant.Spread(b) > bound {
		switch {
		case sign > 0 && sb[len(sb)-1] < sa[0], sign < 0 && sb[0] > sa[len(sa)-1]:
			return "better"
		case sign > 0 && sb[0] > sa[len(sa)-1], sign < 0 && sb[len(sb)-1] < sa[0]:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > quant.Spread(a):
		return "better"
	}
	return "same"
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's contract: metric names, directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench/cmp [-spec BENCHMARK.json] before.json after.json")
		os.Exit(2)
	}
	var sp spec
	var before, after results
	load(*specPath, &sp)
	load(flag.Arg(0), &before)
	load(flag.Arg(1), &after)

	seen := map[string]bool{}
	var workloads []string
	for _, r := range append(before.Runs, after.Runs...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	bad := 0
	fmt.Printf("%-13s %-24s %-5s %35s %35s %7s %6s  %s\n", "workload", "metric", "unit",
		"before: median [q1, q3] n", "after: median [q1, q3] n", "change", "bound", "verdict")
	// What the runs reported beside the end-to-end metrics; all are costs,
	// lower is better.
	units := map[string]string{}
	for _, r := range append(before.Runs, after.Runs...) {
		for n, m := range r.Reported {
			units[n] = m.Unit
		}
	}
	var watched []string
	for n := range units {
		watched = append(watched, n)
	}
	sort.Strings(watched)
	row := func(w, name, unit string, bound, sign float64, gated bool) {
		a, b := before.values(w, name), after.values(w, name)
		v := verdict(a, b, bound, sign)
		if gated && v != "same" && v != "better" {
			bad++
		}
		if !gated {
			v += " (not gated)"
		}
		a1, a2, a3 := quant.Quartiles(a)
		b1, b2, b3 := quant.Quartiles(b)
		change := 0.0
		if a2 != 0 {
			change = 100 * (b2 - a2) / a2
		}
		fmt.Printf("%-13s %-24s %-5s %12.4g [%9.4g, %9.4g] %d %12.4g [%9.4g, %9.4g] %d %+6.1f%% %5.0f%%  %s\n",
			w, name, unit, a2, a1, a3, len(a), b2, b1, b3, len(b), change, 100*bound, v)
	}
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			row(w, m.Name, m.Unit, m.Bound, sign, true)
		}
		for _, n := range watched {
			row(w, n, units[n], watchBound, 1, false)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric/workload pairs read worse, unresolved or missing\n", bad)
		os.Exit(1)
	}
}
