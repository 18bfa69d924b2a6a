package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the contract the benchmark driver reads; spec.go and
// workload.go are what the harness does. They must name the same things.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metricSpec, table []metricSpec) {
		if len(got) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(table))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s %q (%q): bad or repeated name, or bad unit", kind, m.name, m.unit)
			}
			seen[m.name] = true
			if i < len(table) && m != table[i] {
				t.Errorf("%s %d: BENCHMARK.json says %v, spec.go %v", kind, i, m, table[i])
			}
		}
	}
	var e2e, layers []metricSpec
	setup := false
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %q: better %q", m.Name, m.Better)
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
	if len(layers) > 128 || len(e2e) > 16 || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Error("metric or workload count outside the contract")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
