package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// KV is one (key, value) pair for info metrics and MIB-style sources.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// LV is one labeled integer sample (a per-shard counter, say).
type LV struct {
	Label string `json:"label"`
	Value int64  `json:"value"`
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindLabeledCounter
	kindLabeledGauge
	kindHistogram
	kindInfo
)

// entry is one registered metric.
type entry struct {
	kind  metricKind
	name  string
	help  string
	label string // labeled kinds: the label key
	intFn func() int64
	lvFn  func() []LV
	kvFn  func() []KV
	hist  *Histogram
}

// Registry is the export surface of one daemon: every counter source —
// stats structs, gauges, histograms, tracers — registers here once,
// and the registry renders them all as Prometheus text exposition
// (WritePrometheus, the /metrics route), as a JSON snapshot
// (/snapshot), and as drainable packet traces (/trace). Registration
// order is preserved in the exposition; duplicate names panic, like
// the MIB, because registration is programmer-controlled wiring.
type Registry struct {
	start time.Time

	mu      sync.Mutex
	names   map[string]bool
	ents    []entry
	tracers []struct {
		name string
		t    *Tracer
	}
	jsonVars []struct {
		name string
		fn   func() any
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), names: map[string]bool{}}
}

// register adds one entry, enforcing name uniqueness.
func (g *Registry) register(e entry) {
	if e.name == "" {
		panic("obs: metric needs a name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.names[e.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	g.names[e.name] = true
	g.ents = append(g.ents, e)
}

// Counter registers a cumulative integer metric. name should end in
// _total by Prometheus convention.
func (g *Registry) Counter(name, help string, fn func() int64) {
	g.register(entry{kind: kindCounter, name: name, help: help, intFn: fn})
}

// Gauge registers a current-value integer metric.
func (g *Registry) Gauge(name, help string, fn func() int64) {
	g.register(entry{kind: kindGauge, name: name, help: help, intFn: fn})
}

// LabeledCounter registers a counter family keyed by one label (e.g.
// per-shard drop counts, label "shard").
func (g *Registry) LabeledCounter(name, help, label string, fn func() []LV) {
	g.register(entry{kind: kindLabeledCounter, name: name, help: help, label: label, lvFn: fn})
}

// LabeledGauge registers a gauge family keyed by one label.
func (g *Registry) LabeledGauge(name, help, label string, fn func() []LV) {
	g.register(entry{kind: kindLabeledGauge, name: name, help: help, label: label, lvFn: fn})
}

// Histogram registers a histogram (its name and help come from the
// histogram itself).
func (g *Registry) Histogram(h *Histogram) {
	g.register(entry{kind: kindHistogram, name: h.Name(), help: h.Help(), hist: h})
}

// Info registers an identity metric: a constant-1 gauge whose labels
// carry non-numeric facts (addresses, names, versions), the
// Prometheus idiom for exporting strings.
func (g *Registry) Info(name, help string, fn func() []KV) {
	g.register(entry{kind: kindInfo, name: name, help: help, kvFn: fn})
}

// Tracer registers a packet tracer: its exact drop counters export as
// <name>_drops_total{path,reason}, and its event ring is drained
// through the /trace route and Traces.
func (g *Registry) Tracer(name string, t *Tracer) {
	g.Counter(name+"_trace_recorded_total",
		"packet-path events sampled into the trace ring (1 in "+strconv.Itoa(t.SampleN())+")",
		func() int64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return int64(t.written)
		})
	// Drop counters render with two labels, which the generic labeled
	// entry does not model; flatten (path, reason) into one label value.
	g.register(entry{
		kind: kindLabeledCounter, name: name + "_drops_total",
		help:  "dropped packets by path/reason (exact counts, never sampled)",
		label: "cause",
		lvFn: func() []LV {
			drops := t.Drops()
			out := make([]LV, len(drops))
			for i, d := range drops {
				out[i] = LV{Label: d.Path + "/" + d.Reason, Value: d.Count}
			}
			return out
		},
	})
	g.mu.Lock()
	g.tracers = append(g.tracers, struct {
		name string
		t    *Tracer
	}{name, t})
	g.mu.Unlock()
}

// JSONVar registers a value exported only on the JSON snapshot route —
// structured detail (a per-subscriber table, say) whose cardinality
// does not belong in the metric exposition.
func (g *Registry) JSONVar(name string, fn func() any) {
	g.mu.Lock()
	g.jsonVars = append(g.jsonVars, struct {
		name string
		fn   func() any
	}{name, fn})
	g.mu.Unlock()
}

// StructCounters registers one counter per exported int64 field of the
// struct returned by snap — the mechanical bridge that makes it
// impossible for a new Stats field to silently go unexported. The
// metric name comes from the field's `mib` tag (dots become
// underscores, _total appended); a field without a tag falls back to
// prefix_<snake_case_field>_total. Help text comes from the `help`
// tag, defaulting to the field name.
func (g *Registry) StructCounters(prefix string, snap func() any) {
	StructFields(snap, func(f reflect.StructField, get func() int64) {
		help := f.Tag.Get("help")
		if help == "" {
			help = f.Name
		}
		g.Counter(CounterName(prefix, f), help, get)
	})
}

// StructFields calls fn once per exported int64 field of the struct
// returned by snap, with a getter that reads the field from a fresh
// snapshot. It is the one walk over a stats struct's `mib`/`help`
// tags: StructCounters and the mgmt MIB both register through it.
func StructFields(snap func() any, fn func(f reflect.StructField, get func() int64)) {
	t := reflect.TypeOf(snap())
	if t.Kind() != reflect.Struct {
		panic("obs: stats snapshot is not a struct")
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		fn(f, func() int64 { return reflect.ValueOf(snap()).Field(i).Int() })
	}
}

// CounterName derives the Prometheus counter name StructCounters uses
// for one struct field (exported so coverage tests and experiments can
// predict the full metric set from the Stats type alone).
func CounterName(prefix string, f reflect.StructField) string {
	if tag := f.Tag.Get("mib"); tag != "" {
		return PromName(tag) + "_total"
	}
	return prefix + "_" + snakeCase(f.Name) + "_total"
}

// PromName turns a dotted MIB-style name into a Prometheus metric
// name: dots and dashes become underscores, anything else non-word is
// dropped.
func PromName(dotted string) string {
	var b strings.Builder
	b.Grow(len(dotted))
	for _, r := range dotted {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '.', r == '-':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// snakeCase converts CamelCase to snake_case.
func snakeCase(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Names returns every registered metric name, sorted.
func (g *Registry) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.ents))
	for _, e := range g.ents {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

// entries snapshots the entry list so exposition runs without the
// registry lock held across metric getters (which take their owners'
// locks).
func (g *Registry) entries() []entry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]entry(nil), g.ents...)
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (g *Registry) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, e := range g.entries() {
		switch e.kind {
		case kindCounter, kindGauge:
			typ := "counter"
			if e.kind == kindGauge {
				typ = "gauge"
			}
			pf("# HELP %s %s\n# TYPE %s %s\n%s %d\n", e.name, e.help, e.name, typ, e.name, e.intFn())
		case kindLabeledCounter, kindLabeledGauge:
			typ := "counter"
			if e.kind == kindLabeledGauge {
				typ = "gauge"
			}
			pf("# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, typ)
			for _, lv := range e.lvFn() {
				pf("%s{%s=%q} %d\n", e.name, e.label, escapeLabel(lv.Label), lv.Value)
			}
		case kindHistogram:
			s := e.hist.Snapshot()
			pf("# HELP %s %s\n# TYPE %s histogram\n", e.name, e.help, e.name)
			var cum int64
			for i, c := range s.Buckets {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = strconv.FormatFloat(s.Bounds[i].Seconds(), 'g', -1, 64)
				}
				pf("%s_bucket{le=%q} %d\n", e.name, le, cum)
			}
			pf("%s_sum %g\n%s_count %d\n", e.name, s.Sum.Seconds(), e.name, s.Count)
		case kindInfo:
			pf("# HELP %s %s\n# TYPE %s gauge\n%s{", e.name, e.help, e.name, e.name)
			for i, kv := range e.kvFn() {
				if i > 0 {
					pf(",")
				}
				pf("%s=%q", PromName(kv.Key), escapeLabel(kv.Value))
			}
			pf("} 1\n")
		}
	}
	return err
}

// Snapshot renders every metric as a JSON-encodable map: numbers for
// counters and gauges, {label: value} maps for families, quantile
// summaries for histograms, and the JSONVar details verbatim.
func (g *Registry) Snapshot() map[string]any {
	out := map[string]any{
		"uptime_seconds": time.Since(g.start).Seconds(),
	}
	for _, e := range g.entries() {
		switch e.kind {
		case kindCounter, kindGauge:
			out[e.name] = e.intFn()
		case kindLabeledCounter, kindLabeledGauge:
			m := map[string]int64{}
			for _, lv := range e.lvFn() {
				m[lv.Label] = lv.Value
			}
			out[e.name] = m
		case kindHistogram:
			s := e.hist.Snapshot()
			out[e.name] = map[string]any{
				"count":       s.Count,
				"sum_seconds": s.Sum.Seconds(),
				"p50_seconds": s.Quantile(0.50).Seconds(),
				"p90_seconds": s.Quantile(0.90).Seconds(),
				"p99_seconds": s.Quantile(0.99).Seconds(),
			}
		case kindInfo:
			m := map[string]string{}
			for _, kv := range e.kvFn() {
				m[kv.Key] = kv.Value
			}
			out[e.name] = m
		}
	}
	g.mu.Lock()
	jsonVars := append([]struct {
		name string
		fn   func() any
	}(nil), g.jsonVars...)
	g.mu.Unlock()
	for _, jv := range jsonVars {
		out[jv.name] = jv.fn()
	}
	return out
}

// Traces drains every registered tracer, keyed by tracer name.
func (g *Registry) Traces() map[string]TraceSnapshot {
	g.mu.Lock()
	tracers := append([]struct {
		name string
		t    *Tracer
	}(nil), g.tracers...)
	g.mu.Unlock()
	out := make(map[string]TraceSnapshot, len(tracers))
	for _, tr := range tracers {
		out[tr.name] = tr.t.Drain()
	}
	return out
}

// Uptime reports how long ago the registry was created (process boot,
// in practice).
func (g *Registry) Uptime() time.Duration { return time.Since(g.start) }
