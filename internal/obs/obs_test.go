package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Microsecond, time.Millisecond, time.Second}
	h := NewHistogram("x_seconds", "x", bounds)

	// Prometheus le semantics: an observation exactly at a bound lands
	// in that bound's bucket, one nanosecond above lands in the next.
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(time.Microsecond + 1) // bucket 1
	h.Observe(time.Millisecond)     // bucket 1
	h.Observe(time.Millisecond + 1) // bucket 2
	h.Observe(time.Second)          // bucket 2
	h.Observe(time.Second + 1)      // +Inf bucket
	h.Observe(0)                    // bucket 0
	h.Observe(-5 * time.Second)     // negative clamps into bucket 0

	s := h.Snapshot()
	want := []int64{3, 2, 2, 1}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	// Sum: the negative observation contributes 0.
	wantSum := time.Microsecond + (time.Microsecond + 1) + time.Millisecond +
		(time.Millisecond + 1) + time.Second + (time.Second + 1)
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("q_seconds", "q", nil)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations at ~3µs: p50 and p99 both interpolate inside
	// the (2µs, 5µs] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		got := h.Quantile(q)
		if got <= 2*time.Microsecond || got > 5*time.Microsecond {
			t.Fatalf("q%.2f = %v, want in (2µs, 5µs]", q, got)
		}
	}
	// Push 10 large outliers past the largest bound: p99 moves to the
	// top of the scale, reported as the largest finite bound.
	for i := 0; i < 10; i++ {
		h.Observe(time.Hour)
	}
	top := DefaultLatencyBounds[len(DefaultLatencyBounds)-1]
	if got := h.Quantile(0.999); got != top {
		t.Fatalf("q0.999 = %v, want %v (largest finite bound)", got, top)
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(1, 4) // record everything, tiny ring
	for i := 0; i < 10; i++ {
		tr.Drop(PathFanout, ReasonQueueFull, "10.0.0.1:5004", 1)
	}
	snap := tr.Drain()
	if len(snap.Events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(snap.Events))
	}
	// Oldest-first, and the survivors are the newest four (seq 7..10).
	for i, ev := range snap.Events {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if snap.Overwritten != 6 {
		t.Fatalf("overwritten = %d, want 6", snap.Overwritten)
	}
	if snap.Recorded != 10 {
		t.Fatalf("recorded = %d, want 10", snap.Recorded)
	}
	// Exact counters survive sampling and draining.
	if got := tr.DropCount(PathFanout, ReasonQueueFull); got != 10 {
		t.Fatalf("drop count = %d, want 10", got)
	}
	// The drain cleared the ring but not the counters.
	again := tr.Drain()
	if len(again.Events) != 0 || again.Overwritten != 0 {
		t.Fatalf("second drain not empty: %+v", again)
	}
	if len(again.Drops) != 1 || again.Drops[0].Count != 10 {
		t.Fatalf("drop counters lost across drain: %+v", again.Drops)
	}
}

func TestTracerSamplingKeepsCountersExact(t *testing.T) {
	tr := NewTracer(64, 8)
	for i := 0; i < 1000; i++ {
		tr.Drop(PathControl, ReasonAuth, "10.0.66.6:5004", 0)
	}
	if got := tr.DropCount(PathControl, ReasonAuth); got != 1000 {
		t.Fatalf("sampled tracer lost drops: %d of 1000", got)
	}
	snap := tr.Drain()
	// 1000/64 ≈ 15 sampled events, ring keeps the last 8.
	if len(snap.Events) != 8 {
		t.Fatalf("ring events = %d, want 8", len(snap.Events))
	}
	if snap.Events[0].Reason != "auth" || snap.Events[0].Path != "control" {
		t.Fatalf("bad event attribution: %+v", snap.Events[0])
	}
}

type fakeStats struct {
	Tagged   int64 `mib:"es.test.tagged" help:"a tagged counter"`
	FreeForm int64
	Skipped  float64 // not int64: ignored
}

func TestStructCountersAndExposition(t *testing.T) {
	st := fakeStats{Tagged: 7, FreeForm: 9}
	g := NewRegistry()
	g.StructCounters("es_test", func() any { return st })
	g.Gauge("es_test_gauge", "a gauge", func() int64 { return 3 })
	g.LabeledCounter("es_test_shard_total", "per shard", "shard", func() []LV {
		return []LV{{Label: "0", Value: 1}, {Label: "1", Value: 2}}
	})
	g.Info("es_test_info", "identity", func() []KV {
		return []KV{{Key: "addr", Value: `10.0.0.1:5006`}}
	})
	h := NewHistogram("es_test_latency_seconds", "latency", []time.Duration{time.Millisecond})
	h.Observe(time.Microsecond)
	g.Histogram(h)

	var b strings.Builder
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"es_test_tagged_total 7",    // mib tag drives the name
		"es_test_free_form_total 9", // fallback snake_case
		"# TYPE es_test_gauge gauge",
		"es_test_gauge 3",
		`es_test_shard_total{shard="0"} 1`,
		`es_test_shard_total{shard="1"} 2`,
		`es_test_info{addr="10.0.0.1:5006"} 1`,
		`es_test_latency_seconds_bucket{le="0.001"} 1`,
		`es_test_latency_seconds_bucket{le="+Inf"} 1`,
		"es_test_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "skipped") {
		t.Fatal("non-int64 field exported")
	}

	snap := g.Snapshot()
	if snap["es_test_tagged_total"] != int64(7) {
		t.Fatalf("snapshot tagged = %v", snap["es_test_tagged_total"])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	g := NewRegistry()
	g.Counter("dup_total", "", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	g.Counter("dup_total", "", func() int64 { return 0 })
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"es.relay.auth.dropped": "es_relay_auth_dropped",
		"es.stats.relayStale":   "es_stats_relayStale",
		"weird name!":           "weirdname",
	} {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerRoutes(t *testing.T) {
	g := NewRegistry()
	g.Counter("route_test_total", "", func() int64 { return 42 })
	tr := NewTracer(1, 8)
	tr.Drop(PathControl, ReasonAuth, "10.0.66.6:5004", 0)
	g.Tracer("route_test", tr)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "route_test_total 42") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/snapshot"); code != 200 || !strings.Contains(body, "route_test_total") {
		t.Fatalf("/snapshot: %d %q", code, body)
	}
	code, body := get("/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	var traces map[string]TraceSnapshot
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if len(traces["route_test"].Events) != 1 || traces["route_test"].Events[0].Reason != "auth" {
		t.Fatalf("/trace missing auth drop: %+v", traces)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	g := NewRegistry()
	g.Counter("serve_test_total", "", func() int64 { return 1 })
	s, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}
