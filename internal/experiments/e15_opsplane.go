package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/speaker"
	"repro/internal/stats"
	"repro/internal/vad"
)

// e15Histograms are the four hot-path latency histograms every relay
// must export live.
var e15Histograms = []string{
	"es_relay_flush_latency_seconds",
	"es_relay_queue_residency_seconds",
	"es_relay_upstream_rtt_seconds",
	"es_relay_lease_margin_seconds",
}

// E15Result is the outcome of the ops-plane experiment.
type E15Result struct {
	SpeakerData     int64    // data packets at the speaker behind the chain: the storm really streamed
	StormScrapes    int64    // successful /metrics scrapes against both relays while it did
	MissingMetrics  []string // relay.Stats counters absent from a live scrape (must be empty)
	HistogramsLive  int      // of the four hot-path histograms, how many both relays exported
	ForgedAuthDrops int64    // control/auth drop-counter delta for one injected forged Subscribe
	TraceShowsAuth  bool     // the drained /trace ring attributes that drop to reason=auth
}

// E15OpsPlane exercises the ops plane end to end: a 2-hop authenticated
// relay chain streams a clip while both relays' ops endpoints are
// scraped from real HTTP clients mid-storm. The final scrape must carry
// a counter for every relay.Stats field and all four hot-path
// histograms — the live-coverage guarantee the reflection test asserts
// statically — and a forged Subscribe injected at the first hop must
// show up in the sampled packet trace with drop reason "auth", proving
// an operator can attribute the §5.1 silent drop from the outside.
func E15OpsPlane(w io.Writer, secs int) E15Result {
	if secs <= 0 {
		secs = 4
	}
	section(w, "E15", "ops plane: live scrape coverage mid-storm, forged-subscribe drop attribution")
	res := e15Run(time.Duration(secs) * time.Second)
	missing := "none"
	if len(res.MissingMetrics) > 0 {
		missing = strings.Join(res.MissingMetrics, ",")
	}
	tab := stats.Table{Headers: []string{"data@speaker", "storm scrapes", "missing metrics",
		"histograms live", "forged auth drops", "trace shows auth"}}
	tab.AddRow(res.SpeakerData, res.StormScrapes, missing,
		fmt.Sprintf("%d/%d", res.HistogramsLive, len(e15Histograms)),
		res.ForgedAuthDrops, res.TraceShowsAuth)
	tab.Render(w)
	fmt.Fprintf(w, "  every relay.Stats counter and all four histograms must appear in the live\n")
	fmt.Fprintf(w, "  scrape, and the forged Subscribe must trace as a control-path auth drop\n")
	return res
}

func e15Run(clip time.Duration) E15Result {
	var res E15Result
	auth := security.NewHMAC([]byte("relay control-plane key"))
	sys := core.NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, err := sys.AddChannel(rebroadcast.Config{ID: 1, Name: "observed", Group: groupA, Codec: "raw"}, vad.Config{})
	if err != nil {
		return res
	}
	// TraceSample 1 records every event: the one forged Subscribe must
	// land in the ring, not just in the (always exact) drop counters.
	r1, err := sys.AddRelay(relay.Config{Group: groupA, Channel: 1, Auth: auth, TraceSample: 1})
	if err != nil {
		return res
	}
	r2, err := sys.AddRelay(relay.Config{Upstream: r1.Addr(), Channel: 1, Auth: auth, UpstreamAuth: auth, TraceSample: 1})
	if err != nil {
		return res
	}
	sp, err := sys.AddSpeaker(speaker.Config{
		Name: "observed", Group: r2.Addr(), Channel: 1, RelayAuth: auth,
	})
	if err != nil {
		return res
	}

	// One ops endpoint per relay, exactly as relayd -ops-addr wires it.
	servers := make([]*obs.Server, 0, 2)
	for _, r := range []*relay.Relay{r1, r2} {
		reg := obs.NewRegistry()
		r.RegisterObs(reg)
		srv, err := obs.Serve("127.0.0.1:0", reg)
		if err != nil {
			return res
		}
		defer srv.Close()
		servers = append(servers, srv)
	}

	// Mid-storm scrapers: real HTTP clients on OS goroutines, hitting
	// /metrics only — /trace drains the event ring, which the final
	// attribution check needs intact.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, srv := range servers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&res.StormScrapes, 1)
				time.Sleep(2 * time.Millisecond)
			}
		}(srv.Addr())
	}

	p := audio.Voice
	tracer := r1.Instruments().Tracer
	sys.Clock.Go("player", func() {
		// The forged Subscribe: unsigned, injected at the first hop.
		// Inject processes it synchronously, so the drop-counter delta
		// attributes exactly this packet.
		forged, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		before := tracer.DropCount(obs.PathControl, obs.ReasonAuth)
		r1.Inject(lan.Packet{From: "10.0.66.99:5004", To: r1.Addr(), Data: forged})
		res.ForgedAuthDrops = tracer.DropCount(obs.PathControl, obs.ReasonAuth) - before
		ch.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), clip)
		sys.Clock.Sleep(clip + 2*time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()
	close(stop)
	wg.Wait()

	// Final scrapes: the coverage check runs against what an operator's
	// collector would actually have ingested. Stats()/histograms stay
	// readable after the relay stops, so this is deterministic.
	bodies := make([]string, 0, 2)
	for _, srv := range servers {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			return res
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodies = append(bodies, string(body))
	}
	st := reflect.TypeOf(relay.Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		name := obs.CounterName("es_relay", f)
		for _, body := range bodies {
			if !strings.Contains(body, name) {
				res.MissingMetrics = append(res.MissingMetrics, name)
				break
			}
		}
	}
	for _, h := range e15Histograms {
		live := true
		for _, body := range bodies {
			if !strings.Contains(body, h+"_count") {
				live = false
			}
		}
		if live {
			res.HistogramsLive++
		}
	}

	// Drain r1's trace ring the way an operator would (the /trace
	// route) and find the forged Subscribe among the sampled events.
	resp, err := http.Get("http://" + servers[0].Addr() + "/trace")
	if err != nil {
		return res
	}
	var traces map[string]obs.TraceSnapshot
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		return res
	}
	for _, ev := range traces["es_relay"].Events {
		if ev.Kind == "drop" && ev.Path == "control" && ev.Reason == "auth" {
			res.TraceShowsAuth = true
		}
	}

	res.SpeakerData = sp.Stats().DataPackets
	return res
}
