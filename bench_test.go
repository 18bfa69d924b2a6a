// Benchmarks regenerating every figure and table in the paper's
// evaluation (one benchmark per experiment; see DESIGN.md for the index
// and EXPERIMENTS.md for the paper-vs-measured record), plus component
// micro-benchmarks of the substrates they run on.
//
// Custom metrics carry the experiment outcomes: e.g. BenchmarkFig5
// reports switches/interval for the three configurations, and
// BenchmarkE3 reports the raw and compressed wire rates.
package espeaker

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/experiments"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/speaker"
	"repro/internal/vad"
	"repro/internal/vclock"
)

// BenchmarkFig4CompressionCPU regenerates Figure 4: CPU load of
// compressing 4 vs 8 CD-quality streams.
func BenchmarkFig4CompressionCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4(io.Discard, 2, 4, 8)
		b.ReportMetric(res.MeanCPU[4], "cpu%/4streams")
		b.ReportMetric(res.MeanCPU[8], "cpu%/8streams")
	}
}

// BenchmarkFig5ContextSwitches regenerates Figure 5: context-switch
// rates of the three configurations.
func BenchmarkFig5ContextSwitches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(io.Discard, 20)
		b.ReportMetric(res.Mean[experiments.Fig5Unloaded], "sw/interval-unloaded")
		b.ReportMetric(res.Mean[experiments.Fig5KernelThreaded], "sw/interval-kernel")
		b.ReportMetric(res.Mean[experiments.Fig5UserLevel], "sw/interval-user")
	}
}

// BenchmarkE3NetworkOverhead regenerates the §2.2 bitrate table.
func BenchmarkE3NetworkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E3Bitrate(io.Discard, 2)
		for _, row := range res.Rows {
			switch row.Label {
			case "raw PCM":
				b.ReportMetric(row.WireMbps, "Mbps-raw")
			case "ovl q=10 (paper's setting)":
				b.ReportMetric(row.WireMbps, "Mbps-ovl10")
			}
		}
		b.ReportMetric(float64(res.MaxRawStreams), "rawstreams/10Mbps")
	}
}

// BenchmarkE4RateLimiter regenerates the §3.1 comparison.
func BenchmarkE4RateLimiter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E4RateLimiter(io.Discard, 20*time.Second)
		b.ReportMetric(res.On.SendElapsed.Seconds(), "s-send-limited")
		b.ReportMetric(res.Off.SendElapsed.Seconds(), "s-send-unlimited")
		b.ReportMetric(res.Off.PlayedFrac*100, "%played-unlimited")
	}
}

// BenchmarkE5Synchronization regenerates the §3.2 skew measurements.
func BenchmarkE5Synchronization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E5Sync(io.Discard, []time.Duration{10 * time.Millisecond})
		b.ReportMetric(res.Rows[0].MaxSkewMs, "ms-maxskew-sync")
		b.ReportMetric(res.Rows[len(res.Rows)-1].MaxSkewMs, "ms-maxskew-nosync")
	}
}

// BenchmarkE6BufferSize regenerates the §3.4 buffer-size sweep.
func BenchmarkE6BufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E6BufferSize(io.Discard, []int{1400, 36000})
		for _, r := range res.Rows {
			if r.CPU == "geode" && r.RecvBuffer == 36000 {
				b.ReportMetric(float64(r.Glitches+r.DroppedLate), "badevents-geode-36k")
			}
			if r.CPU == "geode" && r.RecvBuffer == 1400 {
				b.ReportMetric(float64(r.Glitches+r.DroppedLate), "badevents-geode-1400")
			}
		}
	}
}

// BenchmarkE7JoinLatency regenerates the §2.3 tune-in measurement.
func BenchmarkE7JoinLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E7JoinLatency(io.Discard,
			[]time.Duration{500 * time.Millisecond, 2 * time.Second})
		b.ReportMetric(res.Rows[0].MeanJoin.Seconds()*1000, "ms-join-500ms-ctl")
		b.ReportMetric(res.Rows[1].MeanJoin.Seconds()*1000, "ms-join-2s-ctl")
	}
}

// BenchmarkE8Generations regenerates the §2.2 generation-loss table.
func BenchmarkE8Generations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E8Generations(io.Discard, 3)
		for _, r := range res.Rows {
			if r.Quality == 10 && r.Generation == 3 {
				b.ReportMetric(r.SNR, "dB-snr-q10-gen3")
			}
		}
	}
}

// BenchmarkE9AuthCost regenerates the §5.1 authentication table.
func BenchmarkE9AuthCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9Auth(io.Discard, 500)
		for _, r := range res.Rows {
			switch r.Scheme {
			case "hmac":
				b.ReportMetric(r.VerifyNs, "ns-verify-hmac")
			case "hors":
				b.ReportMetric(r.VerifyNs, "ns-verify-hors")
				b.ReportMetric(r.GarbageNs, "ns-reject-hors")
			}
		}
	}
}

// BenchmarkE10LossResilience regenerates the §2.3 loss sweep.
func BenchmarkE10LossResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E10Loss(io.Discard, []float64{0, 0.02})
		b.ReportMetric(float64(res.Rows[1].Glitches), "glitches-2%loss")
	}
}

// ---- Component micro-benchmarks ----

// BenchmarkOVLEncode measures the transform encoder on CD audio — the
// per-second cost Figure 4 integrates.
func BenchmarkOVLEncode(b *testing.B) {
	p := audio.CDQuality
	enc, err := codec.NewEncoder("ovl", p, codec.MaxQuality)
	if err != nil {
		b.Fatal(err)
	}
	src := audio.Music(p.SampleRate, p.Channels)
	samples := make([]int16, p.SampleRate*p.Channels/10) // 100ms
	src.ReadSamples(samples)
	raw := audio.Encode(p, samples)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOVLDecode measures the matching decoder (the speaker side).
func BenchmarkOVLDecode(b *testing.B) {
	p := audio.CDQuality
	enc, _ := codec.NewEncoder("ovl", p, codec.MaxQuality)
	src := audio.Music(p.SampleRate, p.Channels)
	samples := make([]int16, p.SampleRate*p.Channels/10)
	src.ReadSamples(samples)
	pkt, err := enc.Encode(audio.Encode(p, samples))
	if err != nil || len(pkt) == 0 {
		b.Fatal("no packet")
	}
	dec, _ := codec.NewDecoder("ovl", p)
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoDataMarshal measures wire encoding of a full data
// packet.
func BenchmarkProtoDataMarshal(b *testing.B) {
	d := &proto.Data{Channel: 1, Epoch: 1, Seq: 42, PlayAt: 123456789,
		Payload: make([]byte, 1400)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoDataUnmarshal measures the speaker's parse path.
func BenchmarkProtoDataUnmarshal(b *testing.B) {
	d := &proto.Data{Channel: 1, Epoch: 1, Seq: 42, PlayAt: 123456789,
		Payload: make([]byte, 1400)}
	pkt, _ := d.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.UnmarshalData(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentMulticast measures simulated-LAN fan-out to eight
// receivers.
func BenchmarkSegmentMulticast(b *testing.B) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	src, _ := seg.Attach("10.0.0.1:5000")
	group := lan.Addr("239.1.1.1:5004")
	for i := 0; i < 8; i++ {
		c, err := seg.Attach(lan.Addr("10.0.0." + string(rune('2'+i)) + ":5004"))
		if err != nil {
			b.Fatal(err)
		}
		c.Join(group)
		sim.Go("drain", func() {
			for {
				if _, err := c.Recv(0); err != nil {
					return
				}
			}
		})
	}
	payload := make([]byte, 1400)
	b.SetBytes(1400 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(group, payload)
	}
}

// BenchmarkRelayFanout measures the relay bridge fanning one multicast
// channel out to unicast subscribers on the simulated segment, as a
// table over the subscriber count and the send strategy: batch=1 is the
// per-subscriber-send baseline (PR 1's data path), batch=64 the batched
// WriteBatch path, the hops=2 row routes the stream through a chained
// relay (group -> relay -> relay -> subscribers) to price one extra
// bridge hop, and the auth=hmac row runs the §5.1-authenticated control
// plane (signed subscribes, verified and signed SubAcks) to show that
// securing lease setup leaves the steady-state fan-out untouched — the
// data path is never wrapped by the relay.
// The headline metric is ns/pkt — wall time per fanned-out packet —
// which records the scaling curve toward thousands of subscribers per
// relay; pkts-fanned-out and pkts-dropped keep the delivery and
// backpressure counts honest.
func BenchmarkRelayFanout(b *testing.B) {
	for _, subs := range []int{100, 1000, 5000} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("subs=%d/batch=%d", subs, batch), func(b *testing.B) {
				benchRelayFanout(b, subs, batch, 1, nil, nil)
			})
		}
	}
	// The scale row: a metro-sized flash crowd on one relay, batched.
	// Unbatched at this size would only measure the simulator, so only
	// the batch=64 point is recorded.
	b.Run("subs=50000/batch=64", func(b *testing.B) {
		benchRelayFanout(b, 50000, 64, 1, nil, nil)
	})
	b.Run("subs=1000/batch=64/hops=2", func(b *testing.B) {
		benchRelayFanout(b, 1000, 64, 2, nil, nil)
	})
	b.Run("subs=1000/batch=64/auth=hmac", func(b *testing.B) {
		benchRelayFanout(b, 1000, 64, 1, security.NewHMAC([]byte("bench control key")), nil)
	})
	// The delivery-group claim priced: subscribers spread across all
	// four codec profiles, and the encodes/pkt metric must track the
	// number of active tiers (3 here), not the subscriber count — the
	// relay encodes once per profile and every same-tier subscriber
	// shares the bytes.
	b.Run("subs=1000/batch=64/profiles=mixed", func(b *testing.B) {
		benchRelayFanout(b, 1000, 64, 1, nil, []codec.Profile{
			codec.ProfileSource, codec.ProfileULaw, codec.ProfileOVLHigh, codec.ProfileOVLLow,
		})
	})
	// GSO vs sendmmsg on the real UDP stack (the simulated segment has
	// no kernel to offload to): one delivery group of same-payload
	// datagrams written per op, plain vs UDP_SEGMENT.
	b.Run("udp/batch=64/gso=off", func(b *testing.B) { benchUDPBatch(b, false) })
	b.Run("udp/batch=64/gso=on", func(b *testing.B) { benchUDPBatch(b, true) })
}

// benchRow is one BenchmarkRelayFanout table row as recorded in the
// perf-trajectory file (BENCH_JSON env var; see scripts/bench.sh). The
// histogram percentiles come from the relay's own hot-path instruments,
// merged across iterations, so the recorded numbers price the
// instrumentation and the live ops endpoint scraped during the run.
type benchRow struct {
	Name           string  `json:"name"`
	Subscribers    int     `json:"subscribers"`
	Batch          int     `json:"batch"`
	Hops           int     `json:"hops"`
	Auth           string  `json:"auth"`
	Profiles       string  `json:"profiles,omitempty"`
	EncodesPerPkt  float64 `json:"encodes_per_pkt,omitempty"`
	NsPerPkt       float64 `json:"ns_per_pkt"`
	PktsFannedOut  float64 `json:"pkts_fanned_out"`
	PktsDropped    float64 `json:"pkts_dropped"`
	FlushP50Us     float64 `json:"flush_p50_us"`
	FlushP99Us     float64 `json:"flush_p99_us"`
	ResidencyP50Us float64 `json:"residency_p50_us"`
	ResidencyP99Us float64 `json:"residency_p99_us"`
	OpsScrapes     int64   `json:"ops_scrapes"`
}

// benchRows accumulates rows across the table's sub-benchmarks; the
// file is rewritten whole after each row so the last one to finish
// leaves the complete document. Rows from different benchmark tables
// (fan-out, join-storm) share the file, each self-describing via its
// "name" field.
var benchRows struct {
	sync.Mutex
	names []string
	rows  map[string]any
}

func recordBenchRow(b *testing.B, name string, row any) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	benchRows.Lock()
	defer benchRows.Unlock()
	// The harness may invoke a sub-benchmark several times (warm-up,
	// -benchtime rounds); keep only the last — largest-b.N — run's row.
	if benchRows.rows == nil {
		benchRows.rows = make(map[string]any)
	}
	if _, seen := benchRows.rows[name]; !seen {
		benchRows.names = append(benchRows.names, name)
	}
	benchRows.rows[name] = row
	ordered := make([]any, 0, len(benchRows.names))
	for _, n := range benchRows.names {
		ordered = append(ordered, benchRows.rows[n])
	}
	data, err := json.MarshalIndent(ordered, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func benchRelayFanout(b *testing.B, subscribers, batch, hops int, auth *security.HMACAuth, profiles []codec.Profile) {
	// The shared key is both sides of the control plane; a nil key must
	// stay a nil interface in the relay configs below.
	var relayAuth security.RelayAuthenticator
	var clientAuth security.Authenticator
	if auth != nil {
		relayAuth, clientAuth = auth, auth
	}
	var sent, dropped, scrapes int64
	var encodes, upData int64
	var active time.Duration // wall time of the fan-out window only
	// Merged across iterations: the relay's own hot-path histograms.
	flushAgg := obs.NewHistogram("flush", "", nil)
	resAgg := obs.NewHistogram("residency", "", nil)
	for i := 0; i < b.N; i++ {
		sys := NewSimSystem(lan.SegmentConfig{})
		ch, err := sys.AddChannel(rebroadcast.Config{
			ID: 1, Name: "bench", Group: "239.72.1.1:5004", Codec: "raw",
		}, vad.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := sys.AddRelay(relay.Config{
			Group: "239.72.1.1:5004", Channel: 1,
			Batch:          batch,
			MaxSubscribers: subscribers,
			Auth:           relayAuth,
		})
		if err != nil {
			b.Fatal(err)
		}
		for h := 1; h < hops; h++ {
			// Chain another relay behind the previous one; subscribers
			// lease from the end of the chain.
			r, err = sys.AddRelay(relay.Config{
				Upstream: r.Addr(), Channel: 1,
				Batch:          batch,
				MaxSubscribers: subscribers,
				Auth:           relayAuth,
				UpstreamAuth:   clientAuth,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		// Raw draining subscribers: the benchmark isolates the relay's
		// fan-out path, not thousands of full speaker pipelines.
		conns := make([]lan.Conn, 0, subscribers)
		for s := 0; s < subscribers; s++ {
			conn, err := sys.Net.Attach(lan.Addr(
				fmt.Sprintf("10.%d.%d.%d:5004", 9+s/65025, (s/255)%255, 1+s%255)))
			if err != nil {
				b.Fatal(err)
			}
			conns = append(conns, conn)
			sys.Clock.Go("drain", func() {
				for {
					if _, err := conn.Recv(0); err != nil {
						return
					}
				}
			})
		}
		// The ops endpoint is live and scraped throughout — the reported
		// ns/pkt prices the relay as deployed, instrumentation included.
		reg := obs.NewRegistry()
		r.RegisterObs(reg)
		srv, err := obs.Serve("127.0.0.1:0", reg)
		if err != nil {
			b.Fatal(err)
		}
		scrapeStop := make(chan struct{})
		var scrapeWG sync.WaitGroup
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-scrapeStop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.Addr() + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&scrapes, 1)
				time.Sleep(10 * time.Millisecond)
			}
		}()
		p := audio.Voice
		if len(profiles) > 0 {
			// The profile spread needs a 16-bit source: the µ-law tier
			// transcodes linear samples only (8-bit Voice would leave it
			// in passthrough and under-count the active tiers).
			p = audio.Params{SampleRate: 44100, Channels: 1, Encoding: audio.EncodingSLinear16LE}
		}
		// Subscribing happens inside a tracked task: simulated time is
		// frozen while it runs, so every lease is granted at the same
		// instant and none can expire mid-clip.
		sys.Clock.Go("driver", func() {
			// One signed body per requested profile; subscribers round-robin
			// across them (all-source when no profile spread is configured).
			reqs := [][]byte{nil}
			if len(profiles) > 0 {
				reqs = make([][]byte, len(profiles))
			}
			for i := range reqs {
				req := &proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}
				if len(profiles) > 0 {
					req.Profile = uint8(profiles[i])
				}
				sub, err := req.Marshal()
				if err != nil {
					b.Error(err)
					return
				}
				if auth != nil {
					sub = auth.Sign(sub)
				}
				reqs[i] = sub
			}
			for i, conn := range conns {
				if err := conn.Send(r.Addr(), reqs[i%len(reqs)]); err != nil {
					b.Error(err)
					return
				}
			}
			for r.NumSubscribers() < subscribers {
				sys.Clock.Sleep(10 * time.Millisecond)
			}
			// ns/pkt times only the window in which fan-out happens:
			// play through relay shutdown (workers are drained when
			// Shutdown returns), excluding the subscriber setup above.
			start := time.Now()
			ch.Play(p, audio.NewTone(p.SampleRate, 1, 440, 0.5), time.Second)
			sys.Clock.Sleep(2 * time.Second)
			sys.Shutdown()
			active += time.Since(start)
			for _, c := range conns {
				c.Close()
			}
		})
		sys.Sim.WaitIdle()
		close(scrapeStop)
		scrapeWG.Wait()
		srv.Close()
		st := r.Stats()
		if st.Subscribes != int64(subscribers) {
			b.Fatalf("only %d of %d subscribers leased", st.Subscribes, subscribers)
		}
		sent += st.FanoutSent
		dropped += st.FanoutDropped
		encodes += st.TranscodeEncodes
		upData += st.UpstreamData
		inst := r.Instruments()
		flushAgg.Merge(inst.FlushLatency)
		resAgg.Merge(inst.QueueResidency)
	}
	var nsPkt float64
	if sent > 0 {
		nsPkt = float64(active.Nanoseconds()) / float64(sent)
		b.ReportMetric(nsPkt, "ns/pkt")
	}
	b.ReportMetric(float64(sent)/float64(b.N), "pkts-fanned-out")
	b.ReportMetric(float64(dropped)/float64(b.N), "pkts-dropped")
	b.ReportMetric(float64(flushAgg.Quantile(0.99).Microseconds()), "us-flush-p99")
	b.ReportMetric(float64(resAgg.Quantile(0.99).Microseconds()), "us-residency-p99")
	// The per-profile encode claim: encodes/pkt must track the active
	// non-source tier count (3 on the mixed row), never the subscriber
	// count — same-tier subscribers share every encoded payload.
	var encPerPkt float64
	if upData > 0 {
		encPerPkt = float64(encodes) / float64(upData)
	}
	if len(profiles) > 0 {
		b.ReportMetric(encPerPkt, "encodes/pkt")
	}
	authName := "none"
	if auth != nil {
		authName = auth.Scheme().String()
	}
	var profNames []string
	for _, p := range profiles {
		profNames = append(profNames, p.String())
	}
	recordBenchRow(b, b.Name(), benchRow{
		Name:           b.Name(),
		Subscribers:    subscribers,
		Batch:          batch,
		Hops:           hops,
		Auth:           authName,
		Profiles:       strings.Join(profNames, ","),
		EncodesPerPkt:  encPerPkt,
		NsPerPkt:       nsPkt,
		PktsFannedOut:  float64(sent) / float64(b.N),
		PktsDropped:    float64(dropped) / float64(b.N),
		FlushP50Us:     float64(flushAgg.Quantile(0.50).Nanoseconds()) / 1e3,
		FlushP99Us:     float64(flushAgg.Quantile(0.99).Nanoseconds()) / 1e3,
		ResidencyP50Us: float64(resAgg.Quantile(0.50).Nanoseconds()) / 1e3,
		ResidencyP99Us: float64(resAgg.Quantile(0.99).Nanoseconds()) / 1e3,
		OpsScrapes:     scrapes,
	})
}

// gsoRow is one GSO-vs-sendmmsg micro-row in the perf-trajectory file.
type gsoRow struct {
	Name     string  `json:"name"`
	Batch    int     `json:"batch"`
	GSO      bool    `json:"gso"`
	NsPerPkt float64 `json:"ns_per_pkt"`
	MBps     float64 `json:"mb_per_sec"`
}

// benchUDPBatch prices one delivery group — 64 identical 1200-byte
// datagrams to one destination — written through the real UDP stack,
// plain sendmmsg vs UDP_SEGMENT. It runs on loopback sockets because
// the simulated segment has no kernel to offload to; on platforms (or
// kernels) without GSO support the gso=on row is skipped rather than
// silently re-measuring the fallback.
func benchUDPBatch(b *testing.B, gso bool) {
	const batch, size = 64, 1200
	net := &lan.UDPNetwork{}
	rx, err := net.Attach("127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	defer rx.Close()
	tx, err := net.Attach("127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	defer tx.Close()
	if gso && !lan.EnableGSO(tx) {
		b.Skip("UDP_SEGMENT not supported on this platform/kernel")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := rx.Recv(0); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, size)
	dgs := make([]lan.Datagram, batch)
	for i := range dgs {
		dgs[i] = lan.Datagram{To: rx.LocalAddr(), Data: payload}
	}
	b.SetBytes(batch * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lan.WriteBatch(tx, dgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Close()
	rx.Close()
	<-done
	nsPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
	b.ReportMetric(nsPkt, "ns/pkt")
	recordBenchRow(b, b.Name(), gsoRow{
		Name:     b.Name(),
		Batch:    batch,
		GSO:      gso,
		NsPerPkt: nsPkt,
		MBps:     float64(b.N*batch*size) / b.Elapsed().Seconds() / 1e6,
	})
}

// BenchmarkJoinStorm measures the relay's admission path under a flash
// crowd: 2,000 signed Subscribes arrive in the same instant and the
// benchmark times the wall clock until every one holds a lease.
// admit=1 is the per-packet baseline (each Subscribe verified, acked,
// and inserted alone); admit=256 is the batched path (one verify call
// per gather, one SubAck-signing call, one shard-lock acquisition per
// shard per pass, one WriteBatch). The
// auth=ident row reruns the batched storm with per-subscriber
// credentials — every Subscribe signed by a distinct identity,
// batch-verified under per-identity keys with the source bound in —
// to price the identity upgrade against shared-key admission. The
// headline metric is subscribes/sec; ns/subscribe records the same
// curve per admission for the trajectory file.
func BenchmarkJoinStorm(b *testing.B) {
	for _, admit := range []int{1, 256} {
		b.Run(fmt.Sprintf("subs=2000/admit=%d", admit), func(b *testing.B) {
			benchJoinStorm(b, 2000, admit, "hmac")
		})
	}
	b.Run("subs=2000/admit=256/auth=ident", func(b *testing.B) {
		benchJoinStorm(b, 2000, 256, "ident")
	})
}

// stormRow is one BenchmarkJoinStorm row in the perf-trajectory file.
type stormRow struct {
	Name         string  `json:"name"`
	Subscribers  int     `json:"subscribers"`
	AdmitBatch   int     `json:"admit_batch"`
	Auth         string  `json:"auth"`
	NsPerSub     float64 `json:"ns_per_subscribe"`
	SubsPerSec   float64 `json:"subscribes_per_sec"`
	AdmitBatches float64 `json:"admit_batches"`
}

func benchJoinStorm(b *testing.B, subscribers, admitBatch int, scheme string) {
	var auth security.RelayAuthenticator
	var shared *security.HMACAuth
	var ring *security.Keyring
	switch scheme {
	case "hmac":
		shared = security.NewHMAC([]byte("bench control key"))
		auth = shared
	case "ident":
		ring = security.NewKeyring([]byte("bench master key"))
		auth = ring.Relay()
	default:
		b.Fatalf("unknown bench auth scheme %q", scheme)
	}
	var active time.Duration
	var batches int64
	for i := 0; i < b.N; i++ {
		// NIC buffers sized for the storm: every Subscribe lands on one
		// relay socket in the same simulated instant.
		sys := NewSimSystem(lan.SegmentConfig{QueueLen: 4 * subscribers})
		r, err := sys.AddRelay(relay.Config{
			Group: "239.72.1.1:5004", Channel: 1,
			MaxSubscribers: subscribers,
			Auth:           auth,
			AdmitBatch:     admitBatch,
		})
		if err != nil {
			b.Fatal(err)
		}
		conns := make([]lan.Conn, 0, subscribers)
		for s := 0; s < subscribers; s++ {
			conn, err := sys.Net.Attach(lan.Addr(
				fmt.Sprintf("10.%d.%d.%d:5004", 9+s/65025, (s/255)%255, 1+s%255)))
			if err != nil {
				b.Fatal(err)
			}
			conns = append(conns, conn)
		}
		// The requests are pre-signed outside the timed window: the
		// window below times the relay's admission work, not thousands
		// of client signings. Shared-key rows reuse one signed request;
		// the identity row needs one per source, because the tag binds
		// the subscriber's identity, sequence, and UDP source.
		reqs := make([][]byte, len(conns))
		sub, err := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if ring != nil {
			for s, conn := range conns {
				signer := security.NewIdentitySignerAt(
					ring.Credential(uint32(s+1)), uint32(s+1), string(conn.LocalAddr()), 1)
				reqs[s] = signer.Sign(sub)
			}
		} else {
			signed := shared.Sign(sub)
			for s := range reqs {
				reqs[s] = signed
			}
		}
		sys.Clock.Go("storm", func() {
			start := time.Now()
			for s, conn := range conns {
				if err := conn.Send(r.Addr(), reqs[s]); err != nil {
					b.Error(err)
					return
				}
			}
			for r.NumSubscribers() < subscribers {
				sys.Clock.Sleep(time.Millisecond)
			}
			active += time.Since(start)
			sys.Shutdown()
			for _, c := range conns {
				c.Close()
			}
		})
		sys.Sim.WaitIdle()
		st := r.Stats()
		if st.Subscribes != int64(subscribers) {
			b.Fatalf("only %d of %d subscribers admitted", st.Subscribes, subscribers)
		}
		batches += st.AdmitBatches
	}
	total := int64(subscribers) * int64(b.N)
	nsPerSub := float64(active.Nanoseconds()) / float64(total)
	b.ReportMetric(nsPerSub, "ns/subscribe")
	b.ReportMetric(float64(total)/active.Seconds(), "subscribes/sec")
	recordBenchRow(b, b.Name(), stormRow{
		Name:         b.Name(),
		Subscribers:  subscribers,
		AdmitBatch:   admitBatch,
		Auth:         auth.Scheme().String(),
		NsPerSub:     nsPerSub,
		SubsPerSec:   float64(total) / active.Seconds(),
		AdmitBatches: float64(batches) / float64(b.N),
	})
}

// BenchmarkDVRCatchup measures time-shifted delivery's replay path: a
// DVR-enabled relay records a backlog, a subscriber joins asking for
// all of it (Subscribe.ShiftMs), and the benchmark times the wall
// clock from the shifted join until the catch-up cursor converges on
// the live head. The headline metric is ns/backlog-pkt — the cost of
// ring reads, token pacing, and batch hand-off per replayed packet —
// reported at the default burst rate and effectively unpaced, so the
// pacing overhead itself is priced too.
func BenchmarkDVRCatchup(b *testing.B) {
	for _, burst := range []int{relay.DefaultDVRBurst, 50_000} {
		b.Run(fmt.Sprintf("backlog=1000/burst=%d", burst), func(b *testing.B) {
			benchDVRCatchup(b, 1000, burst)
		})
	}
	b.Run("backlog=3000/burst=50000", func(b *testing.B) {
		benchDVRCatchup(b, 3000, 50_000)
	})
}

// dvrRow is one BenchmarkDVRCatchup row in the perf-trajectory file.
type dvrRow struct {
	Name         string  `json:"name"`
	BacklogPkts  int     `json:"backlog_pkts"`
	BurstPPS     int     `json:"burst_pps"`
	NsPerPkt     float64 `json:"ns_per_backlog_pkt"`
	PktsPerSec   float64 `json:"backlog_pkts_per_sec"`
	CatchupP50Ms float64 `json:"catchup_lag_p50_ms"`
	CatchupP99Ms float64 `json:"catchup_lag_p99_ms"`
}

func benchDVRCatchup(b *testing.B, backlog, burst int) {
	var served int64
	var active time.Duration
	lagAgg := obs.NewHistogram("catchup-lag", "", nil)
	for i := 0; i < b.N; i++ {
		sys := NewSimSystem(lan.SegmentConfig{QueueLen: 4096})
		r, err := sys.AddRelay(relay.Config{
			Group: "239.72.1.1:5004", Channel: 1,
			DVR:      true,
			DVRDepth: time.Hour, // the whole backlog stays replayable
			DVRBurst: burst,
		})
		if err != nil {
			b.Fatal(err)
		}
		conn, err := sys.Net.Attach("10.9.0.1:5004")
		if err != nil {
			b.Fatal(err)
		}
		sys.Clock.Go("drain", func() {
			for {
				if _, err := conn.Recv(0); err != nil {
					return
				}
			}
		})
		prod, err := sys.Net.Attach("10.9.1.1:5000")
		if err != nil {
			b.Fatal(err)
		}
		sys.Clock.Go("driver", func() {
			// Preload: a position-coded stream at the 10 ms cadence fills
			// the ring in simulated time (free on the wall clock).
			for s := 0; s < backlog; s++ {
				if s%100 == 0 {
					data, _ := (&proto.Control{Channel: 1, Epoch: 1, Seq: uint64(s),
						Params: audio.Voice, Codec: "raw"}).Marshal()
					prod.Send("239.72.1.1:5004", data)
				}
				data, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: uint64(s + 1),
					PlayAt: int64(s+1) * 10_000_000, Payload: make([]byte, 880)}).Marshal()
				prod.Send("239.72.1.1:5004", data)
				sys.Clock.Sleep(10 * time.Millisecond)
			}
			// The timed window: shifted join through convergence.
			sub, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60_000,
				ShiftMs: uint32(backlog) * 10}).Marshal()
			start := time.Now()
			if err := conn.Send(r.Addr(), sub); err != nil {
				b.Error(err)
				return
			}
			for {
				st := r.Stats()
				if st.DVRBacklog >= int64(backlog) && st.DVRCatchupActive == 0 {
					break
				}
				sys.Clock.Sleep(5 * time.Millisecond)
			}
			active += time.Since(start)
			sys.Shutdown()
			conn.Close()
			prod.Close()
		})
		sys.Sim.WaitIdle()
		st := r.Stats()
		if st.DVRClamped != 0 || st.DVREvictions != 0 {
			b.Fatalf("clamped=%d evictions=%d; the bench must replay the whole backlog",
				st.DVRClamped, st.DVREvictions)
		}
		served += st.DVRBacklog
		lagAgg.Merge(r.Instruments().CatchupLag)
	}
	nsPkt := float64(active.Nanoseconds()) / float64(served)
	b.ReportMetric(nsPkt, "ns/backlog-pkt")
	b.ReportMetric(float64(served)/active.Seconds(), "backlogpkts/sec")
	recordBenchRow(b, b.Name(), dvrRow{
		Name:         b.Name(),
		BacklogPkts:  backlog,
		BurstPPS:     burst,
		NsPerPkt:     nsPkt,
		PktsPerSec:   float64(served) / active.Seconds(),
		CatchupP50Ms: float64(lagAgg.Quantile(0.50).Nanoseconds()) / 1e6,
		CatchupP99Ms: float64(lagAgg.Quantile(0.99).Nanoseconds()) / 1e6,
	})
}

// BenchmarkEndToEndPipeline measures a full simulated second of system
// time: VAD -> rebroadcast -> LAN -> speaker -> DAC, per op.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewSimSystem(lan.SegmentConfig{})
		ch, err := sys.AddChannel(rebroadcast.Config{
			ID: 1, Name: "bench", Group: "239.72.1.1:5004", Codec: "raw",
		}, vad.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddSpeaker(speaker.Config{Name: "es", Group: "239.72.1.1:5004"}); err != nil {
			b.Fatal(err)
		}
		p := audio.Voice
		sys.Clock.Go("player", func() {
			ch.Play(p, audio.NewTone(p.SampleRate, 1, 440, 0.5), time.Second)
			sys.Clock.Sleep(2 * time.Second)
			sys.Shutdown()
		})
		sys.Sim.WaitIdle()
	}
}
