package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/speaker"
)

// The experiment tests assert the paper's qualitative shapes — who wins,
// where the crossovers are — with reduced workloads so the suite stays
// fast. cmd/eslab runs the full-size versions.

func TestFig4Shape(t *testing.T) {
	res := Fig4(io.Discard, 3, 2, 4)
	if len(res.Series[2].Points) != 3 || len(res.Series[4].Points) != 3 {
		t.Fatalf("series lengths wrong: %+v", res)
	}
	// Doubling the stream count should roughly double CPU (allow a wide
	// band for machine noise: 1.3x..3.5x).
	ratio := res.MeanCPU[4] / res.MeanCPU[2]
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("CPU ratio 4/2 streams = %.2f, want ~2", ratio)
	}
	if res.MeanCPU[2] <= 0 {
		t.Fatal("zero CPU measured")
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5(io.Discard, 10)
	un := res.Mean[Fig5Unloaded]
	kt := res.Mean[Fig5KernelThreaded]
	ul := res.Mean[Fig5UserLevel]
	if !(un < kt && kt < ul) {
		t.Fatalf("ordering wrong: unloaded %.1f, kernel %.1f, user %.1f", un, kt, ul)
	}
	// Unloaded is a tiny baseline; streaming is at least 3x above it.
	if kt < un*3 {
		t.Fatalf("kernel-threaded %.1f not clearly above unloaded %.1f", kt, un)
	}
	// The user-level penalty is real but bounded (paper: 37.2/28.7≈1.3).
	if ul/kt < 1.02 || ul/kt > 3 {
		t.Fatalf("user/kernel ratio %.2f outside (1.02,3)", ul/kt)
	}
}

func TestFig5Deterministic(t *testing.T) {
	a := fig5Run(Fig5UserLevel, 5)
	b := fig5Run(Fig5UserLevel, 5)
	if a.Mean() != b.Mean() {
		t.Fatalf("fig5 run not reproducible: %v vs %v", a.Mean(), b.Mean())
	}
}

func TestE3Shape(t *testing.T) {
	res := E3Bitrate(io.Discard, 2)
	byLabel := map[string]E3Row{}
	for _, r := range res.Rows {
		key := strings.Fields(r.Label)[0]
		if strings.Contains(r.Label, "q=10") {
			key = "q10"
		}
		if strings.Contains(r.Label, "q=0") {
			key = "q0"
		}
		byLabel[key] = r
	}
	raw := byLabel["raw"]
	// The paper's headline: raw CD is ~1.3-1.4 Mbps payload, a bit more
	// on the wire.
	if raw.WireMbps < 1.3 || raw.WireMbps > 1.8 {
		t.Fatalf("raw CD wire rate = %.2f Mbps, want ~1.5", raw.WireMbps)
	}
	if byLabel["ulaw"].PayloadKbps >= raw.PayloadKbps {
		t.Fatal("ulaw did not halve the payload")
	}
	if byLabel["q10"].PayloadKbps >= raw.PayloadKbps {
		t.Fatal("ovl q10 did not compress")
	}
	if byLabel["q0"].PayloadKbps >= byLabel["q10"].PayloadKbps {
		t.Fatal("quality ladder inverted on the wire")
	}
	// A 10 Mbps segment fits a handful of raw streams, not dozens.
	if res.MaxRawStreams < 4 || res.MaxRawStreams > 8 {
		t.Fatalf("max raw streams = %d, want 4..8 on 10 Mbps", res.MaxRawStreams)
	}
}

func TestE4Shape(t *testing.T) {
	res := E4RateLimiter(io.Discard, 20*time.Second)
	// With the limiter, sending paces to ~the clip length and everything
	// plays.
	if res.On.SendElapsed < 15*time.Second {
		t.Fatalf("limiter on: clip sent in %v, want ~20s", res.On.SendElapsed)
	}
	if res.On.PlayedFrac < 0.95 {
		t.Fatalf("limiter on: played %.0f%%, want ~100%%", res.On.PlayedFrac*100)
	}
	// Without it, the send is near-instant and most audio is lost —
	// "you will only hear the first few seconds of the song".
	if res.Off.SendElapsed > 5*time.Second {
		t.Fatalf("limiter off: send took %v, want near-instant", res.Off.SendElapsed)
	}
	if res.Off.PlayedFrac > 0.5 {
		t.Fatalf("limiter off: played %.0f%%, expected most audio lost", res.Off.PlayedFrac*100)
	}
	if res.Off.DroppedLate+res.Off.QueueDrops == 0 {
		t.Fatal("limiter off: no drops recorded anywhere")
	}
}

func TestE5Shape(t *testing.T) {
	res := E5Sync(io.Discard, []time.Duration{5 * time.Millisecond, 50 * time.Millisecond})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows[:2] {
		if r.Samples == 0 {
			t.Fatalf("%s: no skew samples", r.Label)
		}
		// Synced speakers stay within a generous audibility bound.
		if r.MaxSkewMs > 30 {
			t.Fatalf("%s: max skew %.1f ms", r.Label, r.MaxSkewMs)
		}
	}
	noSync := res.Rows[2]
	if !noSync.NoSync {
		t.Fatal("last row should be the ablation")
	}
	// Without timestamps, late joiners sit far off.
	if noSync.MaxSkewMs < 50 {
		t.Fatalf("no-sync max skew %.1f ms, expected large offset", noSync.MaxSkewMs)
	}
}

func TestE5DriftingDACs(t *testing.T) {
	// §3.2 as a property: ten minutes on two DACs 500 ppm fast and slow
	// (600 ms apart by the end if nobody looked). Each speaker stays
	// within ±ε of the producer's timeline, so the pair within 2ε.
	res := e5DriftRun(10 * time.Minute)
	if res.Samples < 5000 {
		t.Fatalf("only %d skew samples", res.Samples)
	}
	eps := float64(speaker.DefaultEpsilon / time.Millisecond)
	if res.MaxSkewMs > 2*eps+1 {
		t.Fatalf("max skew %.1f ms, want within 2ε + 1 = %.0f ms", res.MaxSkewMs, 2*eps+1)
	}
	// ε ÷ 500 ppm = one correction every 20 s, each of its own kind.
	if res.Fast.GapFills == 0 {
		t.Fatalf("the fast DAC was never put back: %+v", res.Fast)
	}
	if res.Slow.DroppedLate == 0 {
		t.Fatalf("the slow DAC never caught up: %+v", res.Slow)
	}
	if res.Fast.Underruns > 1 || res.Slow.Underruns > 1 {
		t.Fatalf("underruns: fast %d, slow %d", res.Fast.Underruns, res.Slow.Underruns)
	}
}

func TestE6Shape(t *testing.T) {
	res := E6BufferSize(io.Discard, []int{1400, 36000, 89600})
	get := func(cpu string, buf int) E6Row {
		for _, r := range res.Rows {
			if r.CPU == cpu && r.RecvBuffer == buf {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", cpu, buf)
		return E6Row{}
	}
	// Small buffers play cleanly even on the slow CPU.
	slowSmall := get("geode", 1400)
	if slowSmall.PlayedFrac < 0.9 {
		t.Fatalf("geode/small played %.0f%%", slowSmall.PlayedFrac*100)
	}
	// Buffers beyond the lead miss every deadline regardless of CPU.
	slowHuge := get("geode", 89600)
	if slowHuge.PlayedFrac > 0.3 {
		t.Fatalf("geode/huge played %.0f%%, expected skipped audio", slowHuge.PlayedFrac*100)
	}
	// At the boundary size, the slow CPU skips where the fast one is
	// fine — why the authors only saw this on the EON 4000 (§3.4).
	fastMid := get("fast", 36000)
	slowMid := get("geode", 36000)
	if fastMid.PlayedFrac < 0.85 {
		t.Fatalf("fast/mid played %.0f%%", fastMid.PlayedFrac*100)
	}
	slowBad := slowMid.Glitches + slowMid.DroppedLate
	fastBad := fastMid.Glitches + fastMid.DroppedLate
	if slowMid.PlayedFrac >= fastMid.PlayedFrac && slowBad <= fastBad {
		t.Fatalf("geode/mid (played %.0f%%, %d bad) not worse than fast/mid (%.0f%%, %d bad)",
			slowMid.PlayedFrac*100, slowBad, fastMid.PlayedFrac*100, fastBad)
	}
}

func TestE7Shape(t *testing.T) {
	res := E7JoinLatency(io.Discard, []time.Duration{200 * time.Millisecond, 2 * time.Second})
	short, long := res.Rows[0], res.Rows[1]
	if short.JoinCount == 0 || long.JoinCount == 0 {
		t.Fatalf("missing joins: %+v", res.Rows)
	}
	// Longer control intervals mean longer tune-in.
	if long.MeanJoin <= short.MeanJoin {
		t.Fatalf("join latency did not grow with interval: %v vs %v",
			short.MeanJoin, long.MeanJoin)
	}
	// Latency is bounded by roughly interval + lead + a block.
	if long.MaxJoin > 2*time.Second+time.Second {
		t.Fatalf("join latency %v exceeds interval+lead bound", long.MaxJoin)
	}
}

func TestE8Shape(t *testing.T) {
	res := E8Generations(io.Discard, 3)
	bySetting := map[int][]E8Row{}
	for _, r := range res.Rows {
		bySetting[r.Quality] = append(bySetting[r.Quality], r)
	}
	q10, q3 := bySetting[10], bySetting[3]
	if len(q10) != 3 || len(q3) != 3 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// Max quality stays comfortably above the low setting at every
	// generation, and degradation is monotone-ish.
	for g := 0; g < 3; g++ {
		if q10[g].SNR <= q3[g].SNR {
			t.Fatalf("gen %d: q10 SNR %.1f <= q3 %.1f", g+1, q10[g].SNR, q3[g].SNR)
		}
	}
	if q10[2].SNR > q10[0].SNR+1 {
		t.Fatalf("q10 SNR improved across generations: %v", q10)
	}
	if q10[2].SNR < 15 {
		t.Fatalf("q10 3rd generation SNR %.1f dB too low", q10[2].SNR)
	}
}

func TestE9Shape(t *testing.T) {
	res := E9Auth(io.Discard, 300)
	byScheme := map[string]E9Row{}
	for _, r := range res.Rows {
		byScheme[r.Scheme] = r
		if r.SignNs <= 0 || r.VerifyNs <= 0 || r.GarbageNs <= 0 {
			t.Fatalf("%s: zero timings: %+v", r.Scheme, r)
		}
	}
	// Hash-based schemes keep junk rejection within ~100x of HMAC —
	// the paper's DoS-resistance requirement.
	if byScheme["hors"].GarbageNs > byScheme["hmac"].GarbageNs*100 {
		t.Fatalf("hors junk rejection %.0f ns vs hmac %.0f ns",
			byScheme["hors"].GarbageNs, byScheme["hmac"].GarbageNs)
	}
	// HORS pays in overhead, not verify time.
	if byScheme["hors"].OverheadBytes < 256 {
		t.Fatalf("hors overhead %d B suspiciously small", byScheme["hors"].OverheadBytes)
	}
	if res.InjectionDropped == 0 {
		t.Fatal("injection attack: nothing was rejected")
	}
	if !res.InjectionPlayedClean {
		t.Fatal("genuine stream did not survive the injection attack")
	}
}

func TestE10Shape(t *testing.T) {
	res := E10Loss(io.Discard, []float64{0, 0.05})
	clean, lossy := res.Rows[0], res.Rows[1]
	// End-of-stream wind-down inserts a couple of silence blocks even on
	// a perfect run; anything beyond that is a real glitch.
	if clean.Glitches > 4 {
		t.Fatalf("glitches with zero loss: %d", clean.Glitches)
	}
	if clean.PlayedFrac < 0.95 {
		t.Fatalf("clean run played %.0f%%", clean.PlayedFrac*100)
	}
	if lossy.LostPkts == 0 {
		t.Fatal("5% loss dropped nothing")
	}
	if lossy.Glitches <= clean.Glitches {
		t.Fatalf("loss produced no extra glitches: %d vs %d", lossy.Glitches, clean.Glitches)
	}
}

func TestE11Shape(t *testing.T) {
	res := E11Relay(io.Discard, []int{1, 4})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.FanoutSent == 0 {
			t.Fatalf("%d subscribers: relay forwarded nothing: %+v", r.Subscribers, r)
		}
		if r.MaxSkewMs == 0 {
			t.Fatalf("%d subscribers: no skew samples: %+v", r.Subscribers, r)
		}
		if r.MaxSkewMs > 15 {
			t.Fatalf("%d subscribers: relayed speaker outside epsilon band: %+v", r.Subscribers, r)
		}
		if r.Expired != 0 {
			t.Fatalf("%d subscribers: live subscribers expired: %+v", r.Subscribers, r)
		}
	}
	// Fan-out grows with the subscriber count.
	if res.Rows[1].FanoutSent <= res.Rows[0].FanoutSent {
		t.Fatalf("fanout did not scale: %+v", res.Rows)
	}
}

func TestE12Shape(t *testing.T) {
	res := E12BatchOrder(io.Discard, []int{4, 32})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The contract under test: batching never reorders a
		// subscriber's stream.
		if r.Reordered != 0 {
			t.Fatalf("%d subscribers: %d sequence inversions", r.Subscribers, r.Reordered)
		}
		// On a clean segment with roomy queues everything arrives.
		if want := int64(r.Subscribers * r.Packets); r.Received != want {
			t.Fatalf("%d subscribers: received %d of %d (gaps %d)",
				r.Subscribers, r.Received, want, r.Gaps)
		}
		if r.Batches == 0 {
			t.Fatalf("%d subscribers: no batches recorded", r.Subscribers)
		}
	}
	// With bursty input and many subscribers, flushes must actually
	// coalesce — otherwise this experiment isn't testing batching.
	if res.Rows[1].AvgBatch < 2 {
		t.Fatalf("avg batch %.2f at %d subscribers: batching never engaged",
			res.Rows[1].AvgBatch, res.Rows[1].Subscribers)
	}
}

func TestE15Shape(t *testing.T) {
	res := E15OpsPlane(io.Discard, 2)
	// The storm really happened, and the ops endpoints were scraped
	// from real HTTP clients while it did.
	if res.SpeakerData == 0 {
		t.Fatalf("no data crossed the observed 2-hop chain: %+v", res)
	}
	if res.StormScrapes == 0 {
		t.Fatalf("ops endpoints never scraped mid-storm: %+v", res)
	}
	// The live-coverage guarantee: every relay.Stats counter and all
	// four hot-path histograms appear in both relays' scrapes.
	if len(res.MissingMetrics) > 0 {
		t.Fatalf("live scrape missing %v", res.MissingMetrics)
	}
	if res.HistogramsLive != len(e15Histograms) {
		t.Fatalf("only %d/%d histograms in the live scrape: %+v",
			res.HistogramsLive, len(e15Histograms), res)
	}
	// Drop attribution from the outside: the injected forged Subscribe
	// ticks exactly the control/auth counter and shows up in /trace.
	if res.ForgedAuthDrops != 1 {
		t.Fatalf("forged Subscribe counted %d control/auth drops, want 1: %+v",
			res.ForgedAuthDrops, res)
	}
	if !res.TraceShowsAuth {
		t.Fatalf("drained /trace has no control-path auth drop: %+v", res)
	}
}

func TestE16Shape(t *testing.T) {
	// Full acceptance size on purpose (not the reduced-workload idiom of
	// the other shapes): the claim under test is that ≥2,000 simultaneous
	// Subscribes converge, and CI runs this under -race.
	res := E16JoinStorm(io.Discard, 2000)
	if res.Leased != res.Subscribers {
		t.Fatalf("only %d/%d subscribers leased: %+v", res.Leased, res.Subscribers, res)
	}
	if res.Converge <= 0 || res.Converge >= res.Window {
		t.Fatalf("storm did not converge inside the %v lease window: %+v", res.Window, res)
	}
	// The capped relay shed the overflow instead of absorbing it: it sits
	// at or under its threshold, and the spill really was steered via
	// redirects (not absorbed by retries against the same relay).
	if res.ShedFinal > res.Threshold {
		t.Fatalf("shedding relay at %d subscribers, cap %d: %+v", res.ShedFinal, res.Threshold, res)
	}
	if res.Redirected < int64(res.Subscribers-res.Threshold) {
		t.Fatalf("only %d redirects for a %d-subscriber overflow: %+v",
			res.Redirected, res.Subscribers-res.Threshold, res)
	}
	if res.RedirectLoops != 0 {
		t.Fatalf("%d subscribers exhausted their redirect budget: %+v", res.RedirectLoops, res)
	}
	if !res.ForgedIgnored {
		t.Fatalf("a forged redirect was accepted (or mishandled): %+v", res)
	}
}

func TestE14Shape(t *testing.T) {
	res := E14AuthRelay(io.Discard, 2)
	// The signed chain still delivers: grants verified at both the
	// speaker and the chained relay, stream playing at the far end.
	if res.SpeakerData == 0 {
		t.Fatalf("no data crossed the signed 2-hop chain: %+v", res)
	}
	if res.SpeakerAcks == 0 || res.ChainAcks == 0 {
		t.Fatalf("signed grants not accepted: %+v", res)
	}
	// The anti-amplification property: forged subscribes draw nothing —
	// no SubAck, no fan-out, nothing at the spoofed victim — and are
	// counted.
	if res.AttackerAcks != 0 || res.AttackerData != 0 {
		t.Fatalf("attacker drew %d acks / %d data packets, want 0/0: %+v",
			res.AttackerAcks, res.AttackerData, res)
	}
	if res.SpoofedData != 0 {
		t.Fatalf("spoofed victim received %d packets, want 0: %+v", res.SpoofedData, res)
	}
	if res.AuthDropped == 0 || !res.SpoofedDropped {
		t.Fatalf("forged subscribes not counted in auth.dropped: %+v", res)
	}
}

func TestE13Shape(t *testing.T) {
	res := E13Chain(io.Discard, 3)
	if res.Hops != 3 {
		t.Fatalf("hops = %d", res.Hops)
	}
	if res.DataAtLastHop == 0 {
		t.Fatalf("no data crossed the 3-hop chain: %+v", res)
	}
	if res.LeakPackets != 0 {
		t.Fatalf("channel-1 subscriber leaked %d channel-2 packets: %+v", res.LeakPackets, res)
	}
	if !res.Discovered {
		t.Fatalf("catalog discovery failed: %+v", res)
	}
	if res.LoopRefusals == 0 || res.LoopRefused == 0 {
		t.Fatalf("relay cycle not refused: %+v", res)
	}
	// §3.2's zero-transmission-delay assumption, through three relays: a
	// hop costs its segment's latency, and no relay parks a live packet
	// on a timer.
	if res.AddedDelay <= 0 || res.AddedDelay >= e13MaxAddedDelay {
		t.Fatalf("the chain adds %v to a packet's arrival, want under %v: a relay is holding live packets on a timer: %+v",
			res.AddedDelay, e13MaxAddedDelay, res)
	}
}

func TestE17Shape(t *testing.T) {
	res := E17Ladder(io.Discard, 50)
	// Per-tier encoding, not per-subscriber: two ulaw listeners cost the
	// relay exactly one encode per calm-phase packet, and the tier really
	// halved the bytes each of them received.
	if res.CalmEncodes != int64(res.CalmPackets) {
		t.Fatalf("calm phase cost %d encodes for %d packets (2 ulaw subscribers must share one): %+v",
			res.CalmEncodes, res.CalmPackets, res)
	}
	if res.ThriftyRatio < 0.4 || res.ThriftyRatio > 0.6 {
		t.Fatalf("ulaw/source byte ratio = %.2f, want ~0.5: %+v", res.ThriftyRatio, res)
	}
	// The ladder: overload pushes every subscriber below its requested
	// tier, and the quiet dwell walks each back to exactly what it asked
	// for — no further.
	if !res.Downgraded {
		t.Fatalf("no subscriber downgraded across %d overload rounds: %+v", res.BurstRounds, res)
	}
	if !res.Recovered {
		t.Fatalf("subscribers never recovered their requested tiers: %+v", res)
	}
	if res.LadderDown < int64(res.Subscribers) || res.LadderUp < int64(res.Subscribers) {
		t.Fatalf("ladder transitions down/up = %d/%d, want >= %d each: %+v",
			res.LadderDown, res.LadderUp, res.Subscribers, res)
	}
	// Tier changes switch epochs; they must never reorder a stream.
	if res.Reorders != 0 {
		t.Fatalf("%d within-epoch sequence regressions: %+v", res.Reorders, res)
	}
}

func TestE18Shape(t *testing.T) {
	res := E18DVR(io.Discard, 5)
	// The relay had the full ask recorded: granted in full, not clamped,
	// and the joiner's replay starts at the head of the stream.
	if res.GrantedShift < res.Behind {
		t.Fatalf("granted shift = %v for a %v ask: %+v", res.GrantedShift, res.Behind, res)
	}
	if res.Clamped != 0 {
		t.Fatalf("clamped %d shift grants: %+v", res.Clamped, res)
	}
	if res.ShiftFirstSeq != 1 {
		t.Fatalf("late joiner started at seq %d, want 1 (head of the recording): %+v",
			res.ShiftFirstSeq, res)
	}
	if res.BacklogServed < int64(res.Behind/time.Second)*100 {
		t.Fatalf("backlog served = %d packets for %v of history: %+v",
			res.BacklogServed, res.Behind, res)
	}
	// Faster than realtime: convergence lands well before a second
	// whole backlog's worth of time passes.
	if !res.Converged || res.ConvergeIn >= res.Behind {
		t.Fatalf("converged=%v in %v (backlog %v): %+v",
			res.Converged, res.ConvergeIn, res.Behind, res)
	}
	// Mid catch-up the two listeners share the channel clock at
	// different positions; after convergence they share the tail.
	if !res.SyncOK {
		t.Fatalf("mid-catch-up positions live=%d shift=%d catching=%v: %+v",
			res.MidLiveSeq, res.MidShiftSeq, res.MidCatchingUp, res)
	}
	if !res.TailAgree {
		t.Fatalf("listeners did not end on the same final packet: %+v", res)
	}
	if res.LiveReorders != 0 || res.ShiftReorders != 0 {
		t.Fatalf("reorders live/shift = %d/%d: %+v", res.LiveReorders, res.ShiftReorders, res)
	}
	if res.FanoutDropped != 0 || res.Evictions != 0 {
		t.Fatalf("drops/evictions = %d/%d: %+v", res.FanoutDropped, res.Evictions, res)
	}
}

func TestE19Shape(t *testing.T) {
	res := E19Adversary(io.Discard, 2)
	// The legitimate chain played through every attack: the victim held
	// its lease and kept receiving, and the chained relay kept its
	// upstream grants flowing.
	if res.SpeakerData == 0 || res.SpeakerAcks == 0 || res.ChainAcks == 0 {
		t.Fatalf("signed chain did not play (data=%d acks=%d chain=%d): %+v",
			res.SpeakerData, res.SpeakerAcks, res.ChainAcks, res)
	}
	// Both cross-subscriber forgeries (the cancel and the pause signed
	// by a valid credential claiming the victim's source) were pinned
	// out by the lease's identity.
	if res.ForgedDrops < 2 {
		t.Fatalf("forged cancel/pause drops = %d, want >= 2: %+v", res.ForgedDrops, res)
	}
	// The captured subscribe gained nothing: auth-dropped from a spoofed
	// source (and nothing reflected at the bystander), replay-dropped
	// from its true source.
	if !res.SpoofedDropped || res.SpoofedData != 0 {
		t.Fatalf("spoofed-source replay: dropped=%v bystander-data=%d: %+v",
			res.SpoofedDropped, res.SpoofedData, res)
	}
	if res.ReplayDrops == 0 {
		t.Fatalf("same-source replay was not dropped: %+v", res)
	}
	// Forged and unsigned announces never steered verified discovery.
	if res.RogueSteered || res.DiscoveredAddr == "" {
		t.Fatalf("discovery steered to %q (rogue=%v): %+v",
			res.DiscoveredAddr, res.RogueSteered, res)
	}
	// With signing off, legacy unsigned peers interoperate unchanged.
	if res.LegacyData == 0 {
		t.Fatalf("legacy unsigned pair did not play: %+v", res)
	}
}
