package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/rebroadcast"
	"repro/internal/speaker"
	"repro/internal/stats"
	"repro/internal/vad"
)

// E5Row is one synchronization configuration's outcome.
type E5Row struct {
	Label       string
	Epsilon     time.Duration
	NoSync      bool
	MaxSkewMs   float64 // worst pairwise inter-speaker skew
	MeanSkewMs  float64 // mean absolute pairwise skew
	DroppedLate int64   // discards across all speakers
	Samples     int
}

// E5Result is the outcome of the synchronization experiment.
type E5Result struct{ Rows []E5Row }

// E5Sync reproduces §3.2: three speakers — one present from the start,
// two joining mid-stream — must play within an inaudible skew of each
// other when timestamp synchronization is on, across a sweep of epsilon
// values; with synchronization off (the early-version behaviour the
// paper describes), the late joiners sit a buffer's depth away.
func E5Sync(w io.Writer, epsilons []time.Duration) E5Result {
	if len(epsilons) == 0 {
		epsilons = []time.Duration{
			time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		}
	}
	section(w, "E5 (§3.2)", "inter-speaker skew: epsilon sweep + no-sync ablation")
	var res E5Result
	for _, eps := range epsilons {
		row := e5Run(eps, false)
		row.Label = fmt.Sprintf("sync ε=%v", eps)
		res.Rows = append(res.Rows, row)
	}
	ab := e5Run(speaker.DefaultEpsilon, true)
	ab.Label = "no sync (ablation)"
	res.Rows = append(res.Rows, ab)

	tab := stats.Table{Headers: []string{"config", "max |skew|", "mean |skew|", "late drops", "samples"}}
	for _, r := range res.Rows {
		tab.AddRow(r.Label, fmt.Sprintf("%.2f ms", r.MaxSkewMs),
			fmt.Sprintf("%.2f ms", r.MeanSkewMs), r.DroppedLate, r.Samples)
	}
	tab.Render(w)
	fmt.Fprintf(w, "  paper: timestamped playback keeps skew inaudible; ESs started\n")
	fmt.Fprintf(w, "  mid-stream were the worst case before timestamps were added\n")
	return res
}

func e5Run(eps time.Duration, noSync bool) E5Row {
	sys := core.NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, err := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "e5", Group: groupA, Codec: "raw",
		ControlInterval: 500 * time.Millisecond,
		Lead:            500 * time.Millisecond,
		Preroll:         400 * time.Millisecond,
	}, vad.Config{})
	if err != nil {
		return E5Row{}
	}
	meter := core.NewSkewMeter()
	speakers := []string{"a", "b", "c"}
	var sps []*speaker.Speaker
	add := func(name string) {
		sp, err := sys.AddSpeaker(speaker.Config{
			Name: name, Group: groupA, Epsilon: eps, NoSync: noSync,
			BlockSize: mono16.BytesFor(10 * time.Millisecond),
		})
		if err != nil {
			return
		}
		sps = append(sps, sp)
		meter.Attach(name, sp)
	}
	add("a")
	start := sys.Clock.Now()
	const clip = 8 * time.Second
	sys.Clock.Go("player", func() {
		ch.Play(mono16, &core.PositionSource{Channels: 1}, clip)
		sys.Clock.Sleep(clip + 2*time.Second)
		sys.Shutdown()
	})
	sys.Clock.Go("join-b", func() {
		sys.Clock.Sleep(2 * time.Second)
		add("b")
	})
	sys.Clock.Go("join-c", func() {
		sys.Clock.Sleep(3500 * time.Millisecond)
		add("c")
	})
	sys.Sim.WaitIdle()

	times := core.SampleTimes(start.Add(5*time.Second), start.Add(8*time.Second), 40)
	row := E5Row{Epsilon: eps, NoSync: noSync}
	for i := 0; i < len(speakers); i++ {
		for j := i + 1; j < len(speakers); j++ {
			max, sum, n := absSkew(meter.Skew(speakers[i], speakers[j], times))
			row.MaxSkewMs = math.Max(row.MaxSkewMs, max)
			row.MeanSkewMs += sum
			row.Samples += n
		}
	}
	if row.Samples > 0 {
		row.MeanSkewMs /= float64(row.Samples)
	}
	for _, sp := range sps {
		row.DroppedLate += sp.Stats().DroppedLate
	}
	return row
}

// absSkew folds skew samples into their largest and summed magnitudes.
func absSkew(ms []float64) (max, sum float64, n int) {
	for _, v := range ms {
		v = math.Abs(v)
		max = math.Max(max, v)
		sum += v
	}
	return max, sum, len(ms)
}

// E5DriftResult is the outcome of the drifting-DAC run: what each of two
// speakers with opposite oscillator errors had to do to stay on the
// producer's timeline, and how far apart they were heard.
type E5DriftResult struct {
	MaxSkewMs  float64 // worst |fast − slow| after the first 5 s
	MeanSkewMs float64
	Samples    int
	Fast, Slow E5DriftSpeaker
}

// E5DriftSpeaker is one drifting speaker's corrections.
type E5DriftSpeaker struct {
	GapFills    int64 // silence inserted: the DAC had run ahead by ε
	DroppedLate int64 // batches discarded: the DAC had fallen behind by ε
	Underruns   int64
}

// e5DriftPPM is how far each drifting DAC's oscillator is off: a cheap
// crystal's worst case.
const e5DriftPPM = 500

// E5Drift exercises the other half of §3.2: speakers stay within ±ε of
// the producer's timeline *despite* unsynchronized sample clocks. Two
// speakers whose DACs run 500 ppm fast and 500 ppm slow play one channel
// for dur; each reads its own DAC's play cursor, so the fast one inserts
// ε of silence and the slow one discards a batch every time its error
// reaches ε (every ε ÷ 500 ppm = 20 s), and the pair never drifts further
// apart than 2ε.
func E5Drift(w io.Writer, dur time.Duration) E5DriftResult {
	section(w, "E5 (§3.2)", "two DACs drifting apart: each speaker follows its own play cursor")
	res := e5DriftRun(dur)
	tab := stats.Table{Headers: []string{"dac", "gap fills", "late drops", "underruns"}}
	tab.AddRow(fmt.Sprintf("+%d ppm", e5DriftPPM), res.Fast.GapFills, res.Fast.DroppedLate, res.Fast.Underruns)
	tab.AddRow(fmt.Sprintf("-%d ppm", e5DriftPPM), res.Slow.GapFills, res.Slow.DroppedLate, res.Slow.Underruns)
	tab.Render(w)
	fmt.Fprintf(w, "  %v played: max |skew| %.2f ms, mean %.2f ms over %d samples (ε = %v each)\n",
		dur, res.MaxSkewMs, res.MeanSkewMs, res.Samples, speaker.DefaultEpsilon)
	fmt.Fprintf(w, "  uncorrected, the pair would be %.0f ms apart by the end\n",
		2*e5DriftPPM/1e6*float64(dur/time.Millisecond))
	return res
}

func e5DriftRun(dur time.Duration) E5DriftResult {
	var res E5DriftResult
	ps, err := newPlayback(
		lan.SegmentConfig{Latency: 100 * time.Microsecond},
		rebroadcast.Config{ID: 1, Name: "e5-drift", Group: groupA, Codec: "raw"},
		vad.Config{},
		[]speaker.Config{
			{Name: "fast", Group: groupA, DACSpeed: 1 + e5DriftPPM/1e6},
			{Name: "slow", Group: groupA, DACSpeed: 1 - e5DriftPPM/1e6},
		},
	)
	if err != nil {
		return res
	}
	start := ps.Sys.Clock.Now()
	ps.Sys.Clock.Go("player", func() {
		ps.Ch.Play(mono16, &core.PositionSource{Channels: 1}, dur)
		ps.Sys.Clock.Sleep(2 * time.Second)
		ps.Sys.Shutdown()
	})
	ps.Sys.Sim.WaitIdle()

	const settle = 5 * time.Second
	times := core.SampleTimes(start.Add(settle), start.Add(dur), int((dur-settle)/(100*time.Millisecond)))
	var sum float64
	res.MaxSkewMs, sum, res.Samples = absSkew(ps.Meter.Skew("fast", "slow", times))
	if res.Samples > 0 {
		res.MeanSkewMs = sum / float64(res.Samples)
	}
	for i, out := range []*E5DriftSpeaker{&res.Fast, &res.Slow} {
		sp := ps.Speakers[i]
		st := sp.Stats()
		*out = E5DriftSpeaker{GapFills: st.GapFills, DroppedLate: st.DroppedLate,
			Underruns: sp.Device().GetStats().Underruns}
	}
	return res
}
