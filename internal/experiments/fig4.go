package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/stats"
)

// Fig4Result is the outcome of the Figure 4 reproduction.
type Fig4Result struct {
	// Series holds one CPU%-vs-time series per stream count.
	Series map[int]*stats.Series
	// MeanCPU is the mean CPU% per stream count.
	MeanCPU map[int]float64
}

// Fig4 reproduces Figure 4: userland CPU load against time as the local
// rebroadcaster compresses more CD-quality streams. The paper plots 60
// wall-clock seconds at four and eight streams; we time the real OVL
// encoder over `seconds` one-second ticks per configuration, on this
// machine's CPU.
func Fig4(w io.Writer, seconds int, streamCounts ...int) Fig4Result {
	if seconds <= 0 {
		seconds = 10
	}
	if len(streamCounts) == 0 {
		streamCounts = []int{4, 8}
	}
	section(w, "Figure 4", "compression CPU load vs. number of CD-quality streams")
	p := audio.CDQuality

	res := Fig4Result{Series: map[int]*stats.Series{}, MeanCPU: map[int]float64{}}
	for _, n := range streamCounts {
		// One independent encoder per stream, like the rebroadcaster
		// runs; one second of distinct audio per stream per tick.
		encs := make([]codec.Encoder, n)
		srcs := make([]audio.Source, n)
		for i := range encs {
			enc, err := codec.NewEncoder("ovl", p, codec.MaxQuality)
			if err != nil {
				fmt.Fprintf(w, "  error: %v\n", err)
				return res
			}
			encs[i] = enc
			srcs[i] = audio.NewMix(
				audio.NewTone(p.SampleRate, p.Channels, 220+float64(i)*55, 0.3),
				audio.NewNoise(uint64(i+1), 0.05),
			)
		}
		series := &stats.Series{Name: fmt.Sprintf("%d streams", n)}
		buf := make([]int16, p.SampleRate*p.Channels) // one second
		for tick := 0; tick < seconds; tick++ {
			start := time.Now()
			for i := range encs {
				srcs[i].ReadSamples(buf)
				raw := audio.Encode(p, buf)
				if _, err := encs[i].Encode(raw); err != nil {
					fmt.Fprintf(w, "  encode error: %v\n", err)
					return res
				}
			}
			cpu := float64(time.Since(start)) / float64(time.Second) * 100
			series.Add(time.Duration(tick)*time.Second, cpu)
		}
		res.Series[n] = series
		res.MeanCPU[n] = series.Mean()
	}

	var list []*stats.Series
	for _, n := range streamCounts {
		list = append(list, res.Series[n])
	}
	stats.RenderSeries(w, "  userland CPU% per 1s of audio (this machine):", list...)
	for _, n := range streamCounts {
		fmt.Fprintf(w, "  mean CPU%% at %d streams: %.1f\n", n, res.MeanCPU[n])
	}
	fmt.Fprintf(w, "  paper's shape: CPU grows ~linearly with stream count (4 vs 8 streams roughly doubles)\n")
	return res
}
