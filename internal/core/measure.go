package core

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/speaker"
)

// Synchronization instrumentation for the §3.2 experiments: a position-
// encoded test signal plus per-speaker taps on the DAC output let us ask
// "which stream position is each speaker playing right now?" and report
// the inter-speaker skew in milliseconds.

// posWrap is the ramp period of the position signal in frames. It must
// fit in int16 and be long relative to plausible skews (at 44.1 kHz,
// 20000 frames is ~454 ms).
const posWrap = 20000

// PositionSource generates a mono-compatible signal whose every sample
// encodes the current frame index modulo posWrap. It survives raw (and
// µ-law approximately) transport and lets the skew meter decode stream
// position from played blocks.
type PositionSource struct {
	Channels int
	frame    int64
}

// ReadSamples implements audio.Source.
func (p *PositionSource) ReadSamples(out []int16) (int, error) {
	ch := p.Channels
	if ch <= 0 {
		ch = 1
	}
	frames := len(out) / ch
	for f := 0; f < frames; f++ {
		v := int16(p.frame % posWrap)
		for c := 0; c < ch; c++ {
			out[f*ch+c] = v
		}
		p.frame++
	}
	return frames * ch, nil
}

// playRecord is one data block as played by a speaker's DAC.
type playRecord struct {
	at     time.Time
	pos    int64 // stream frame index at block start (mod posWrap), or noPos
	frames int
	rate   int
}

// noPos marks a played block that does not open on the position ramp.
const noPos = -1

// SkewMeter records DAC output of multiple speakers playing the same
// position-encoded stream and computes pairwise playback skew.
type SkewMeter struct {
	mu      sync.Mutex
	records map[string][]playRecord
}

// NewSkewMeter returns an empty meter.
func NewSkewMeter() *SkewMeter {
	return &SkewMeter{records: make(map[string][]playRecord)}
}

// Attach taps a speaker's DAC output under the given name.
func (m *SkewMeter) Attach(name string, sp *speaker.Speaker) {
	sp.OnPlay(func(b audiodev.PlayedBlock) {
		if b.Silence || len(b.Data) == 0 {
			return
		}
		samples := audio.Decode(b.Params, b.Data)
		ch := b.Params.Channels
		if len(samples) < ch {
			return
		}
		rec := playRecord{
			at:     b.Time,
			pos:    int64(samples[0]),
			frames: len(samples) / ch,
			rate:   b.Params.SampleRate,
		}
		// Only a block that opens on the ramp has a position: one that
		// opens on alignment or gap-fill silence would read as position 0
		// and a skew of up to half a ramp.
		if len(samples) < 2*ch || int64(samples[ch]) != (rec.pos+1)%posWrap {
			rec.pos = noPos
		}
		m.mu.Lock()
		m.records[name] = append(m.records[name], rec)
		m.mu.Unlock()
	})
}

// positionAt returns the stream position (mod posWrap) the named speaker
// was playing at time t, and whether t fell inside a played block.
func (m *SkewMeter) positionAt(name string, t time.Time) (float64, bool) {
	m.mu.Lock()
	recs := m.records[name]
	m.mu.Unlock()
	// Records are appended in time order.
	i := sort.Search(len(recs), func(i int) bool { return recs[i].at.After(t) })
	if i == 0 {
		return 0, false
	}
	r := recs[i-1]
	off := t.Sub(r.at)
	blockDur := time.Duration(r.frames) * time.Second / time.Duration(r.rate)
	if r.pos == noPos || off < 0 || off > blockDur {
		return 0, false
	}
	frames := float64(off) * float64(r.rate) / float64(time.Second)
	return math.Mod(float64(r.pos)+frames, posWrap), true
}

// wrapDiff returns the minimal signed difference a-b on the posWrap ring.
func wrapDiff(a, b float64) float64 {
	d := math.Mod(a-b+posWrap*1.5, posWrap) - posWrap/2
	return d
}

// Skew samples the position difference between two speakers at the given
// times and returns the per-sample skew in milliseconds (positive: a is
// ahead of b). Times where either speaker was not playing are skipped.
func (m *SkewMeter) Skew(a, b string, times []time.Time) []float64 {
	var out []float64
	m.mu.Lock()
	var rate int
	if recs := m.records[a]; len(recs) > 0 {
		rate = recs[0].rate
	}
	m.mu.Unlock()
	if rate == 0 {
		return nil
	}
	for _, t := range times {
		pa, oka := m.positionAt(a, t)
		pb, okb := m.positionAt(b, t)
		if !oka || !okb {
			continue
		}
		frames := wrapDiff(pa, pb)
		out = append(out, frames*1000/float64(rate))
	}
	return out
}

// Names returns the attached speaker names with at least one record.
func (m *SkewMeter) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for n, recs := range m.records {
		if len(recs) > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// FirstSound returns when the named speaker first played data, and
// whether it ever did.
func (m *SkewMeter) FirstSound(name string) (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	recs := m.records[name]
	if len(recs) == 0 {
		return time.Time{}, false
	}
	return recs[0].at, true
}

// SampleTimes builds n sampling instants between start and end.
func SampleTimes(start, end time.Time, n int) []time.Time {
	if n < 2 {
		return []time.Time{start}
	}
	step := end.Sub(start) / time.Duration(n-1)
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(step * time.Duration(i))
	}
	return out
}
