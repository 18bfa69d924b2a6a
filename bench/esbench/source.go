package main

import (
	"io"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
)

const (
	sampleRate = 44100
	chunkDur   = 10 * time.Millisecond
	chunkFrame = sampleRate / 100 // frames per chunk
)

// source plays the audio application: it writes a position-coded PCM
// program into rebroadcastd's standard input in 10 ms chunks and logs
// when each chunk went in. The program is core.PositionSource started at
// a seeded phase, so any played sample names its stream frame and the
// harness can tell when that frame was written.
type source struct {
	params audio.Params
	phase  int  // position value of stream frame 0
	live   bool // write on the audio clock instead of as fast as the pipe takes it

	mu      sync.Mutex
	start   int64     // when the program began, Unix ns
	written []int64   // written[i]: when the application handed chunk i to the device, Unix ns
	late    []float64 // live only: µs each chunk was written behind schedule
}

func newSource(channels int, live bool, seed int64) *source {
	return &source{
		params: audio.Params{SampleRate: sampleRate, Channels: channels, Encoding: audio.EncodingSLinear16LE},
		phase:  int(uint64(seed) % posWrap),
		live:   live,
	}
}

// run writes chunks until out fails (the daemon was stopped) or stop
// closes.
func (s *source) run(out io.Writer, stop <-chan struct{}) {
	pos := &core.PositionSource{Channels: s.params.Channels}
	skip := make([]int16, s.phase*s.params.Channels)
	pos.ReadSamples(skip)
	samples := make([]int16, chunkFrame*s.params.Channels)
	start := time.Now()
	s.mu.Lock()
	s.start = start.UnixNano()
	s.mu.Unlock()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if s.live {
			due := start.Add(time.Duration(i) * chunkDur)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			s.mu.Lock()
			s.late = append(s.late, float64(time.Since(due))/1e3)
			s.mu.Unlock()
		}
		pos.ReadSamples(samples)
		chunk := audio.Encode(s.params, samples)
		now := time.Now().UnixNano()
		if _, err := out.Write(chunk); err != nil {
			return
		}
		s.mu.Lock()
		s.written = append(s.written, now)
		s.mu.Unlock()
	}
}

// dueAt returns when the chunk holding stream frame f is due on the
// audio clock: when an application that plays the program in real time
// hands it over. A live source writes then (the harness's own lateness
// aside); one that writes as fast as the pipe takes it runs seconds
// ahead, through the pipe, the producer's ring and its block queue, and
// what a listener hears is late against the clock, not against that
// write.
func (s *source) dueAt(f int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start + f/chunkFrame*int64(chunkDur)
}

// writtenAt returns when the chunk holding stream frame f went into the
// producer, or 0 if that chunk has not been written.
func (s *source) writtenAt(f int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := f / chunkFrame
	if f < 0 || i >= int64(len(s.written)) {
		return 0
	}
	return s.written[i]
}

func (s *source) lateness() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.late...)
}
