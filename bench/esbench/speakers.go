package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/speaker"
	"repro/internal/vclock"
)

// playedBlock is one hardware block of the position ramp as a speaker's
// simulated DAC played it.
type playedBlock struct {
	at  int64 // when the block started playing, Unix ns
	pos int   // position value of its first sample
}

// listener is an in-process speaker.Speaker with a tap on its DAC. The
// real speaker code receives, schedules and plays; the harness only
// watches what comes out and when.
type listener struct {
	name string
	sp   *speaker.Speaker
	done chan struct{}

	mu     sync.Mutex
	blocks []playedBlock
}

// startListener creates and runs a speaker tuned to source: a multicast
// group it joins, or a relay it leases from under signer k.
func startListener(name string, source lan.Addr, k *keys, identity uint32, meter *core.SkewMeter) (*listener, error) {
	port, err := reservePort()
	if err != nil {
		return nil, err
	}
	local := fmt.Sprintf("127.0.0.1:%d", port)
	cfg := speaker.Config{Name: name, Local: lan.Addr(local), Group: source, Channel: streamChannel}
	if !source.IsMulticast() {
		cfg.RelayAuth = k.signer(identity, local)
	}
	sp, err := speaker.New(vclock.System, &lan.UDPNetwork{}, cfg)
	if err != nil {
		return nil, err
	}
	l := &listener{name: name, sp: sp, done: make(chan struct{})}
	sp.OnPlay(l.played)
	meter.Attach(name, sp)
	go func() {
		defer close(l.done)
		sp.Run()
	}()
	return l, nil
}

func (l *listener) played(b audiodev.PlayedBlock) {
	if b.Silence {
		return
	}
	s := audio.Decode(b.Params, b.Data)
	ch := b.Params.Channels
	// Only blocks that open on the ramp count: a block that starts with
	// alignment silence would read as position 0.
	if len(s) < 2*ch || int(s[ch]) != (int(s[0])+1)%posWrap {
		return
	}
	l.mu.Lock()
	l.blocks = append(l.blocks, playedBlock{at: b.Time.UnixNano(), pos: int(s[0])})
	l.mu.Unlock()
}

func (l *listener) stop() {
	l.sp.Stop()
	<-l.done
}

// playSample is one played block resolved to the audio it carried.
type playSample struct {
	at  float64 // when it played, s after from
	due int64   // when that audio was due at the producer, Unix ns
	ms  float64 // due → played
}

// latencies resolves every block played inside [from, to] whose audio
// was also due inside it.
func (l *listener) latencies(src *source, tapData []tapRec, from, to int64) []playSample {
	l.mu.Lock()
	blocks := append([]playedBlock(nil), l.blocks...)
	l.mu.Unlock()
	var out []playSample
	var prev playedBlock
	var prevFrame int64
	for n, b := range blocks {
		var f int64
		if n == 0 {
			// Frames on the wire when the first block played.
			i := sort.Search(len(tapData), func(i int) bool { return tapData[i].ts > b.at })
			if i == 0 {
				return nil
			}
			f = anchorFrame(b.pos, src.phase, tapData[i-1].frames-1)
		} else {
			f = followFrame(b.pos, src.phase, prevFrame+(b.at-prev.at)*sampleRate/1e9)
		}
		prev, prevFrame = b, f
		if b.at < from || b.at > to {
			continue
		}
		due := src.dueAt(f)
		if due < from {
			continue
		}
		out = append(out, playSample{at: float64(b.at-from) / 1e9, due: due, ms: float64(b.at-due) / 1e6})
	}
	return out
}

// playedIn counts the blocks of the program played inside [from, to].
func (l *listener) playedIn(from, to int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, b := range l.blocks {
		if b.at >= from && b.at <= to {
			n++
		}
	}
	return n
}

func (l *listener) firstSound() (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.blocks) == 0 {
		return 0, false
	}
	return l.blocks[0].at, true
}

// skew samples how far apart two listeners' playback positions were,
// 50 times a second over [from, to], in ms.
func skew(meter *core.SkewMeter, a, b string, from, to time.Time) []float64 {
	n := int(to.Sub(from) / (20 * time.Millisecond))
	return meter.Skew(a, b, core.SampleTimes(from, to, n))
}
