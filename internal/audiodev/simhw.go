package audiodev

import (
	"errors"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/vclock"
)

// PlayedBlock is one hardware block as it "comes out of the speaker":
// the observable output of a SimHardware, consumed by tests, the skew
// measurements (§3.2) and the auto-volume microphone model (§5.2).
type PlayedBlock struct {
	Time    time.Time    // the clock when the driver fetched the block
	Params  audio.Params // format it was played in
	Data    []byte       // raw audio bytes (silence-padded if underrun)
	Silence bool         // true if the block is pure inserted silence
}

// SimHardware is a simulated DAC: an audio(9) low-level driver that
// consumes one block per block-period of clock time and reports each
// block to an optional sink. It reproduces the properties the paper
// leans on: hardware inherently rate-limits the producer (§3.1), the
// consumption engine runs autonomously after a single TriggerOutput
// (§3.3), and it keeps its own time — blocks fall on deadlines counted
// from the trigger at the DAC's own rate (SetSpeed), whatever the
// scheduler does to the task that fetches them (§3.2).
type SimHardware struct {
	clock vclock.Clock

	mu        sync.Mutex
	sink      func(PlayedBlock)
	params    audio.Params
	blockSize int
	speed     float64 // DAC clock ratio; 1.0 is nominal
	open      bool
	gen       int // invalidates consumption tasks across reopen
}

// NewSimHardware returns a simulated audio DAC. sink may be nil.
func NewSimHardware(clock vclock.Clock, sink func(PlayedBlock)) *SimHardware {
	return &SimHardware{clock: clock, sink: sink, speed: 1.0}
}

// SetSpeed adjusts the DAC clock ratio: 1.01 plays 1% fast. This models
// the per-unit oscillator differences behind the phase-drift discussion
// in §3.2.
func (h *SimHardware) SetSpeed(ratio float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ratio > 0 {
		h.speed = ratio
	}
}

// SetSink replaces the output sink.
func (h *SimHardware) SetSink(sink func(PlayedBlock)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink = sink
}

// Name implements HWDriver.
func (h *SimHardware) Name() string { return "simdac" }

// Open implements HWDriver.
func (h *SimHardware) Open(p audio.Params, blockSize int) error {
	if blockSize <= 0 {
		return errors.New("audiodev: simdac: non-positive block size")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.params = p
	h.blockSize = blockSize
	h.open = true
	h.gen++
	return nil
}

// Close implements HWDriver.
func (h *SimHardware) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.open = false
	h.gen++
}

// silentHaltRun is how many consecutive pure-silence blocks the DAC plays
// before halting output and waiting for a re-trigger.
const silentHaltRun = 2

// TriggerOutput implements HWDriver: it spawns the consumption engine.
func (h *SimHardware) TriggerOutput(dev *Device) error {
	h.mu.Lock()
	if !h.open {
		h.mu.Unlock()
		return errors.New("audiodev: simdac: not open")
	}
	gen := h.gen
	params := h.params
	blockSize := h.blockSize
	speed := h.speed
	sink := h.sink
	h.mu.Unlock()

	blockDur := params.Duration(blockSize)
	if speed != 1.0 {
		blockDur = time.Duration(float64(blockDur) / speed)
	}
	h.clock.Go("simdac", func() {
		buf := make([]byte, blockSize)
		// next is the deadline of the coming fetch on the DAC's own
		// clock. Every deadline is counted from the trigger, not from the
		// previous wake-up, so the sink's run time and a sleep's overshoot
		// delay one fetch and are absorbed by the next sleep; paced by a
		// relative sleep they would add up, and the DAC would run slow by
		// their sum.
		next := h.clock.Now()
		for {
			h.mu.Lock()
			stale := gen != h.gen || !h.open
			h.mu.Unlock()
			if stale {
				dev.OutputStopped()
				return
			}
			now := h.clock.Now()
			if now.Sub(next) > DefaultRingBlocks*blockDur {
				// Stalled for longer than the ring holds: catching up
				// would fetch the whole ring back to back. This block is
				// late; the schedule restarts from it.
				next = now
			}
			next = next.Add(blockDur) // this block plays until then
			n, st := dev.FetchBlock(buf, next)
			if st == FetchHalted {
				dev.OutputStopped()
				return
			}
			if sink != nil {
				blk := PlayedBlock{
					Time:    now,
					Params:  params,
					Data:    append([]byte(nil), buf[:n]...),
					Silence: st == FetchSilence,
				}
				sink(blk)
			}
			h.clock.Sleep(next.Sub(h.clock.Now()))
			if st == FetchData {
				dev.BlockDone()
			}
			if st == FetchSilence && dev.SilentRun() >= silentHaltRun {
				dev.OutputStopped()
				return
			}
		}
	})
	return nil
}

// BlockCollector is a convenience sink that records played blocks.
type BlockCollector struct {
	mu     sync.Mutex
	blocks []PlayedBlock
}

// Sink returns a function suitable for NewSimHardware.
func (c *BlockCollector) Sink() func(PlayedBlock) {
	return func(b PlayedBlock) {
		c.mu.Lock()
		c.blocks = append(c.blocks, b)
		c.mu.Unlock()
	}
}

// Blocks returns a snapshot of the collected blocks.
func (c *BlockCollector) Blocks() []PlayedBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PlayedBlock, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// DataBlocks returns only the non-silence blocks.
func (c *BlockCollector) DataBlocks() []PlayedBlock {
	var out []PlayedBlock
	for _, b := range c.Blocks() {
		if !b.Silence {
			out = append(out, b)
		}
	}
	return out
}

// Reset discards collected blocks.
func (c *BlockCollector) Reset() {
	c.mu.Lock()
	c.blocks = nil
	c.mu.Unlock()
}
