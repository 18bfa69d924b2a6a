package audiodev

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/vclock"
)

// FetchStatus is what a low-level driver learns from FetchBlock.
type FetchStatus int

// Fetch outcomes.
const (
	// FetchData: the block contains buffered audio (possibly padded).
	FetchData FetchStatus = iota
	// FetchSilence: the ring was empty; the block is pure inserted
	// silence (an underrun if playback was expected to be continuous).
	FetchSilence
	// FetchHalted: the device is closed or flushed; stop consuming.
	FetchHalted
)

// HWDriver is the audio(9)-style low-level driver contract. The
// high-level driver calls TriggerOutput exactly once per playback run —
// when the first full block is buffered — and from then on the driver is
// expected to consume autonomously via FetchBlock/FetchBlockWait until it
// sees FetchHalted or chooses to stop (reporting so with OutputStopped).
// The run itself began earlier, when its first write landed (RunStart): a
// driver that timestamps what it forwards (the VAD) dates the run's first
// block from then, not from the trigger a block's worth of writes later.
type HWDriver interface {
	// Name identifies the driver in diagnostics.
	Name() string
	// Open prepares the driver for the given configuration.
	Open(p audio.Params, blockSize int) error
	// TriggerOutput starts the autonomous consumption engine (DMA in real
	// hardware; a task here). Called with the device lock NOT held.
	TriggerOutput(dev *Device) error
	// Close releases the driver. Any consumption task must observe
	// FetchHalted promptly afterwards.
	Close()
}

// Stats captures the high-level driver's accounting.
type Stats struct {
	BytesWritten  int64 // accepted from the application
	BytesPlayed   int64 // handed to the low-level driver
	BlocksPlayed  int64 // data blocks consumed
	SilenceBlocks int64 // pure-silence blocks inserted on underrun
	Underruns     int64 // data blocks padded OR silence inserted mid-stream
	Triggers      int64 // TriggerOutput invocations
}

// Default sizing: OpenBSD's audio driver defaults to ~50ms blocks and a
// ring of a dozen or so blocks.
const (
	DefaultBlockMillis = 50
	DefaultRingBlocks  = 12
)

var (
	// ErrClosed is returned for operations on a closed device.
	ErrClosed = errors.New("audiodev: device not open")
	// ErrBusy is returned when opening an already-open device.
	ErrBusy = errors.New("audiodev: device busy")
)

// Device is the high-level, device-independent audio driver: the
// /dev/audio the application sees. Writes block when the ring is full
// (the inherent hardware rate limit of §3.1 — which the VAD deliberately
// lacks); reads by the low-level driver insert silence on underrun.
type Device struct {
	clock vclock.Clock
	hw    HWDriver

	mu        sync.Mutex
	notFull   vclock.Cond
	changed   vclock.Cond // ring drained / playback state changes
	open      bool
	triggered bool
	params    audio.Params
	blockSize int
	ring      *Ring
	stats     Stats
	// consecutive silence blocks in the current run, for auto-halt
	silentRun int
	// data blocks fetched but not yet reported done by the driver
	inFlight int
	// when the block now playing ends on the low-level driver's own
	// schedule; zero while this run has no such block (see PlayCursor)
	playEnd time.Time
	// when the first write of the current run landed (see RunStart)
	runStart time.Time
}

// NewDevice returns a closed device wired to clock and low-level driver.
func NewDevice(clock vclock.Clock, hw HWDriver) *Device {
	d := &Device{clock: clock, hw: hw}
	d.notFull = clock.NewCond()
	d.changed = clock.NewCond()
	return d
}

// Open configures and opens the device (exclusive), sizing the block to
// DefaultBlockMillis and the ring to DefaultRingBlocks blocks.
func (d *Device) Open(p audio.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.open {
		return ErrBusy
	}
	d.params = p
	d.blockSize = alignBlock(p, p.BytesFor(DefaultBlockMillis*time.Millisecond))
	d.ring = NewRing(d.blockSize * DefaultRingBlocks)
	d.stats = Stats{}
	d.silentRun = 0
	d.runStart = time.Time{}
	if err := d.hw.Open(p, d.blockSize); err != nil {
		return fmt.Errorf("audiodev: low-level open: %w", err)
	}
	d.open = true
	return nil
}

// alignBlock rounds n down to a whole number of frames, minimum one.
func alignBlock(p audio.Params, n int) int {
	fb := p.BytesPerFrame()
	if n < fb {
		return fb
	}
	return n - n%fb
}

// SetBlockSize reconfigures the block size (and rings of DefaultRingBlocks
// blocks) — the AUDIO_SETINFO blocksize knob the buffer-size experiment
// sweeps (§3.4) — and re-opens the low-level driver so it consumes blocks
// of the new size. Like SetParams, the re-open re-announces the
// configuration: a VAD slave hands its master a new configuration event.
// Only allowed while playback is idle.
func (d *Device) SetBlockSize(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return ErrClosed
	}
	if d.triggered || d.ring.Len() > 0 {
		return errors.New("audiodev: cannot resize block during playback")
	}
	if n <= 0 {
		return fmt.Errorf("audiodev: invalid block size %d", n)
	}
	d.blockSize = alignBlock(d.params, n)
	d.ring = NewRing(d.blockSize * DefaultRingBlocks)
	if err := d.hw.Open(d.params, d.blockSize); err != nil {
		return fmt.Errorf("audiodev: low-level reopen: %w", err)
	}
	return nil
}

// SetParams reconfigures the stream parameters (the AUDIO_SETINFO ioctl).
// Only allowed while playback is idle so in-flight audio keeps its
// format.
func (d *Device) SetParams(p audio.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return ErrClosed
	}
	if d.triggered || d.ring.Len() > 0 {
		return errors.New("audiodev: cannot change params during playback")
	}
	d.params = p
	d.blockSize = alignBlock(p, p.BytesFor(DefaultBlockMillis*time.Millisecond))
	d.ring = NewRing(d.blockSize * DefaultRingBlocks)
	if err := d.hw.Open(p, d.blockSize); err != nil {
		return fmt.Errorf("audiodev: low-level reopen: %w", err)
	}
	return nil
}

// Params returns the current configuration.
func (d *Device) Params() audio.Params {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.params
}

// BlockSize returns the current block size in bytes.
func (d *Device) BlockSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blockSize
}

// GetStats returns a snapshot of the driver accounting.
func (d *Device) GetStats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Write queues audio data for playback, blocking while the ring is full.
// It returns the number of bytes accepted (all of p unless the device is
// closed mid-write).
func (d *Device) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	written := 0
	for len(p) > 0 {
		if !d.open {
			return written, ErrClosed
		}
		if !d.triggered && d.ring.Len() == 0 {
			d.runStart = d.clock.Now()
		}
		n := d.ring.Write(p)
		if n == 0 {
			// Ring full: the producer-consumer rate limit.
			d.notFull.Wait(&d.mu)
			continue
		}
		p = p[n:]
		written += n
		d.stats.BytesWritten += int64(n)
		// Wake a driver parked in FetchBlockWait (the VAD kernel thread).
		d.changed.Broadcast()
		d.maybeTriggerLocked()
	}
	return written, nil
}

// maybeTriggerLocked starts the low-level consumption engine when the
// first block of a run is buffered.
func (d *Device) maybeTriggerLocked() {
	if d.triggered || d.ring.Len() < d.blockSize {
		return
	}
	d.triggered = true
	d.silentRun = 0
	d.playEnd = time.Time{}
	d.stats.Triggers++
	hw := d.hw
	// TriggerOutput may spawn a task that immediately calls FetchBlock;
	// release the lock around the call.
	d.mu.Unlock()
	err := hw.TriggerOutput(d)
	d.mu.Lock()
	if err != nil {
		d.triggered = false
	}
}

// FetchBlock is called by the low-level driver to consume one block from
// the ring. If the ring holds less than a block, the remainder is filled
// with silence (counted as an underrun when mid-stream). until is when
// the block will have played out on the driver's own schedule — the
// deadline of its next fetch, not a reading of the clock when its task
// happened to wake — and feeds PlayCursor; a driver that keeps no
// schedule passes the zero time. The returned status tells the driver
// whether to keep consuming.
func (d *Device) FetchBlock(buf []byte, until time.Time) (int, FetchStatus) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open || !d.triggered {
		return 0, FetchHalted
	}
	d.playEnd = until
	n := d.ring.Read(buf)
	if n > 0 {
		d.notFull.Broadcast()
	}
	if n < len(buf) {
		audio.FillSilence(d.params.Encoding, buf[n:])
	}
	if n == 0 {
		d.stats.SilenceBlocks++
		d.silentRun++
		if d.ring.Len() == 0 {
			d.changed.Broadcast()
		}
		return len(buf), FetchSilence
	}
	d.silentRun = 0
	d.stats.BlocksPlayed++
	d.stats.BytesPlayed += int64(n)
	d.inFlight++
	if n < len(buf) {
		d.stats.Underruns++
	}
	if d.ring.Len() == 0 {
		d.changed.Broadcast()
	}
	return len(buf), FetchData
}

// BlockDone is the driver's completion interrupt: it reports that a
// previously fetched data block has been fully played (or delivered, for
// the VAD). Drain completes only once every fetched block is done.
func (d *Device) BlockDone() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inFlight > 0 {
		d.inFlight--
	}
	if d.inFlight == 0 {
		d.changed.Broadcast()
	}
}

// FetchBlockWait is the variant the VAD's kernel thread uses: it blocks
// until at least one byte is buffered (returning up to a block) or the
// device halts. No silence is ever fabricated — the VAD only ever sees
// what the application actually wrote.
func (d *Device) FetchBlockWait(buf []byte) (int, FetchStatus) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if !d.open || !d.triggered {
			return 0, FetchHalted
		}
		n := d.ring.Read(buf)
		if n > 0 {
			d.stats.BlocksPlayed++
			d.stats.BytesPlayed += int64(n)
			d.inFlight++
			d.notFull.Broadcast()
			if d.ring.Len() == 0 {
				d.changed.Broadcast()
			}
			return n, FetchData
		}
		d.changed.Wait(&d.mu)
	}
}

// RunStart returns when the current playback run began: the instant a
// write landed in an idle, empty device. Writes into a triggered or
// non-empty device leave it alone; Open and Close reset it to zero.
func (d *Device) RunStart() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.runStart
}

// SilentRun returns the number of consecutive pure-silence blocks the
// current run has produced; hardware drivers use it to halt output after
// the stream drains rather than playing silence forever.
func (d *Device) SilentRun() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.silentRun
}

// OutputStopped is called by the low-level driver when its consumption
// engine exits; the next Write will re-trigger.
func (d *Device) OutputStopped() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.triggered = false
	d.changed.Broadcast()
	// A block may have accumulated while the engine was winding down.
	d.maybeTriggerLocked()
}

// Drain blocks until all buffered audio has been consumed and every
// fetched block has been reported played via BlockDone (the AUDIO_DRAIN
// ioctl). On a wedged device — the naive VAD of §3.3 — Drain hangs, just
// like the real thing.
func (d *Device) Drain() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if !d.open {
			return ErrClosed
		}
		if d.ring.Len() == 0 && d.inFlight == 0 {
			return nil
		}
		d.changed.Wait(&d.mu)
	}
}

// Flush discards buffered audio without playing it (AUDIO_FLUSH).
func (d *Device) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return ErrClosed
	}
	d.ring.Reset()
	d.notFull.Broadcast()
	d.changed.Broadcast()
	return nil
}

// Playing reports whether the consumption engine is currently running.
func (d *Device) Playing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.triggered
}

// Buffered returns the number of bytes queued in the ring.
func (d *Device) Buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ring == nil {
		return 0
	}
	return d.ring.Len()
}

// PlayCursor answers "when will a byte written now start playing": the
// end of the block the driver is playing, plus the ring — what a sound
// card's DMA position register (AUDIO_GETOOFFS) tells an application. It
// is read off the driver's schedule, so it is exact where QueuedBytes
// rounds up to a whole block, and it follows the DAC's own oscillator
// instead of assuming the nominal rate (§3.2). ok is false while no
// engine is running on a schedule: before the first fetch of a run, after
// a halt, or under a driver that keeps none (the VAD).
func (d *Device) PlayCursor() (at time.Time, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open || !d.triggered || d.playEnd.IsZero() {
		return time.Time{}, false
	}
	return d.playEnd.Add(d.params.Duration(d.ring.Len())), true
}

// QueuedBytes returns the bytes not yet played: the ring contents plus
// anything fetched by the driver but not reported done. It upper-bounds
// how far in the future a byte written now will play; the speaker uses
// it only before the engine's first fetch, when there is no cursor yet.
func (d *Device) QueuedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ring == nil {
		return 0
	}
	return d.ring.Len() + d.inFlight*d.blockSize
}

// Close halts playback, discards buffered audio and releases the device.
func (d *Device) Close() error {
	d.mu.Lock()
	if !d.open {
		d.mu.Unlock()
		return ErrClosed
	}
	d.open = false
	d.triggered = false
	d.inFlight = 0
	d.runStart = time.Time{}
	if d.ring != nil {
		d.ring.Reset()
	}
	d.notFull.Broadcast()
	d.changed.Broadcast()
	hw := d.hw
	d.mu.Unlock()
	hw.Close()
	return nil
}

// Clock exposes the device's clock to low-level drivers.
func (d *Device) Clock() vclock.Clock { return d.clock }
