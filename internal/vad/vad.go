package vad

import (
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/vclock"
)

// Mode selects the streaming variant (§3.3).
type Mode int

// Streaming variants.
const (
	// ModeUserStreaming forwards blocks to the master device for a
	// user-level reader (the shipped design).
	ModeUserStreaming Mode = iota
	// ModeInKernelStreaming delivers blocks straight to KernelSend from
	// the kernel thread.
	ModeInKernelStreaming
	// ModeNaive has no interrupt engine: playback stalls after one block.
	ModeNaive
)

// Block is one event on the master side: either a chunk of audio data or
// a configuration update (§2.1.2 — the reason a named pipe cannot
// replace the audio device).
type Block struct {
	Seq int64 // monotonically increasing event number
	// Time is the capture time: for the first data block of a playback
	// run, when the run's first write landed in the slave
	// (audiodev.Device.RunStart), so a live writer's timeline starts at
	// its first frame rather than a block's worth of writes later; for
	// every other event, when the driver emitted it.
	Time   time.Time
	Params audio.Params // configuration in effect
	Config bool         // true: configuration event (Data is nil)
	Data   []byte       // raw audio bytes in Params' encoding
}

// Config parameterizes a VAD instance.
type Config struct {
	Mode Mode
	// QueueBlocks bounds the master-side queue; a full queue exerts
	// backpressure on the slave (0 means the default of 64).
	QueueBlocks int
	// KernelSend receives blocks in ModeInKernelStreaming.
	KernelSend func(Block)
}

// DefaultQueueBlocks is the master queue depth when Config leaves it 0.
const DefaultQueueBlocks = 64

// VAD is a virtual audio device pair.
type VAD struct {
	clock  vclock.Clock
	slave  *audiodev.Device
	master *Master
	drv    *driver
}

// New creates a VAD on the given clock.
func New(clock vclock.Clock, cfg Config) *VAD {
	if cfg.QueueBlocks <= 0 {
		cfg.QueueBlocks = DefaultQueueBlocks
	}
	v := &VAD{clock: clock}
	v.master = newMaster(clock, cfg.QueueBlocks)
	v.drv = &driver{clock: clock, cfg: cfg, master: v.master}
	v.slave = audiodev.NewDevice(clock, v.drv)
	return v
}

// Slave returns the application-facing audio device (/dev/vads).
func (v *VAD) Slave() *audiodev.Device { return v.slave }

// Master returns the consumer-facing device (/dev/vadm).
func (v *VAD) Master() *Master { return v.master }

// Close tears the pair down. Unlike closing the slave (which an audio
// application does between songs and which leaves the pair usable,
// exactly like a pty), Close ends the master stream: blocked readers
// drain the queue and then see end-of-stream.
func (v *VAD) Close() {
	v.slave.Close()
	v.drv.mu.Lock()
	v.drv.gen++
	v.drv.mu.Unlock()
	v.master.close()
}

// driver is the low-level audio(9) driver with no hardware behind it.
type driver struct {
	clock  vclock.Clock
	cfg    Config
	master *Master

	mu     sync.Mutex
	seq    int64
	params audio.Params
	gen    int // invalidates kernel threads across reopen
}

// Name implements audiodev.HWDriver.
func (d *driver) Name() string { return "vad" }

// Open implements audiodev.HWDriver. Configuration set by the
// application's ioctls flows to the master side as a control event, so
// the consumer "can always decode the audio stream correctly" (§2.1.1).
func (d *driver) Open(p audio.Params, blockSize int) error {
	d.mu.Lock()
	d.params = p
	d.gen++
	d.seq++
	blk := Block{Seq: d.seq, Time: d.clock.Now(), Params: p, Config: true}
	mode, send := d.cfg.Mode, d.cfg.KernelSend
	d.mu.Unlock()
	if mode == ModeInKernelStreaming {
		if send != nil {
			send(blk)
		}
		return nil
	}
	d.master.push(blk)
	return nil
}

// Close implements audiodev.HWDriver. It stops the kernel thread but
// leaves the master side open: the application closing /dev/vads between
// songs must not tear down the pair (use VAD.Close for that).
func (d *driver) Close() {
	d.mu.Lock()
	d.gen++
	d.mu.Unlock()
}

// TriggerOutput implements audiodev.HWDriver.
func (d *driver) TriggerOutput(dev *audiodev.Device) error {
	d.mu.Lock()
	gen := d.gen
	params := d.params
	mode := d.cfg.Mode
	send := d.cfg.KernelSend
	d.mu.Unlock()
	// The run's first block is dated from the run's first write; later
	// ones from when they are forwarded.
	at := dev.RunStart()

	if mode == ModeNaive {
		// The §3.3 failure mode: the high-level driver believes we set up
		// a DMA engine and never calls us again. Consume one block and
		// silently do nothing more; the ring fills and writers stall.
		buf := make([]byte, dev.BlockSize())
		n, st := dev.FetchBlock(buf, time.Time{})
		if st == audiodev.FetchData {
			d.forward(params, buf[:n], send, at)
		}
		return nil
	}

	// The kernel-thread workaround: a task that plays the role of the
	// missing hardware interrupt engine. Unlike real hardware it imposes
	// no rate limit (§3.1): it drains as fast as the application writes.
	d.clock.Go("vad-kthread", func() {
		buf := make([]byte, dev.BlockSize())
		for {
			d.mu.Lock()
			stale := gen != d.gen
			d.mu.Unlock()
			if stale {
				dev.OutputStopped()
				return
			}
			n, st := dev.FetchBlockWait(buf)
			if st == audiodev.FetchHalted {
				dev.OutputStopped()
				return
			}
			d.forward(params, buf[:n], send, at)
			at = time.Time{}
			dev.BlockDone()
		}
	})
	return nil
}

// forward delivers one data block according to the streaming mode,
// stamped with at, or with the clock when at is zero.
func (d *driver) forward(params audio.Params, data []byte, send func(Block), at time.Time) {
	if at.IsZero() {
		at = d.clock.Now()
	}
	d.mu.Lock()
	d.seq++
	blk := Block{
		Seq:    d.seq,
		Time:   at,
		Params: params,
		Data:   append([]byte(nil), data...),
	}
	d.mu.Unlock()
	if d.cfg.Mode == ModeInKernelStreaming {
		if send != nil {
			send(blk)
		}
		return
	}
	d.master.push(blk)
}
