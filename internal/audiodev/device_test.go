package audiodev

import (
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/vclock"
)

// newTestDevice builds a device over simulated time with a collector.
func newTestDevice(t *testing.T) (*vclock.Sim, *Device, *BlockCollector) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	col := &BlockCollector{}
	hw := NewSimHardware(sim, col.Sink())
	dev := NewDevice(sim, hw)
	return sim, dev, col
}

func TestDeviceOpenClose(t *testing.T) {
	_, dev, _ := newTestDevice(t)
	if err := dev.Open(audio.CDQuality); err != nil {
		t.Fatal(err)
	}
	if err := dev.Open(audio.CDQuality); err != ErrBusy {
		t.Fatalf("double open = %v, want ErrBusy", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != ErrClosed {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
	if _, err := dev.Write([]byte{1}); err != ErrClosed {
		t.Fatalf("write on closed = %v", err)
	}
}

func TestDeviceRejectsBadParams(t *testing.T) {
	_, dev, _ := newTestDevice(t)
	if err := dev.Open(audio.Params{}); err == nil {
		t.Fatal("opened with invalid params")
	}
}

func TestDevicePlaysAtHardwareRate(t *testing.T) {
	// A five-second clip must take five seconds of simulated time: the
	// hardware rate limit of §3.1.
	sim, dev, col := newTestDevice(t)
	p := audio.Voice // 8000 B/s: cheap
	if err := dev.Open(p); err != nil {
		t.Fatal(err)
	}
	clip := make([]byte, p.BytesFor(5*time.Second))
	start := sim.Now()
	var elapsed time.Duration
	sim.Go("writer", func() {
		if _, err := dev.Write(clip); err != nil {
			t.Error(err)
		}
		if err := dev.Drain(); err != nil {
			t.Error(err)
		}
		elapsed = sim.Since(start)
	})
	sim.WaitIdle()
	// Drain completes after the clip plus the silent-halt blocks.
	blockDur := p.Duration(dev.BlockSize())
	min := 5 * time.Second
	max := 5*time.Second + time.Duration(silentHaltRun+1)*blockDur
	if elapsed < min || elapsed > max {
		t.Fatalf("5s clip drained in %v, want [%v, %v]", elapsed, min, max)
	}
	// All data must have come out the DAC.
	var played int
	for _, b := range col.DataBlocks() {
		played += len(b.Data)
	}
	if played < len(clip) {
		t.Fatalf("played %d bytes, want >= %d", played, len(clip))
	}
}

func TestDeviceWriteBlocksWhenRingFull(t *testing.T) {
	// Writing 10x the ring capacity must take ~the play duration of the
	// excess, proving Write blocks rather than discarding.
	sim, dev, _ := newTestDevice(t)
	p := audio.Voice
	if err := dev.Open(p); err != nil {
		t.Fatal(err)
	}
	total := dev.BlockSize() * DefaultRingBlocks * 10
	start := sim.Now()
	var writeDone time.Duration
	sim.Go("writer", func() {
		if _, err := dev.Write(make([]byte, total)); err != nil {
			t.Error(err)
		}
		writeDone = sim.Since(start)
		dev.Close()
	})
	sim.WaitIdle()
	// Write returns once all but one ring-full is consumed (plus one
	// block in flight inside the DAC); at least the play time of
	// (total - ring capacity - one block) must have elapsed.
	minDur := p.Duration(total - dev.BlockSize()*(DefaultRingBlocks+1))
	if writeDone < minDur {
		t.Fatalf("write returned after %v, want >= %v", writeDone, minDur)
	}
}

func TestDeviceUnderrunInsertsSilence(t *testing.T) {
	sim, dev, col := newTestDevice(t)
	p := audio.Voice
	if err := dev.Open(p); err != nil {
		t.Fatal(err)
	}
	// Write one block, pause longer than the ring, write another.
	blk := dev.BlockSize()
	sim.Go("writer", func() {
		dev.Write(make([]byte, blk))
		sim.Sleep(p.Duration(blk * 6))
		dev.Write(make([]byte, blk))
		dev.Drain()
		dev.Close()
	})
	sim.WaitIdle()
	st := dev.GetStats()
	if st.SilenceBlocks == 0 {
		t.Fatal("no silence inserted during starvation")
	}
	var sawSilence bool
	for _, b := range col.Blocks() {
		if b.Silence {
			sawSilence = true
			// Silence must decode to near-zero samples.
			for _, s := range audio.Decode(p, b.Data) {
				if s > 128 || s < -128 {
					t.Fatalf("silence block decodes to %d", s)
				}
			}
		}
	}
	if !sawSilence {
		t.Fatal("collector saw no silence blocks")
	}
	if st.Triggers < 2 {
		t.Fatalf("triggers = %d, want >= 2 (auto-halt then re-trigger)", st.Triggers)
	}
}

func TestDeviceDrainOnIdleReturnsImmediately(t *testing.T) {
	sim, dev, _ := newTestDevice(t)
	if err := dev.Open(audio.Voice); err != nil {
		t.Fatal(err)
	}
	var err error
	sim.Go("drainer", func() { err = dev.Drain() })
	sim.WaitIdle()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceFlushDiscards(t *testing.T) {
	sim, dev, col := newTestDevice(t)
	p := audio.Voice
	dev.Open(p)
	sim.Go("writer", func() {
		// Less than one block: playback never starts.
		dev.Write(make([]byte, dev.BlockSize()/2))
		if dev.Buffered() == 0 {
			t.Error("nothing buffered")
		}
		dev.Flush()
		if dev.Buffered() != 0 {
			t.Error("flush left data")
		}
		dev.Close()
	})
	sim.WaitIdle()
	if len(col.DataBlocks()) != 0 {
		t.Fatal("flushed data was played")
	}
}

func TestDeviceSetParamsWhileIdle(t *testing.T) {
	sim, dev, _ := newTestDevice(t)
	dev.Open(audio.Voice)
	if err := dev.SetParams(audio.CDQuality); err != nil {
		t.Fatal(err)
	}
	if got := dev.Params(); got != audio.CDQuality {
		t.Fatalf("params = %v", got)
	}
	// During playback it must fail.
	sim.Go("writer", func() {
		dev.Write(make([]byte, dev.BlockSize()*2))
		if err := dev.SetParams(audio.Voice); err == nil {
			t.Error("SetParams succeeded during playback")
		}
		dev.Close()
	})
	sim.WaitIdle()
}

func TestDeviceSetBlockSize(t *testing.T) {
	_, dev, _ := newTestDevice(t)
	dev.Open(audio.CDQuality)
	if err := dev.SetBlockSize(1024); err != nil {
		t.Fatal(err)
	}
	if got := dev.BlockSize(); got != 1024 {
		t.Fatalf("block size = %d", got)
	}
	// Must stay frame-aligned.
	if err := dev.SetBlockSize(1023); err != nil {
		t.Fatal(err)
	}
	if got := dev.BlockSize(); got%audio.CDQuality.BytesPerFrame() != 0 {
		t.Fatalf("unaligned block %d", got)
	}
	if err := dev.SetBlockSize(0); err == nil {
		t.Fatal("accepted zero block size")
	}
}

func TestDeviceStatsAccounting(t *testing.T) {
	sim, dev, _ := newTestDevice(t)
	p := audio.Voice
	dev.Open(p)
	total := dev.BlockSize() * 4
	sim.Go("writer", func() {
		dev.Write(make([]byte, total))
		dev.Drain()
		dev.Close()
	})
	sim.WaitIdle()
	st := dev.GetStats()
	if st.BytesWritten != int64(total) {
		t.Fatalf("written = %d, want %d", st.BytesWritten, total)
	}
	if st.BytesPlayed != int64(total) {
		t.Fatalf("played = %d, want %d", st.BytesPlayed, total)
	}
	if st.BlocksPlayed != 4 {
		t.Fatalf("blocks = %d, want 4", st.BlocksPlayed)
	}
}

func TestDeviceBlockTimingIsRegular(t *testing.T) {
	// Consecutive data blocks must be exactly one block-duration apart.
	sim, dev, col := newTestDevice(t)
	p := audio.Voice
	dev.Open(p)
	sim.Go("writer", func() {
		dev.Write(make([]byte, dev.BlockSize()*6))
		dev.Drain()
		dev.Close()
	})
	sim.WaitIdle()
	blocks := col.DataBlocks()
	if len(blocks) < 6 {
		t.Fatalf("played %d blocks", len(blocks))
	}
	want := p.Duration(dev.BlockSize())
	for i := 1; i < 6; i++ {
		gap := blocks[i].Time.Sub(blocks[i-1].Time)
		if gap != want {
			t.Fatalf("gap %d = %v, want %v", i, gap, want)
		}
	}
}

func TestSimHardwareSpeedSkew(t *testing.T) {
	// A DAC running 2% fast consumes audio 2% faster.
	sim := vclock.NewSim(time.Time{})
	col := &BlockCollector{}
	hw := NewSimHardware(sim, col.Sink())
	hw.SetSpeed(1.02)
	dev := NewDevice(sim, hw)
	p := audio.Voice
	dev.Open(p)
	sim.Go("writer", func() {
		dev.Write(make([]byte, p.BytesFor(2*time.Second)))
		dev.Drain()
		dev.Close()
	})
	sim.WaitIdle()
	blocks := col.DataBlocks()
	if len(blocks) < 2 {
		t.Fatalf("played %d blocks", len(blocks))
	}
	// Span between first and last data-block start at 2% fast: the
	// nominal span divided by 1.02.
	span := blocks[len(blocks)-1].Time.Sub(blocks[0].Time)
	nominal := p.Duration(dev.BlockSize()) * time.Duration(len(blocks)-1)
	if span >= nominal {
		t.Fatalf("fast DAC span %v, want < nominal %v", span, nominal)
	}
	wantMin := time.Duration(float64(nominal) / 1.03)
	if span < wantMin {
		t.Fatalf("fast DAC span %v, want >= %v", span, wantMin)
	}
}

// lateClock is a simulated clock whose sleeps overshoot, like a real
// scheduler's: every Sleep(d) lasts d+over. Everything else is the Sim's.
type lateClock struct {
	*vclock.Sim
	over time.Duration
}

func (c lateClock) Sleep(d time.Duration) {
	if d > 0 {
		c.Sim.Sleep(d + c.over)
	}
}

// playPaced plays a continuous stream for dur through a DAC on clock and
// returns the data blocks it played with the block duration. sink, if
// set, runs inside the DAC's task for every block (its index counts data
// and silence blocks alike, but a continuous stream has only data).
func playPaced(t *testing.T, sim *vclock.Sim, clock vclock.Clock, dur time.Duration, sink func(i int)) ([]PlayedBlock, time.Duration) {
	t.Helper()
	col := &BlockCollector{}
	record := col.Sink()
	i := 0
	hw := NewSimHardware(clock, func(b PlayedBlock) {
		record(b)
		if sink != nil {
			sink(i)
		}
		i++
	})
	dev := NewDevice(clock, hw)
	p := audio.Voice
	if err := dev.Open(p); err != nil {
		t.Fatal(err)
	}
	sim.Go("writer", func() {
		// The ring blocks the writer, so it stays full throughout.
		dev.Write(make([]byte, p.BytesFor(dur)))
		dev.Close()
	})
	sim.WaitIdle()
	return col.DataBlocks(), p.Duration(dev.BlockSize())
}

func TestSimHardwareAbsorbsSleepOvershoot(t *testing.T) {
	// Deadlines are counted from the trigger, so a scheduler that wakes
	// the DAC 3 ms late every time delays each block by 3 ms and the
	// whole run by 3 ms — not by 3 ms a block.
	const over = 3 * time.Millisecond
	sim := vclock.NewSim(time.Time{})
	blocks, blockDur := playPaced(t, sim, lateClock{sim, over}, 10*time.Second, nil)
	n := len(blocks) - 1
	if n < 150 {
		t.Fatalf("played %d blocks", n+1)
	}
	span := blocks[n].Time.Sub(blocks[0].Time)
	want := time.Duration(n) * blockDur
	if span < want || span > want+over {
		t.Fatalf("%d blocks spanned %v, want %v + at most %v", n, span, want, over)
	}
}

func TestSimHardwareSlowSinkDoesNotStretchPeriod(t *testing.T) {
	// The sink runs in the DAC's task; its run time comes out of the
	// sleep, not on top of it.
	sim := vclock.NewSim(time.Time{})
	blocks, blockDur := playPaced(t, sim, sim, 5*time.Second, func(int) {
		sim.Sleep(7 * time.Millisecond)
	})
	if len(blocks) < 80 {
		t.Fatalf("played %d blocks", len(blocks))
	}
	for i := 1; i < len(blocks); i++ {
		if gap := blocks[i].Time.Sub(blocks[i-1].Time); gap != blockDur {
			t.Fatalf("gap %d = %v, want %v", i, gap, blockDur)
		}
	}
}

func TestSimHardwareStall(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stall    time.Duration
		reanchor bool
	}{
		// Shorter than the ring: the DAC catches up block by block and
		// is back on the schedule it was triggered on.
		{"short stall catches up", 120 * time.Millisecond, false},
		// Longer than the ring: catching up would fetch the whole ring
		// back to back; one block is late and the schedule restarts.
		{"long stall re-anchors", 2 * time.Second, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const at = 20
			sim := vclock.NewSim(time.Time{})
			blocks, blockDur := playPaced(t, sim, sim, 6*time.Second, func(i int) {
				if i == at {
					sim.Sleep(tc.stall)
				}
			})
			if len(blocks) < at+30 {
				t.Fatalf("played %d blocks", len(blocks))
			}
			if gap := blocks[at+1].Time.Sub(blocks[at].Time); gap != tc.stall {
				t.Fatalf("the block after the stall came %v after the stalled one, want %v", gap, tc.stall)
			}
			last := len(blocks) - 1
			span := blocks[last].Time.Sub(blocks[0].Time)
			grid := time.Duration(last) * blockDur
			if !tc.reanchor {
				if span != grid {
					t.Fatalf("%d blocks spanned %v, want %v: the stall was not absorbed", last, span, grid)
				}
				return
			}
			// One late block, then the regular period again: never two
			// blocks closer together than a block lasts.
			for i := at + 2; i <= last; i++ {
				if gap := blocks[i].Time.Sub(blocks[i-1].Time); gap != blockDur {
					t.Fatalf("gap %d after the stall = %v, want %v", i, gap, blockDur)
				}
			}
			if want := grid + tc.stall - blockDur; span != want {
				t.Fatalf("%d blocks spanned %v, want %v", last, span, want)
			}
		})
	}
}

// unscheduledHW is a low-level driver that keeps no schedule of its own:
// the shape of the VAD's naive mode, which fetches once at the trigger.
type unscheduledHW struct{}

func (unscheduledHW) Name() string                 { return "unscheduled" }
func (unscheduledHW) Open(audio.Params, int) error { return nil }
func (unscheduledHW) Close()                       {}
func (unscheduledHW) TriggerOutput(dev *Device) error {
	dev.FetchBlock(make([]byte, dev.BlockSize()), time.Time{})
	return nil
}

func TestDevicePlayCursor(t *testing.T) {
	sim, dev, _ := newTestDevice(t)
	p := audio.Voice
	if err := dev.Open(p); err != nil {
		t.Fatal(err)
	}
	blk := dev.BlockSize()
	blockDur := p.Duration(blk)
	ms := time.Millisecond
	if blockDur != 50*ms {
		t.Fatalf("block lasts %v; the table below assumes 50ms", blockDur)
	}
	t0 := sim.Now()
	// Each step runs do at t0+at and then reads the cursor. want is the
	// cursor as an offset from t0; a negative want means "no cursor".
	steps := []struct {
		name string
		at   time.Duration
		do   func()
		want time.Duration
	}{
		{"idle", 0, func() {}, -1},
		{"less than a block never triggers", 0, func() { dev.Write(make([]byte, blk/2)) }, -1},
		// 3 blocks buffered; the engine fetched the first at t0. A byte
		// written now follows the block playing and the two in the ring.
		{"triggered", 0, func() { dev.Write(make([]byte, 2*blk+blk/2)); sim.Sleep(ms) }, 150 * ms},
		{"mid-block", 49 * ms, func() {}, 150 * ms},
		// A fetch moves a block from the ring to the DAC: same answer.
		{"across a fetch", 51 * ms, func() {}, 150 * ms},
		{"exact, not rounded to blocks", 60 * ms, func() { dev.Write(make([]byte, blk/2)) }, 175 * ms},
		// t0+150: the last fetch finds half a block and pads it; what is
		// written now plays after the padding, not inside it.
		{"underrun-padded block", 151 * ms, func() {}, 200 * ms},
		{"refilled", 152 * ms, func() { dev.Write(make([]byte, 2*blk)) }, 300 * ms},
		// Flush empties the ring; the block in the DAC still plays out.
		{"flush", 153 * ms, func() { dev.Flush() }, 200 * ms},
		{"close", 154 * ms, func() { dev.Close() }, -1},
		{"re-open", 155 * ms, func() { dev.Open(p) }, -1},
		// A new run keeps no memory of the old one's schedule.
		{"re-triggered", 160 * ms, func() { dev.Write(make([]byte, blk)); sim.Sleep(ms) }, 210 * ms},
	}
	sim.Go("steps", func() {
		defer dev.Close()
		for _, s := range steps {
			sim.Sleep(t0.Add(s.at).Sub(sim.Now()))
			s.do()
			got, ok := dev.PlayCursor()
			switch {
			case s.want < 0 && ok:
				t.Errorf("%s: cursor %v, want none", s.name, got.Sub(t0))
			case s.want >= 0 && !ok:
				t.Errorf("%s: no cursor, want %v", s.name, s.want)
			case s.want >= 0 && got.Sub(t0) != s.want:
				t.Errorf("%s: cursor %v, want %v", s.name, got.Sub(t0), s.want)
			}
		}
	})
	sim.WaitIdle()

	// A driver with no schedule yields no cursor, however much is queued.
	plain := NewDevice(sim, unscheduledHW{})
	if err := plain.Open(p); err != nil {
		t.Fatal(err)
	}
	sim.Go("writer", func() {
		plain.Write(make([]byte, 3*blk))
		if at, ok := plain.PlayCursor(); ok {
			t.Errorf("unscheduled driver: cursor %v", at)
		}
		plain.Close()
	})
	sim.WaitIdle()
}
