package vad

import (
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/vclock"
)

func TestVADConfigEventPrecedesData(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{})
	slave, master := v.Slave(), v.Master()

	sim.Go("app", func() {
		if err := slave.Open(audio.CDQuality); err != nil {
			t.Error(err)
		}
		slave.Write(make([]byte, slave.BlockSize()*2))
		slave.Drain()
		v.Close()
	})

	var blocks []Block
	sim.Go("reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			blocks = append(blocks, b)
		}
	})
	sim.WaitIdle()

	if len(blocks) < 3 {
		t.Fatalf("got %d events, want config + 2 data", len(blocks))
	}
	if !blocks[0].Config {
		t.Fatal("first event is not a config event")
	}
	if blocks[0].Params != audio.CDQuality {
		t.Fatalf("config params = %v", blocks[0].Params)
	}
	for _, b := range blocks[1:] {
		if b.Config {
			continue
		}
		if b.Params != audio.CDQuality {
			t.Fatalf("data block params = %v", b.Params)
		}
		if len(b.Data) == 0 {
			t.Fatal("empty data block")
		}
	}
}

func TestVADSetParamsEmitsConfigEvent(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{})
	slave, master := v.Slave(), v.Master()
	sim.Go("app", func() {
		slave.Open(audio.CDQuality)
		slave.SetParams(audio.Voice)
		slave.Write(make([]byte, slave.BlockSize()))
		slave.Drain()
		v.Close()
	})
	var configs []audio.Params
	sim.Go("reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			if b.Config {
				configs = append(configs, b.Params)
			}
		}
	})
	sim.WaitIdle()
	if len(configs) != 2 {
		t.Fatalf("got %d config events, want 2", len(configs))
	}
	if configs[0] != audio.CDQuality || configs[1] != audio.Voice {
		t.Fatalf("configs = %v", configs)
	}
}

func TestVADSetBlockSizeEmitsConfigEvent(t *testing.T) {
	// SetBlockSize re-opens the low-level driver, which re-announces the
	// configuration, and the blocks forwarded after it have the new size.
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{})
	slave, master := v.Slave(), v.Master()
	block := audio.CDQuality.BytesFor(10 * time.Millisecond)
	sim.Go("app", func() {
		slave.Open(audio.CDQuality)
		if err := slave.SetBlockSize(block); err != nil {
			t.Error(err)
		}
		slave.Write(make([]byte, block*3))
		slave.Drain()
		v.Close()
	})
	configs, data := 0, 0
	sim.Go("reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			if b.Config {
				configs++
				continue
			}
			data++
			if len(b.Data) != block {
				t.Errorf("data block of %d B, want %d", len(b.Data), block)
			}
		}
	})
	sim.WaitIdle()
	if configs != 2 || data != 3 {
		t.Fatalf("got %d config and %d data events, want 2 and 3", configs, data)
	}
}

func TestVADNoRateLimit(t *testing.T) {
	// §3.1: with no hardware behind it, the VAD consumes a five-minute
	// song at wire speed — virtually no simulated time passes.
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{QueueBlocks: 1 << 20})
	slave, master := v.Slave(), v.Master()
	p := audio.Voice
	song := make([]byte, p.BytesFor(5*time.Minute))
	start := sim.Now()
	var elapsed time.Duration
	var got int
	sim.Go("reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			got += len(b.Data)
		}
	})
	sim.Go("app", func() {
		slave.Open(p)
		slave.Write(song)
		slave.Drain()
		elapsed = sim.Since(start)
		v.Close()
	})
	sim.WaitIdle()
	if got != len(song) {
		t.Fatalf("master saw %d bytes, want %d", got, len(song))
	}
	// "Five minutes in five milliseconds": anything well under a second
	// proves there is no rate limiting.
	if elapsed > time.Second {
		t.Fatalf("VAD drain took %v of simulated time; rate limit leaked in", elapsed)
	}
}

func TestVADBackpressureOnSlowReader(t *testing.T) {
	// A slow master reader fills the bounded queue; the app's writes
	// then block until the reader catches up — data is never dropped.
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{QueueBlocks: 4})
	slave, master := v.Slave(), v.Master()
	p := audio.Voice
	var got int
	total := 0
	sim.Go("slow-reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			got += len(b.Data)
			sim.Sleep(10 * time.Millisecond)
		}
	})
	sim.Go("app", func() {
		slave.Open(p)
		data := make([]byte, slave.BlockSize()*40)
		total = len(data)
		slave.Write(data)
		slave.Drain()
		v.Close()
	})
	sim.WaitIdle()
	if got != total {
		t.Fatalf("reader got %d bytes, want %d", got, total)
	}
}

func TestVADDetachedMasterDropsData(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{QueueBlocks: 2})
	slave, master := v.Slave(), v.Master()
	master.Detach()
	sim.Go("app", func() {
		slave.Open(audio.Voice)
		slave.Write(make([]byte, slave.BlockSize()*10))
		slave.Drain()
		slave.Close()
	})
	sim.WaitIdle()
	if master.Dropped() == 0 {
		t.Fatal("detached master dropped nothing")
	}
}

func TestVADNaiveModeStalls(t *testing.T) {
	// §3.3: without the kernel thread, the high-level driver triggers
	// once, one block is consumed, and playback wedges with the ring
	// full.
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{Mode: ModeNaive, QueueBlocks: 64})
	slave := v.Slave()
	p := audio.Voice
	var wrote int
	writeDone := false
	sim.Go("app", func() {
		slave.Open(p)
		// Try to write far more than the ring holds; bound the attempt
		// with a watchdog so the test itself terminates.
		done := make(chan struct{})
		sim.Go("watchdog", func() {
			sim.Sleep(time.Minute)
			slave.Close() // unwedge the writer
			close(done)
		})
		n, _ := slave.Write(make([]byte, 1<<20))
		wrote = n
		writeDone = true
		<-done
	})
	sim.WaitIdle()
	if !writeDone {
		t.Fatal("writer never unwedged")
	}
	// The writer must have stalled: only ~ring capacity + one block got in.
	if wrote >= 1<<20 {
		t.Fatal("naive mode did not stall; whole write was accepted")
	}
	st := slave.GetStats()
	if st.BlocksPlayed > 1 {
		t.Fatalf("naive mode consumed %d blocks, want <= 1", st.BlocksPlayed)
	}
}

func TestVADInKernelStreaming(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	var got int
	var blocks int
	v := New(sim, Config{
		Mode: ModeInKernelStreaming,
		KernelSend: func(b Block) {
			got += len(b.Data)
			blocks++
		},
	})
	slave := v.Slave()
	p := audio.Voice
	total := 0
	sim.Go("app", func() {
		slave.Open(p)
		data := make([]byte, slave.BlockSize()*8)
		total = len(data)
		slave.Write(data)
		slave.Drain()
		slave.Close()
	})
	sim.WaitIdle()
	if got != total {
		t.Fatalf("kernel send saw %d bytes, want %d", got, total)
	}
	if blocks < 8 {
		t.Fatalf("kernel send saw %d blocks, want >= 8", blocks)
	}
	// In-kernel mode bypasses the master queue entirely.
	if v.Master().Pending() != 0 {
		t.Fatal("in-kernel mode leaked blocks to the master queue")
	}
}

func TestVADContextSwitchComparison(t *testing.T) {
	// Figure 5's shape: user-level streaming costs more context switches
	// than in-kernel streaming for the same workload.
	run := func(mode Mode) int64 {
		sim := vclock.NewSim(time.Time{})
		cfg := Config{Mode: mode}
		if mode == ModeInKernelStreaming {
			cfg.KernelSend = func(Block) {}
		}
		v := New(sim, cfg)
		slave, master := v.Slave(), v.Master()
		if mode == ModeUserStreaming {
			sim.Go("userapp", func() {
				for {
					if _, ok := master.ReadBlock(); !ok {
						return
					}
				}
			})
		}
		p := audio.Voice
		sim.Go("app", func() {
			slave.Open(p)
			// Paced writes, like a real player: one block per block time.
			blk := slave.BlockSize()
			for i := 0; i < 50; i++ {
				slave.Write(make([]byte, blk))
				sim.Sleep(p.Duration(blk))
			}
			v.Close()
		})
		sim.WaitIdle()
		return sim.Switches()
	}
	kernel := run(ModeInKernelStreaming)
	user := run(ModeUserStreaming)
	if user <= kernel {
		t.Fatalf("user streaming switches (%d) not above in-kernel (%d)", user, kernel)
	}
	// The paper measures roughly 37.2 vs 28.7 — about 1.3x. Accept a
	// generous band around that shape.
	ratio := float64(user) / float64(kernel)
	if ratio < 1.05 || ratio > 3 {
		t.Fatalf("switch ratio = %.2f, want within (1.05, 3)", ratio)
	}
}

func TestMasterReadAfterCloseDrainsQueue(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{QueueBlocks: 16})
	slave, master := v.Slave(), v.Master()
	sim.Go("app", func() {
		slave.Open(audio.Voice)
		slave.Write(make([]byte, slave.BlockSize()*3))
		slave.Drain()
		v.Close()
	})
	sim.WaitIdle()
	// All queued events must still be readable after close.
	n := 0
	for {
		_, ok := master.ReadBlock()
		if !ok {
			break
		}
		n++
	}
	if n < 4 { // config + 3 data
		t.Fatalf("drained %d events after close, want >= 4", n)
	}
}

func TestVADSequenceNumbersMonotone(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	v := New(sim, Config{})
	slave, master := v.Slave(), v.Master()
	sim.Go("app", func() {
		slave.Open(audio.Voice)
		slave.Write(make([]byte, slave.BlockSize()*5))
		slave.Drain()
		v.Close()
	})
	var seqs []int64
	sim.Go("reader", func() {
		for {
			b, ok := master.ReadBlock()
			if !ok {
				return
			}
			seqs = append(seqs, b.Seq)
		}
	})
	sim.WaitIdle()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence not monotone: %v", seqs)
		}
	}
}
