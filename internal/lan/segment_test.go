package lan

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

func newSeg(t *testing.T, cfg SegmentConfig) (*vclock.Sim, *Segment) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	return sim, NewSegment(sim, cfg)
}

func TestAddrParsing(t *testing.T) {
	a := Addr("10.0.0.7:5004")
	if a.Host() != "10.0.0.7" || a.Port() != 5004 {
		t.Fatalf("host=%q port=%d", a.Host(), a.Port())
	}
	if a.IsMulticast() {
		t.Fatal("unicast reported multicast")
	}
	g := Addr("239.72.1.1:5004")
	if !g.IsMulticast() {
		t.Fatal("group not recognized")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Addr{"nonsense", "10.0.0.1", "10.0.0.1:0", "10.0.0.1:99999", ":5004"} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%q validated", bad)
		}
	}
}

func TestSegmentUnicast(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{Latency: 100 * time.Microsecond})
	a, err := seg.Attach("10.0.0.1:5000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := seg.Attach("10.0.0.2:5000")
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	sim.Go("recv", func() {
		got, _ = b.Recv(0)
	})
	sim.Go("send", func() {
		if err := a.Send("10.0.0.2:5000", []byte("hello")); err != nil {
			t.Error(err)
		}
	})
	sim.WaitIdle()
	if string(got.Data) != "hello" || got.From != "10.0.0.1:5000" {
		t.Fatalf("got %+v", got)
	}
	if got.Recv.Sub(got.Sent) < 100*time.Microsecond {
		t.Fatalf("latency not applied: %v", got.Recv.Sub(got.Sent))
	}
}

func TestSegmentMulticastFanout(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	src, _ := seg.Attach("10.0.0.1:5000")
	group := Addr("239.72.1.1:5004")
	const n = 5
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		c, err := seg.Attach(Addr("10.0.0." + string(rune('2'+i)) + ":5004"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Join(group); err != nil {
			t.Fatal(err)
		}
		sim.Go("recv", func() {
			for {
				p, err := c.Recv(time.Second)
				if err != nil {
					return
				}
				got[i] += len(p.Data)
			}
		})
	}
	sim.Go("send", func() {
		for j := 0; j < 10; j++ {
			src.Send(group, make([]byte, 100))
			sim.Sleep(time.Millisecond)
		}
	})
	sim.WaitIdle()
	for i, g := range got {
		if g != 1000 {
			t.Fatalf("receiver %d got %d bytes, want 1000", i, g)
		}
	}
	st := seg.Stats()
	if st.Deliveries != 50 {
		t.Fatalf("deliveries = %d, want 50", st.Deliveries)
	}
}

func TestSegmentMulticastRequiresJoin(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	// Not joined: packet must not arrive.
	var got bool
	sim.Go("recv", func() {
		_, err := c.Recv(10 * time.Millisecond)
		got = err == nil
	})
	sim.Go("send", func() {
		src.Send("239.72.1.1:5004", []byte("x"))
	})
	sim.WaitIdle()
	if got {
		t.Fatal("received multicast without joining")
	}
	if seg.Stats().DroppedNoRoute != 1 {
		t.Fatalf("no-route drops = %d", seg.Stats().DroppedNoRoute)
	}
}

func TestSegmentLeave(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	g := Addr("239.72.1.1:5004")
	c.Join(g)
	c.Leave(g)
	var got bool
	sim.Go("recv", func() {
		_, err := c.Recv(10 * time.Millisecond)
		got = err == nil
	})
	sim.Go("send", func() { src.Send(g, []byte("x")) })
	sim.WaitIdle()
	if got {
		t.Fatal("received after leaving group")
	}
}

func TestSegmentNoSelfLoopback(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	a, _ := seg.Attach("10.0.0.1:5004")
	g := Addr("239.72.1.1:5004")
	a.Join(g)
	var got bool
	sim.Go("a", func() {
		a.Send(g, []byte("x"))
		_, err := a.Recv(10 * time.Millisecond)
		got = err == nil
	})
	sim.WaitIdle()
	if got {
		t.Fatal("sender received its own multicast")
	}
}

func TestSegmentLoss(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{Loss: 0.3, Seed: 99})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	g := Addr("239.72.1.1:5004")
	c.Join(g)
	received := 0
	sim.Go("recv", func() {
		for {
			if _, err := c.Recv(50 * time.Millisecond); err != nil {
				return
			}
			received++
		}
	})
	const sent = 1000
	sim.Go("send", func() {
		for i := 0; i < sent; i++ {
			src.Send(g, []byte("payload"))
			sim.Sleep(time.Millisecond)
		}
	})
	sim.WaitIdle()
	// Expect ~700 +- generous tolerance.
	if received < 600 || received > 800 {
		t.Fatalf("received %d of %d at 30%% loss", received, sent)
	}
	st := seg.Stats()
	if st.DroppedLoss != int64(sent-received) {
		t.Fatalf("loss accounting: dropped=%d received=%d", st.DroppedLoss, received)
	}
}

func TestSegmentLossDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) int64 {
		sim, seg := newSeg(t, SegmentConfig{Loss: 0.2, Seed: seed})
		src, _ := seg.Attach("10.0.0.1:5000")
		c, _ := seg.Attach("10.0.0.2:5004")
		c.Join("239.1.1.1:5004")
		sim.Go("recv", func() {
			for {
				if _, err := c.Recv(50 * time.Millisecond); err != nil {
					return
				}
			}
		})
		sim.Go("send", func() {
			for i := 0; i < 200; i++ {
				src.Send("239.1.1.1:5004", []byte("x"))
				sim.Sleep(time.Millisecond)
			}
		})
		sim.WaitIdle()
		return seg.Stats().DroppedLoss
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different loss patterns")
	}
}

func TestSegmentBandwidthSerialization(t *testing.T) {
	// At 10 Mbps, 1000 packets of 1250B (10 kbit each incl. overhead
	// ~10.4kbit) take about a second to serialize; deliveries must be
	// spread out, not instantaneous.
	sim, seg := newSeg(t, SegmentConfig{BandwidthBps: 10_000_000, MaxBacklog: time.Hour})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	g := Addr("239.72.1.1:5004")
	c.Join(g)
	var first, last time.Time
	n := 0
	sim.Go("recv", func() {
		for {
			p, err := c.Recv(5 * time.Second)
			if err != nil {
				return
			}
			if n == 0 {
				first = p.Recv
			}
			last = p.Recv
			n++
		}
	})
	sim.Go("send", func() {
		for i := 0; i < 1000; i++ {
			src.Send(g, make([]byte, 1250))
		}
	})
	sim.WaitIdle()
	if n != 1000 {
		t.Fatalf("received %d", n)
	}
	span := last.Sub(first)
	// (1250+46)*8*999/10e6 ≈ 1.036s
	if span < 900*time.Millisecond || span > 1200*time.Millisecond {
		t.Fatalf("serialization span = %v, want ~1.04s", span)
	}
}

func TestSegmentSaturationDrops(t *testing.T) {
	// Offering far more than the medium can carry trips the backlog
	// bound and drops packets.
	sim, seg := newSeg(t, SegmentConfig{BandwidthBps: 1_000_000, MaxBacklog: 10 * time.Millisecond})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	c.Join("239.1.1.1:5004")
	sim.Go("recv", func() {
		for {
			if _, err := c.Recv(100 * time.Millisecond); err != nil {
				return
			}
		}
	})
	sim.Go("send", func() {
		for i := 0; i < 200; i++ {
			src.Send("239.1.1.1:5004", make([]byte, 1400))
		}
	})
	sim.WaitIdle()
	st := seg.Stats()
	if st.DroppedBusy == 0 {
		t.Fatal("no saturation drops at 20x overload")
	}
	if st.PacketsTx+st.DroppedBusy != 200 {
		t.Fatalf("tx=%d + busy=%d != 200", st.PacketsTx, st.DroppedBusy)
	}
}

func TestSegmentQueueOverflow(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{QueueLen: 4})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	c.Join("239.1.1.1:5004")
	// Nobody reads; queue holds 4, the rest drop.
	sim.Go("send", func() {
		for i := 0; i < 10; i++ {
			src.Send("239.1.1.1:5004", []byte("x"))
			sim.Sleep(time.Millisecond)
		}
	})
	sim.WaitIdle()
	st := seg.Stats()
	if st.DroppedQueue != 6 {
		t.Fatalf("queue drops = %d, want 6", st.DroppedQueue)
	}
}

func TestSegmentJitterSpreadsArrival(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{Latency: time.Millisecond, Jitter: 10 * time.Millisecond, Seed: 3})
	src, _ := seg.Attach("10.0.0.1:5000")
	c, _ := seg.Attach("10.0.0.2:5004")
	c.Join("239.1.1.1:5004")
	var delays []time.Duration
	sim.Go("recv", func() {
		for {
			p, err := c.Recv(time.Second)
			if err != nil {
				return
			}
			delays = append(delays, p.Recv.Sub(p.Sent))
		}
	})
	sim.Go("send", func() {
		for i := 0; i < 100; i++ {
			src.Send("239.1.1.1:5004", []byte("x"))
			sim.Sleep(20 * time.Millisecond)
		}
	})
	sim.WaitIdle()
	if len(delays) != 100 {
		t.Fatalf("got %d", len(delays))
	}
	min, max := delays[0], delays[0]
	for _, d := range delays {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < time.Millisecond {
		t.Fatalf("min delay %v below latency", min)
	}
	if max-min < 5*time.Millisecond {
		t.Fatalf("jitter spread only %v", max-min)
	}
	if max > 11*time.Millisecond {
		t.Fatalf("max delay %v exceeds latency+jitter", max)
	}
}

func TestSegmentRejects(t *testing.T) {
	_, seg := newSeg(t, SegmentConfig{})
	if _, err := seg.Attach("239.1.1.1:5000"); err == nil {
		t.Fatal("attached to multicast address")
	}
	if _, err := seg.Attach("garbage"); err == nil {
		t.Fatal("attached to garbage address")
	}
	a, _ := seg.Attach("10.0.0.1:5000")
	if _, err := seg.Attach("10.0.0.1:5000"); err == nil {
		t.Fatal("duplicate attach allowed")
	}
	if err := a.Join("10.0.0.2:5000"); err == nil {
		t.Fatal("joined a unicast address")
	}
	if err := a.Send("10.0.0.2:5000", make([]byte, MaxDatagram+1)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

func TestSegmentCloseUnblocksRecv(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	c, _ := seg.Attach("10.0.0.1:5000")
	var err error
	sim.Go("recv", func() {
		_, err = c.Recv(0)
	})
	sim.Go("closer", func() {
		sim.Sleep(time.Millisecond)
		c.Close()
	})
	sim.WaitIdle()
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := c.Send("10.0.0.2:5000", []byte("x")); err != ErrClosed {
		t.Fatalf("send on closed = %v", err)
	}
	if err := c.Close(); err != ErrClosed {
		t.Fatalf("double close = %v", err)
	}
}

func TestSegmentRecvTimeout(t *testing.T) {
	sim, seg := newSeg(t, SegmentConfig{})
	c, _ := seg.Attach("10.0.0.1:5000")
	start := sim.Now()
	var err error
	var at time.Duration
	sim.Go("recv", func() {
		_, err = c.Recv(25 * time.Millisecond)
		at = sim.Since(start)
	})
	sim.WaitIdle()
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if at != 25*time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
}

// BenchmarkSegmentMulticast prices the simulated segment's fan-out of
// one 1400-byte multicast datagram to eight draining receivers.
// Cleanup closes every endpoint and waits for the simulation to go
// idle, so no drain task or pending delivery outlives the bench.
func BenchmarkSegmentMulticast(b *testing.B) {
	sim := vclock.NewSim(time.Time{})
	seg := NewSegment(sim, SegmentConfig{})
	src, err := seg.Attach("10.0.0.1:5000")
	if err != nil {
		b.Fatal(err)
	}
	conns := []Conn{src}
	b.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		sim.WaitIdle()
	})
	group := Addr("239.1.1.1:5004")
	for i := 0; i < 8; i++ {
		c, err := seg.Attach(Addr(fmt.Sprintf("10.0.0.%d:5004", 2+i)))
		if err != nil {
			b.Fatal(err)
		}
		conns = append(conns, c)
		if err := c.Join(group); err != nil {
			b.Fatal(err)
		}
		sim.Go("drain", func() {
			for {
				if _, err := c.Recv(0); err != nil {
					return
				}
			}
		})
	}
	payload := make([]byte, 1400)
	b.ReportAllocs()
	b.SetBytes(1400 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(group, payload); err != nil {
			b.Fatal(err)
		}
	}
}
