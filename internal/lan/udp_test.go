package lan

import (
	"testing"
	"time"
)

// UDP backend smoke tests. They exercise the real-socket path over
// loopback; environments without loopback UDP skip.

func TestUDPUnicastLoopback(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	b, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer b.Close()

	done := make(chan Packet, 1)
	go func() {
		p, err := b.Recv(2 * time.Second)
		if err == nil {
			done <- p
		}
		close(done)
	}()
	// Give the receiver a beat to start its read loop.
	time.Sleep(20 * time.Millisecond)
	if err := a.Send(b.LocalAddr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p, ok := <-done
	if !ok {
		t.Fatal("receive failed")
	}
	if string(p.Data) != "ping" {
		t.Fatalf("got %q", p.Data)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	if _, err := a.Recv(50 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv(0)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestUDPOversizedRejected(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	if err := a.Send("127.0.0.1:9", make([]byte, MaxDatagram+1)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

func TestUDPMulticastLoopback(t *testing.T) {
	n := &UDPNetwork{}
	recv, err := n.Attach("0.0.0.0:0")
	if err != nil {
		t.Skipf("no UDP: %v", err)
	}
	defer recv.Close()
	group := Addr("239.72.99.1:15004")
	if err := recv.Join(group); err != nil {
		t.Skipf("multicast join unavailable: %v", err)
	}
	send, err := n.Attach("0.0.0.0:0")
	if err != nil {
		t.Skip("no UDP")
	}
	defer send.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			p, err := recv.Recv(200 * time.Millisecond)
			if err != nil {
				return
			}
			if string(p.Data) == "mc-ping" {
				done <- struct{}{}
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 5; i++ {
		send.Send(group, []byte("mc-ping"))
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case _, ok := <-done:
		if !ok {
			t.Skip("multicast loopback not available in this environment")
		}
	case <-time.After(2 * time.Second):
		t.Skip("multicast loopback not available in this environment")
	}
}

// TestUDPInboxOverflowCounted: a reader that outruns Recv tail-drops at
// the conn's inbox; every such packet must show up in
// RecvBatchStats().Dropped instead of vanishing.
func TestUDPInboxOverflowCounted(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	b, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer b.Close()
	// Start b's read loop, then leave its inbox undrained.
	if _, err := b.Recv(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	const sent = 400 // the inbox holds 256
	for i := 0; i < sent; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // stay inside the kernel's socket buffer
		}
	}
	drained := 0
	for {
		if _, err := b.Recv(100 * time.Millisecond); err != nil {
			break
		}
		drained++
	}
	dropped := b.(RecvBatcher).RecvBatchStats().Dropped
	if dropped == 0 || int64(drained)+dropped != sent {
		t.Fatalf("drained %d + dropped %d, want %d in total with some dropped", drained, dropped, sent)
	}
}

// TestUDPRecvQueuedAllocatesNothing: taking a packet that already waits
// in the inbox arms no timer, so it allocates nothing.
func TestUDPRecvQueuedAllocatesNothing(t *testing.T) {
	n := &UDPNetwork{}
	a, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	b, err := n.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer b.Close()
	// Start b's read loop, then queue one packet a run (AllocsPerRun
	// makes one warm-up call more).
	if _, err := b.Recv(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	const runs = 50
	for i := 0; i <= runs; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inbox := b.(*udpConn).inbox
	for deadline := time.Now().Add(2 * time.Second); len(inbox) <= runs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packets reached the inbox", len(inbox), runs+1)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := b.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Recv of a queued packet: %.1f allocations, want 0", allocs)
	}
}
