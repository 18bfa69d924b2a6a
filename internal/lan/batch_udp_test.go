package lan

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWriteBatchConcurrentWriters runs eight writers through one UDP
// conn at once, each with its own two loopback receivers (the way a
// relay's shard workers share its socket, each subscriber in one
// shard). Every datagram must arrive, in order per destination, from
// the conn's own address.
func TestWriteBatchConcurrentWriters(t *testing.T) {
	const (
		writers  = 8
		perWrite = 2   // receivers per writer
		batches  = 100 // per writer
		perBatch = 16  // datagrams per batch, alternating receivers
		window   = 4   // batches a writer may run ahead of its receivers
	)
	netw := &UDPNetwork{}
	src, err := netw.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer src.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		rcv := make([]Conn, perWrite)
		for i := range rcv {
			if rcv[i], err = netw.Attach("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer rcv[i].Close()
		}
		// acks carries one token per datagram received: the writer's
		// flow control, so no receive buffer can overflow. It has room
		// for every datagram, so a receiver never blocks on it.
		acks := make(chan struct{}, batches*perBatch)
		for _, c := range rcv {
			wg.Add(1)
			go func(c Conn, want int) {
				defer wg.Done()
				for seq := 0; seq < want; seq++ {
					pkt, err := c.Recv(5 * time.Second)
					if err != nil {
						t.Errorf("%s: datagram %d of %d: %v", c.LocalAddr(), seq, want, err)
						return
					}
					if pkt.From != src.LocalAddr() {
						t.Errorf("%s: datagram from %s, want the sender's %s", c.LocalAddr(), pkt.From, src.LocalAddr())
						return
					}
					if got := int(binary.BigEndian.Uint32(pkt.Data)); got != seq {
						t.Errorf("%s: datagram %d arrived as number %d", c.LocalAddr(), got, seq)
						return
					}
					acks <- struct{}{}
				}
			}(c, batches*perBatch/perWrite)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			seqs := make([]uint32, perWrite)
			acked := 0
			for k := 0; k < batches; k++ {
				for ; acked < (k-window)*perBatch; acked++ {
					select {
					case <-acks:
					case <-time.After(5 * time.Second):
						t.Errorf("writer stalled at batch %d: receivers stopped acknowledging", k)
						return
					}
				}
				batch := make([]Datagram, perBatch)
				for j := range batch {
					to := j % perWrite
					data := make([]byte, 64)
					binary.BigEndian.PutUint32(data, seqs[to])
					seqs[to]++
					batch[j] = Datagram{To: rcv[to].LocalAddr(), Data: data}
				}
				if n, err := WriteBatch(src, batch); n != len(batch) || err != nil {
					t.Errorf("WriteBatch = %d, %v; want %d, nil", n, err, len(batch))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWriteBatchCloseWhileSending closes a conn while eight writers are
// mid-batch. Every call returns a count within its batch and either
// nil (having sent the whole batch) or an error; none panics or hangs,
// and every writer sees the close.
func TestWriteBatchCloseWhileSending(t *testing.T) {
	const writers = 8
	netw := &UDPNetwork{}
	src, err := netw.Attach("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	sink, err := netw.Attach("127.0.0.1:0") // never read: the kernel drops
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	batch := make([]Datagram, 32)
	for i := range batch {
		batch[i] = Datagram{To: sink.LocalAddr(), Data: make([]byte, 160)}
	}
	var calls atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, err := WriteBatch(src, batch)
				calls.Add(1)
				if n < 0 || n > len(batch) || (err == nil && n != len(batch)) {
					t.Errorf("WriteBatch = %d, %v for a batch of %d", n, err, len(batch))
				}
				if err != nil {
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for calls.Load() < 8*writers {
		select {
		case <-done:
			t.Fatal("writers stopped before the close")
		default:
			runtime.Gosched()
		}
	}
	src.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writers still sending 10s after Close")
	}
}

// BenchmarkWriteBatch prices one conn's batched send with 1, 2 and 8
// goroutines writing through it at once: a 32-datagram batch, one
// datagram to each of 32 loopback sinks that never read (the kernel
// delivers into their queues, then drops). ns/pkt is wall time per
// datagram across all writers, so writers that run in parallel lower
// it and writers that queue behind one another do not.
func BenchmarkWriteBatch(b *testing.B) {
	const sinks = 32
	netw := &UDPNetwork{}
	src, err := netw.Attach("127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback UDP: %v", err)
	}
	defer src.Close()
	batch := make([]Datagram, sinks)
	for i := range batch {
		c, err := netw.Attach("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		batch[i] = Datagram{To: c.LocalAddr(), Data: make([]byte, 172)}
	}
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := WriteBatch(src, batch); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sinks), "ns/pkt")
		})
	}
}
