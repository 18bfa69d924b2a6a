package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// E12Row is one batched fan-out configuration's ordering audit.
type E12Row struct {
	Subscribers int
	Packets     int     // sequenced data packets pushed upstream
	Received    int64   // data packets that reached subscribers
	Reordered   int64   // per-subscriber sequence inversions (must be 0)
	Gaps        int64   // sequence holes across all subscribers
	Batches     int64   // WriteBatch flushes the relay issued
	AvgBatch    float64 // datagrams per flush actually achieved
}

// E12Result is the outcome of the batching-order experiment.
type E12Result struct{ Rows []E12Row }

// E12BatchOrder validates the batched fan-out path's ordering contract:
// however aggressively the relay coalesces datagrams into WriteBatch
// flushes, a subscriber's stream must never be reordered — each shard
// worker drains per-subscriber queues FIFO and a batch preserves slice
// order, so sequence numbers arrive strictly increasing at every
// subscriber. The producer sends bursts (packets queued back-to-back)
// precisely to force multi-packet batches.
func E12BatchOrder(w io.Writer, counts []int) E12Result {
	if len(counts) == 0 {
		counts = []int{8, 64, 256}
	}
	section(w, "E12 (batch order)", "batched relay fan-out preserves per-subscriber order")
	var res E12Result
	for _, n := range counts {
		res.Rows = append(res.Rows, e12Run(n, 200))
	}
	tab := stats.Table{Headers: []string{"subscribers", "packets", "received", "reordered", "gaps", "batches", "avg batch"}}
	for _, r := range res.Rows {
		tab.AddRow(r.Subscribers, r.Packets, r.Received, r.Reordered, r.Gaps,
			r.Batches, fmt.Sprintf("%.1f", r.AvgBatch))
	}
	tab.Render(w)
	fmt.Fprintf(w, "  reordered must be 0: batching may delay a packet, never overtake one\n")
	return res
}

func e12Run(n, packets int) E12Row {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	rconn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		return E12Row{Subscribers: n}
	}
	r, err := relay.New(sim, rconn, relay.Config{
		Group: groupA, Channel: 1,
		MaxSubscribers: n,
		QueueLen:       2 * packets, // ordering audit, not a drop test
	})
	if err != nil {
		return E12Row{Subscribers: n}
	}
	sim.Go("relay", r.Run)

	seqs := make([][]uint64, n) // each drain task owns its slice
	conns := make([]lan.Conn, n)
	for i := 0; i < n; i++ {
		conn, err := seg.Attach(lan.Addr(fmt.Sprintf("10.0.%d.%d:5004", 1+i/250, 1+i%250)))
		if err != nil {
			return E12Row{Subscribers: n}
		}
		conns[i] = conn
		i := i
		sim.Go("sub", func() {
			for {
				pkt, err := conn.Recv(0)
				if err != nil {
					return
				}
				if d, err := proto.UnmarshalData(pkt.Data); err == nil {
					seqs[i] = append(seqs[i], d.Seq)
				}
			}
		})
	}

	producer, err := seg.Attach("10.0.0.2:5000")
	if err != nil {
		return E12Row{Subscribers: n}
	}
	sim.Go("producer", func() {
		sub, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 600000}).Marshal()
		for _, c := range conns {
			c.Send(r.Addr(), sub)
		}
		for r.NumSubscribers() < n {
			sim.Sleep(5 * time.Millisecond)
		}
		// Bursts of 20 back-to-back packets: subscriber queues hold
		// several packets at once, so flushes carry real batches.
		payload := make([]byte, 256)
		for s := 1; s <= packets; s++ {
			data, _ := (&proto.Data{Channel: 1, Epoch: 1, Seq: uint64(s), Payload: payload}).Marshal()
			producer.Send(groupA, data)
			if s%20 == 0 {
				sim.Sleep(10 * time.Millisecond)
			}
		}
		sim.Sleep(100 * time.Millisecond)
		r.Stop()
		for _, c := range conns {
			c.Close()
		}
		producer.Close()
	})
	sim.WaitIdle()

	row := E12Row{Subscribers: n, Packets: packets}
	for _, ss := range seqs {
		row.Received += int64(len(ss))
		var prev uint64
		for _, s := range ss {
			if s <= prev && prev != 0 {
				row.Reordered++
			} else if prev != 0 && s != prev+1 {
				row.Gaps += int64(s - prev - 1)
			}
			prev = s
		}
	}
	st := r.Stats()
	row.Batches = st.Batches
	if st.Batches > 0 {
		row.AvgBatch = float64(st.FanoutSent) / float64(st.Batches)
	}
	return row
}
