package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/stats"
	"repro/internal/vad"
)

// E13Result is the outcome of the relay-chaining experiment.
type E13Result struct {
	Hops          int   // relay hops the delivered stream crossed
	DataAtLastHop int64 // channel-1 data packets at the end of the chain
	LeakPackets   int64 // channel-2 packets at a channel-1 subscriber (must be 0)
	Discovered    bool  // first hop found through the catalog
	LoopRefusals  int64 // SubLoop refusals issued by the deliberate cycle
	LoopRefused   int64 // upstream leases refused inside the cycle
	// AddedDelay is what the chain costs a listener in synchronisation:
	// the median, over channel-1 data packets, of arrival at the
	// subscriber behind the chain minus arrival of the same (epoch, seq)
	// at a listener on the group, on the simulated clock. §3.2 anchors
	// the producer's clock at arrival, so this is skew between the two.
	AddedDelay time.Duration
}

// e13MaxAddedDelay bounds E13's added delay: three hops of 100 µs
// segment latency cost 300 µs, and a relay holding live packets on a
// millisecond timer would cost more than this.
const e13MaxAddedDelay = 2 * time.Millisecond

// E13Chain validates relay chaining end to end: a 3-hop relay chain
// (group -> r1 -> r2 -> r3 -> subscriber) delivers the multicast
// stream across segments, the first hop is discovered through the §4.3
// catalog, a channel-1 subscriber on the channel-0 chain receives zero
// channel-2 packets, and a deliberately configured relay cycle is
// refused with SubLoop instead of forwarding forever. It also measures
// what the chain adds to a packet's arrival time over a listener on the
// group: the hops' segment latencies and nothing else — no relay holds a
// live packet on a timer.
func E13Chain(w io.Writer, hops int) E13Result {
	if hops <= 0 {
		hops = 3
	}
	section(w, "E13 (chain)", "multi-hop relay chaining, discovery, and loop refusal")
	res := e13Run(hops)
	tab := stats.Table{Headers: []string{"hops", "data@last-hop", "leaked", "discovered", "loop refusals", "loop refused", "added delay"}}
	tab.AddRow(res.Hops, res.DataAtLastHop, res.LeakPackets,
		fmt.Sprint(res.Discovered), res.LoopRefusals, res.LoopRefused, res.AddedDelay)
	tab.Render(w)
	fmt.Fprintf(w, "  leaked must be 0 (per-subscriber channel filter) and loop refusals nonzero (SubLoop)\n")
	fmt.Fprintf(w, "  added delay (chain subscriber vs group listener, median) must stay below %v\n", e13MaxAddedDelay)
	return res
}

func e13Run(hops int) E13Result {
	res := E13Result{Hops: hops}
	sys := core.NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	if err := sys.StartCatalog(200 * time.Millisecond); err != nil {
		return res
	}
	// One group carrying two channels: the chain relays everything
	// (channel 0), subscribers lease a single channel.
	ch1, err := sys.AddChannel(rebroadcast.Config{ID: 1, Name: "wanted", Group: groupA, Codec: "raw"}, vad.Config{})
	if err != nil {
		return res
	}
	ch2, err := sys.AddChannel(rebroadcast.Config{ID: 2, Name: "other", Group: groupA, Codec: "raw"}, vad.Config{})
	if err != nil {
		return res
	}
	first, err := sys.AddRelay(relay.Config{Group: groupA})
	if err != nil {
		return res
	}
	last := first
	for i := 1; i < hops; i++ {
		r, err := sys.AddRelay(relay.Config{Upstream: last.Addr()})
		if err != nil {
			return res
		}
		last = r
	}

	// The deliberate cycle, off to the side of the working chain.
	la, err := sys.Net.Attach("10.0.99.1:5006")
	if err != nil {
		return res
	}
	lb, err := sys.Net.Attach("10.0.99.2:5006")
	if err != nil {
		return res
	}
	loopA, err := relay.New(sys.Clock, la, relay.Config{Upstream: "10.0.99.2:5006", UpstreamLease: 2 * time.Second})
	if err != nil {
		return res
	}
	loopB, err := relay.New(sys.Clock, lb, relay.Config{Upstream: "10.0.99.1:5006", UpstreamLease: 2 * time.Second})
	if err != nil {
		return res
	}
	sys.Clock.Go("loop-a", loopA.Run)
	sys.Clock.Go("loop-b", loopB.Run)

	// A channel-1 subscriber at the end of the chain, counting what it
	// is actually sent.
	sub, err := sys.Net.Attach("10.0.98.1:5004")
	if err != nil {
		return res
	}
	counts := make(map[uint32]int64)
	type packetID struct {
		epoch uint32
		seq   uint64
	}
	behindChain := make(map[packetID]time.Time) // channel-1 arrivals at sub
	onGroup := make(map[packetID]time.Time)     // and at a listener on the group
	lastAddr := last.Addr()
	sys.Clock.Go("subscriber", func() {
		req, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		if err := sub.Send(lastAddr, req); err != nil {
			return
		}
		for {
			pkt, err := sub.Recv(0)
			if err != nil {
				return
			}
			if d, err := proto.UnmarshalData(pkt.Data); err == nil {
				counts[d.Channel]++
				if d.Channel == 1 {
					behindChain[packetID{d.Epoch, d.Seq}] = pkt.Recv
				}
			}
		}
	})
	listener, err := sys.Net.Attach("10.0.98.3:5004")
	if err != nil {
		return res
	}
	if err := listener.Join(groupA); err != nil {
		return res
	}
	sys.Clock.Go("group-listener", func() {
		for {
			pkt, err := listener.Recv(0)
			if err != nil {
				return
			}
			if d, err := proto.UnmarshalData(pkt.Data); err == nil && d.Channel == 1 {
				onGroup[packetID{d.Epoch, d.Seq}] = pkt.Recv
			}
		}
	})

	var discovered proto.RelayInfo
	var discoverErr error
	p := mono16
	sys.Clock.Go("player", func() {
		discovered, discoverErr = relay.Discover(sys.Clock, sys.Net, "10.0.98.2:5003",
			core.CatalogGroup, 1, 5*time.Second, nil, nil)
		sys.Clock.Go("audio-1", func() {
			ch1.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), 4*time.Second)
		})
		sys.Clock.Go("audio-2", func() {
			ch2.Play(p, audio.NewTone(p.SampleRate, p.Channels, 880, 0.5), 4*time.Second)
		})
		sys.Clock.Sleep(8 * time.Second) // several loop refresh cycles
		loopA.Stop()
		loopB.Stop()
		sys.Shutdown()
		sub.Close()
		listener.Close()
	})
	sys.Sim.WaitIdle()

	res.DataAtLastHop = counts[1]
	res.LeakPackets = counts[2]
	res.Discovered = discoverErr == nil && discovered.Addr != ""
	var added []float64
	for id, at := range behindChain {
		if ref, ok := onGroup[id]; ok {
			added = append(added, float64(at.Sub(ref)))
		}
	}
	res.AddedDelay = time.Duration(stats.Summarize(added).P50)
	sa, sb := loopA.Stats(), loopB.Stats()
	res.LoopRefusals = sa.Loops + sb.Loops
	res.LoopRefused = sa.UpstreamRefused + sb.UpstreamRefused
	return res
}
