package lan

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/vclock"
)

// SegmentConfig parameterizes a simulated Ethernet segment.
type SegmentConfig struct {
	// BandwidthBps is the shared medium capacity in bits per second
	// (10e6 for legacy Ethernet, 100e6 for fast Ethernet). 0 means
	// infinite.
	BandwidthBps int64
	// Latency is the fixed propagation + stack delay per packet.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per delivery.
	Jitter time.Duration
	// Loss is the independent per-delivery drop probability [0, 1).
	Loss float64
	// QueueLen bounds each receiver's socket buffer in packets; overflow
	// is tail-dropped. 0 means the default of 256.
	QueueLen int
	// MaxBacklog bounds the shared-medium transmit backlog; a sender that
	// would queue further behind than this has its packet dropped
	// (saturation). 0 means 100 ms.
	MaxBacklog time.Duration
	// Seed makes loss and jitter reproducible. 0 picks a fixed default.
	Seed uint64
	// FrameOverhead is added to every packet's size for serialization
	// time: Ethernet + IP + UDP headers. 0 means the realistic 46 bytes.
	FrameOverhead int
}

// SegmentStats is the segment's cumulative accounting.
type SegmentStats struct {
	PacketsSent    int64 // Send calls accepted
	PacketsTx      int64 // packets that made it onto the wire
	Deliveries     int64 // per-receiver successful deliveries
	BytesTx        int64 // payload bytes transmitted
	WireBytesTx    int64 // payload + frame overhead
	DroppedLoss    int64 // random loss
	DroppedQueue   int64 // receiver queue overflow
	DroppedBusy    int64 // medium saturated (backlog exceeded)
	DroppedNoRoute int64 // no such destination / empty group
}

// Segment is a simulated shared Ethernet segment with native multicast:
// every packet sent to a group is delivered to all joined endpoints, at
// the same transmission-end time plus per-receiver latency and jitter —
// the "everybody receives a multicast packet at the same time"
// assumption of §3.2, with knobs to break it.
type Segment struct {
	clock vclock.Clock
	cfg   SegmentConfig

	mu        sync.Mutex
	nodes     map[Addr]*segConn
	groups    map[Addr]map[*segConn]struct{}
	busyUntil time.Time
	rng       uint64
	nextPort  int // ephemeral-port allocator for ":0" binds
	stats     SegmentStats
}

// NewSegment creates a segment on the given clock.
func NewSegment(clock vclock.Clock, cfg SegmentConfig) *Segment {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 100 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x243F6A8885A308D3
	}
	if cfg.FrameOverhead == 0 {
		cfg.FrameOverhead = 46
	}
	return &Segment{
		clock:    clock,
		cfg:      cfg,
		nodes:    make(map[Addr]*segConn),
		groups:   make(map[Addr]map[*segConn]struct{}),
		rng:      cfg.Seed,
		nextPort: 49152, // IANA dynamic range, like a real ephemeral bind
	}
}

var _ Network = (*Segment)(nil)

// Attach implements Network. A port of 0 binds an unused ephemeral
// port, mirroring a real UDP bind to ":0": a client-side socket gets an
// address that never collides with a configured listener.
func (s *Segment) Attach(local Addr) (Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if local.Port() == 0 && net.ParseIP(local.Host()) != nil {
		host := local.Host()
		found := false
		for tries := 0; tries < 65536-49152; tries++ {
			cand := Addr(net.JoinHostPort(host, fmt.Sprint(s.nextPort)))
			s.nextPort++
			if s.nextPort > 65535 {
				s.nextPort = 49152
			}
			if _, dup := s.nodes[cand]; !dup {
				local, found = cand, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lan: no free ephemeral port on %q", host)
		}
	}
	if err := local.Validate(); err != nil {
		return nil, err
	}
	if local.IsMulticast() {
		return nil, fmt.Errorf("lan: cannot bind to multicast address %q", local)
	}
	if _, dup := s.nodes[local]; dup {
		return nil, fmt.Errorf("lan: address %q already attached", local)
	}
	c := &segConn{seg: s, local: local, max: s.cfg.QueueLen}
	c.notEmpty = s.clock.NewCond()
	s.nodes[local] = c
	return c, nil
}

// Stats returns a snapshot of the segment accounting.
func (s *Segment) Stats() SegmentStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// nextRand is a xorshift64 step; caller holds s.mu.
func (s *Segment) nextRand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// randFloat returns a uniform [0,1) float; caller holds s.mu.
func (s *Segment) randFloat() float64 {
	return float64(s.nextRand()>>11) / (1 << 53)
}

// delivery is one scheduled hand-off to a receiver, produced under the
// segment lock and armed after it is released.
type delivery struct {
	dst   *segConn
	delay time.Duration
	pkt   Packet // Data filled in at arm time (one copy per receiver)
	data  []byte
}

// send transmits from c. It models the shared medium: serialization time
// at the configured bandwidth, a bounded transmit backlog, then fan-out
// to receivers with independent loss and jitter.
func (s *Segment) send(c *segConn, to Addr, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("lan: datagram of %d bytes exceeds limit %d", len(data), MaxDatagram)
	}
	s.mu.Lock()
	dels := s.sendLocked(c, to, data, nil)
	s.mu.Unlock()
	s.arm(dels)
	return nil
}

// sendBatch transmits a whole batch from c under one lock acquisition —
// the simulated counterpart of sendmmsg. Deliveries are armed after the
// lock drops, in batch order, so per-receiver FIFO order is identical
// to a loop of Sends.
func (s *Segment) sendBatch(c *segConn, batch []Datagram) (int, error) {
	var dels []delivery
	s.mu.Lock()
	for i, d := range batch {
		if len(d.Data) > MaxDatagram {
			s.mu.Unlock()
			s.arm(dels)
			return i, fmt.Errorf("lan: datagram of %d bytes exceeds limit %d", len(d.Data), MaxDatagram)
		}
		if err := d.To.Validate(); err != nil {
			s.mu.Unlock()
			s.arm(dels)
			return i, err
		}
		dels = s.sendLocked(c, d.To, d.Data, dels)
	}
	s.mu.Unlock()
	s.arm(dels)
	return len(batch), nil
}

// sendLocked runs the shared-medium model for one datagram and appends
// its deliveries; the caller holds s.mu and arms them after unlocking.
func (s *Segment) sendLocked(c *segConn, to Addr, data []byte, dels []delivery) []delivery {
	now := s.clock.Now()
	s.stats.PacketsSent++

	// Serialization on the shared medium.
	txStart := now
	if s.busyUntil.After(txStart) {
		txStart = s.busyUntil
	}
	if txStart.Sub(now) > s.cfg.MaxBacklog {
		s.stats.DroppedBusy++
		return dels // dropped on the floor, like Ethernet under saturation
	}
	wireLen := len(data) + s.cfg.FrameOverhead
	var txTime time.Duration
	if s.cfg.BandwidthBps > 0 {
		txTime = time.Duration(int64(wireLen) * 8 * int64(time.Second) / s.cfg.BandwidthBps)
	}
	txEnd := txStart.Add(txTime)
	s.busyUntil = txEnd
	s.stats.PacketsTx++
	s.stats.BytesTx += int64(len(data))
	s.stats.WireBytesTx += int64(wireLen)

	// Resolve receivers in a stable order: a real switch delivers one
	// sender's packets to each port in transmission order, and the
	// simulation must not leak map-iteration randomness into delivery
	// order at equal timestamps.
	var dests []*segConn
	if to.IsMulticast() {
		for dst := range s.groups[to] {
			dests = append(dests, dst)
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i].local < dests[j].local })
	} else if dst, ok := s.nodes[to]; ok {
		dests = append(dests, dst)
	}
	if len(dests) == 0 {
		s.stats.DroppedNoRoute++
		return dels
	}

	for _, dst := range dests {
		if dst == c && to.IsMulticast() {
			continue // no local loopback of own multicast
		}
		if s.cfg.Loss > 0 && s.randFloat() < s.cfg.Loss {
			s.stats.DroppedLoss++
			continue
		}
		delay := s.cfg.Latency
		if s.cfg.Jitter > 0 {
			delay += time.Duration(s.randFloat() * float64(s.cfg.Jitter))
		}
		dels = append(dels, delivery{
			dst:   dst,
			delay: txEnd.Add(delay).Sub(now),
			pkt:   Packet{From: c.local, To: to, Sent: now},
			data:  data,
		})
	}
	return dels
}

// arm schedules the deliveries. AfterFunc arms each timer synchronously,
// so deliveries to one receiver keep the sender's transmission order
// even at identical timestamps (switch FIFO semantics). Consecutive
// deliveries with the same delay share one timer event — the simulated
// counterpart of a batched send handing the kernel many datagrams in
// one crossing; per-receiver order within the group is slice order,
// exactly as if armed one by one.
func (s *Segment) arm(dels []delivery) {
	for i := 0; i < len(dels); {
		j := i + 1
		for j < len(dels) && dels[j].delay == dels[i].delay {
			j++
		}
		group := dels[i:j]
		pkts := make([]Packet, len(group))
		for k, d := range group {
			pkts[k] = d.pkt
			pkts[k].Data = append([]byte(nil), d.data...)
		}
		s.clock.AfterFunc(group[0].delay, "lan-deliver", func() {
			now := s.clock.Now()
			var delivered, dropped int64
			for k, d := range group {
				p := pkts[k]
				p.Recv = now
				if d.dst.enqueue(p) {
					delivered++
				} else {
					dropped++
				}
			}
			s.mu.Lock()
			s.stats.Deliveries += delivered
			s.stats.DroppedQueue += dropped
			s.mu.Unlock()
		})
		i = j
	}
}

// segConn is one endpoint on the segment.
type segConn struct {
	seg   *Segment
	local Addr

	mu       sync.Mutex
	notEmpty vclock.Cond
	queue    []Packet
	max      int
	closed   bool
}

func (c *segConn) LocalAddr() Addr { return c.local }

func (c *segConn) Send(to Addr, data []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := to.Validate(); err != nil {
		return err
	}
	return c.seg.send(c, to, data)
}

// WriteBatch implements BatchWriter: the whole batch goes through the
// shared-medium model under a single segment lock acquisition.
func (c *segConn) WriteBatch(batch []Datagram) (int, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	return c.seg.sendBatch(c, batch)
}

// enqueue delivers a packet into the receive queue, reporting false on
// overflow or closure.
func (c *segConn) enqueue(p Packet) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.queue) >= c.max {
		return false
	}
	c.queue = append(c.queue, p)
	c.notEmpty.Broadcast()
	return true
}

func (c *segConn) Recv(timeout time.Duration) (Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.queue) > 0 {
			p := c.queue[0]
			c.queue = c.queue[1:]
			return p, nil
		}
		if c.closed {
			return Packet{}, ErrClosed
		}
		if timeout > 0 {
			if !c.notEmpty.WaitTimeout(&c.mu, timeout) {
				return Packet{}, ErrTimeout
			}
			// Signaled: loop re-checks the queue; remaining timeout is
			// not re-armed, which is acceptable for our callers (they
			// treat the timeout as a coarse liveness bound).
			continue
		}
		c.notEmpty.Wait(&c.mu)
	}
}

func (c *segConn) Join(group Addr) error {
	if !group.IsMulticast() {
		return fmt.Errorf("lan: %q is not a multicast group", group)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	s := c.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.groups[group] == nil {
		s.groups[group] = make(map[*segConn]struct{})
	}
	s.groups[group][c] = struct{}{}
	return nil
}

func (c *segConn) Leave(group Addr) error {
	s := c.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	if members, ok := s.groups[group]; ok {
		delete(members, c)
		if len(members) == 0 {
			delete(s.groups, group)
		}
	}
	return nil
}

func (c *segConn) Close() error {
	s := c.seg
	s.mu.Lock()
	delete(s.nodes, c.local)
	for g, members := range s.groups {
		delete(members, c)
		if len(members) == 0 {
			delete(s.groups, g)
		}
	}
	s.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	c.queue = nil
	c.notEmpty.Broadcast()
	return nil
}
