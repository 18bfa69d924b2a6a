package lan

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// UDPNetwork is the real-network backend: endpoints are UDP sockets and
// multicast groups are real IGMP joins via net.ListenMulticastUDP. It
// lets the daemons in cmd/ run on an actual Ethernet segment with the
// same code paths the simulation exercises.
type UDPNetwork struct {
	// Interface optionally pins multicast joins to a specific interface.
	Interface *net.Interface
}

var _ Network = (*UDPNetwork)(nil)

// Attach implements Network. local's host selects the bind address
// ("0.0.0.0:5004" binds all interfaces).
func (n *UDPNetwork) Attach(local Addr) (Conn, error) {
	laddr, err := net.ResolveUDPAddr("udp4", string(local))
	if err != nil {
		return nil, fmt.Errorf("lan: resolving %q: %w", local, err)
	}
	sock, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("lan: binding %q: %w", local, err)
	}
	rc, err := sock.SyscallConn()
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("lan: binding %q: %w", local, err)
	}
	return &udpConn{
		net:   n,
		local: Addr(sock.LocalAddr().String()),
		sock:  sock,
		rc:    rc,
		joins: make(map[Addr]*net.UDPConn),
		done:  make(chan struct{}),
	}, nil
}

type udpConn struct {
	net   *UDPNetwork
	local Addr
	sock  *net.UDPConn
	// rc is sock's raw descriptor, taken once: SyscallConn allocates.
	rc syscall.RawConn

	// Batched-receive accounting (recvmmsg passes; Linux only).
	recvBatches atomic.Int64
	recvPackets atomic.Int64
	// inboxDropped counts packets tail-dropped at a full inbox.
	inboxDropped atomic.Int64

	mu     sync.Mutex
	joins  map[Addr]*net.UDPConn
	closed bool
	done   chan struct{} // closed by Close; unblocks Recv
	// fan-in of unicast + group sockets
	inbox   chan Packet
	started bool
}

func (c *udpConn) LocalAddr() Addr { return c.local }

// startLocked lazily spins up reader goroutines on first Recv/Join.
func (c *udpConn) startLocked() {
	if c.started {
		return
	}
	c.started = true
	c.inbox = make(chan Packet, 256)
	go c.readLoop(c.sock, c.local)
}

func (c *udpConn) readLoop(sock *net.UDPConn, to Addr) {
	if c.readLoopBatched(sock, to) {
		return // the recvmmsg loop ran to socket close
	}
	buf := make([]byte, 64*1024)
	for {
		n, from, err := sock.ReadFromUDP(buf)
		if err != nil {
			return
		}
		pkt := Packet{
			From: Addr(from.String()),
			To:   to,
			Data: append([]byte(nil), buf[:n]...),
			Recv: time.Now(),
		}
		if !c.deliver(pkt) {
			return
		}
	}
}

// deliver hands one received packet to the inbox, tail-dropping on
// overflow like a socket buffer; it reports false once the conn is
// closed and the read loop should exit.
func (c *udpConn) deliver(pkt Packet) bool {
	c.mu.Lock()
	closed := c.closed
	inbox := c.inbox
	c.mu.Unlock()
	if closed {
		return false
	}
	select {
	case inbox <- pkt:
	default: // queue overflow: tail-drop, like a socket buffer
		c.inboxDropped.Add(1)
	}
	return true
}

// RecvBatchStats implements RecvBatcher: the conn's recvmmsg activity
// (always zero on platforms without the batched receive path) and its
// inbox overflow count.
func (c *udpConn) RecvBatchStats() RecvBatchStats {
	return RecvBatchStats{
		Batches: c.recvBatches.Load(),
		Packets: c.recvPackets.Load(),
		Dropped: c.inboxDropped.Load(),
	}
}

func (c *udpConn) Send(to Addr, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("lan: datagram of %d bytes exceeds limit %d", len(data), MaxDatagram)
	}
	raddr, err := net.ResolveUDPAddr("udp4", string(to))
	if err != nil {
		return fmt.Errorf("lan: resolving %q: %w", to, err)
	}
	_, err = c.sock.WriteToUDP(data, raddr)
	return err
}

func (c *udpConn) Recv(timeout time.Duration) (Packet, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Packet{}, ErrClosed
	}
	c.startLocked()
	inbox := c.inbox
	c.mu.Unlock()

	// A packet already queued is taken without arming a timer: a busy
	// receive loop calls Recv once a packet, and time.After allocates.
	select {
	case pkt := <-inbox:
		return pkt, nil
	default:
	}
	if timeout <= 0 {
		select {
		case pkt := <-inbox:
			return pkt, nil
		case <-c.done:
			return Packet{}, ErrClosed
		}
	}
	select {
	case pkt := <-inbox:
		return pkt, nil
	case <-c.done:
		return Packet{}, ErrClosed
	case <-time.After(timeout):
		return Packet{}, ErrTimeout
	}
}

func (c *udpConn) Join(group Addr) error {
	if !group.IsMulticast() {
		return fmt.Errorf("lan: %q is not a multicast group", group)
	}
	gaddr, err := net.ResolveUDPAddr("udp4", string(group))
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if _, dup := c.joins[group]; dup {
		return nil
	}
	sock, err := net.ListenMulticastUDP("udp4", c.net.Interface, gaddr)
	if err != nil {
		return fmt.Errorf("lan: joining %q: %w", group, err)
	}
	c.startLocked()
	c.joins[group] = sock
	go c.readLoop(sock, group)
	return nil
}

func (c *udpConn) Leave(group Addr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sock, ok := c.joins[group]; ok {
		sock.Close()
		delete(c.joins, group)
	}
	return nil
}

func (c *udpConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	joins := c.joins
	c.joins = map[Addr]*net.UDPConn{}
	c.mu.Unlock()

	close(c.done)
	c.sock.Close()
	for _, s := range joins {
		s.Close()
	}
	return nil
}
