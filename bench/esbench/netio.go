package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/proto"
)

var hashSeed = maphash.MakeSeed()

// stampedConn reads datagrams together with the kernel's receive time
// (SO_TIMESTAMPNS). Every latency in the harness is a difference of two
// such stamps, so the harness's own scheduling delay — how long a reader
// goroutine waited for a CPU — is in neither of them.
type stampedConn struct {
	c   *net.UDPConn
	oob []byte
}

func newStamped(c *net.UDPConn) (*stampedConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, fmt.Errorf("SO_TIMESTAMPNS: %w", serr)
	}
	return &stampedConn{c: c, oob: make([]byte, 64)}, nil
}

// read returns one datagram and its receive time in Unix ns. If the
// kernel attached no stamp the current time stands in.
func (s *stampedConn) read(buf []byte) (int, int64, error) {
	n, oobn, _, _, err := s.c.ReadMsgUDPAddrPort(buf, s.oob)
	if err != nil {
		return 0, 0, err
	}
	ts := time.Now().UnixNano()
	if msgs, err := syscall.ParseSocketControlMessage(s.oob[:oobn]); err == nil {
		for _, m := range msgs {
			if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SO_TIMESTAMPNS &&
				len(m.Data) >= int(unsafe.Sizeof(syscall.Timespec{})) {
				t := (*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
				ts = t.Nano()
			}
		}
	}
	return n, ts, nil
}

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// reservePort binds an ephemeral loopback port, notes it, and releases
// it for a daemon (or an identity-bound speaker) to bind by number.
func reservePort() (int, error) {
	c, err := listenLoopback()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// tapRec is one data packet the producer emitted, as the tap saw it.
type tapRec struct {
	delivery
	frames int64 // stream frames emitted up to and including this packet
}

// tap joins the producer's multicast group and timestamps everything on
// it. It is the reference copy of the stream: transit is measured
// against its stamps, byte identity against its hashes, and the packet
// walk replays the raw packets it kept.
type tap struct {
	sc            *stampedConn
	bytesPerFrame int

	mu   sync.Mutex
	data []tapRec
	ctl  []int64  // control packet receive times
	raw  [][]byte // the first rawKeep data packets, verbatim
	ctlP []byte   // the first control packet, verbatim
	done chan struct{}
}

const rawKeep = 256

func newTap(group *net.UDPAddr, bytesPerFrame int) (*tap, error) {
	c, err := net.ListenMulticastUDP("udp4", nil, group)
	if err != nil {
		return nil, fmt.Errorf("tap: joining %s: %w", group, err)
	}
	c.SetReadBuffer(4 << 20)
	sc, err := newStamped(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	t := &tap{sc: sc, bytesPerFrame: bytesPerFrame, done: make(chan struct{})}
	go t.loop()
	return t, nil
}

func (t *tap) loop() {
	defer close(t.done)
	buf := make([]byte, 2048)
	var frames int64
	for {
		n, ts, err := t.sc.read(buf)
		if err != nil {
			return
		}
		pkt := buf[:n]
		typ, _, err := proto.PeekType(pkt)
		if err != nil {
			continue
		}
		switch typ {
		case proto.TypeControl:
			t.mu.Lock()
			t.ctl = append(t.ctl, ts)
			if t.ctlP == nil {
				t.ctlP = append([]byte(nil), pkt...)
			}
			t.mu.Unlock()
		case proto.TypeData:
			d, err := proto.UnmarshalData(pkt)
			if err != nil {
				continue
			}
			frames += int64(len(d.Payload) / t.bytesPerFrame)
			rec := tapRec{delivery{d.Seq, ts, n, maphash.Bytes(hashSeed, pkt)}, frames}
			t.mu.Lock()
			t.data = append(t.data, rec)
			if len(t.raw) < rawKeep {
				t.raw = append(t.raw, append([]byte(nil), pkt...))
			}
			t.mu.Unlock()
		}
	}
}

// headSeq is the newest data seq on the wire.
func (t *tap) headSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.data) == 0 {
		return 0
	}
	return t.data[len(t.data)-1].seq
}

func (t *tap) snapshot() (data []tapRec, ctl []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]tapRec(nil), t.data...), append([]int64(nil), t.ctl...)
}

func (t *tap) close() {
	t.sc.c.Close()
	<-t.done
}

// probe is a subscriber whose socket is read: every data packet is
// stamped, hashed and kept for the end-of-run checks, and SubAcks are
// handed to whoever is waiting for one.
type probe struct {
	client
	profile uint8

	mu   sync.Mutex
	got  []delivery
	last uint64 // newest data seq received
	done chan struct{}
}

func newProbe(cl client) *probe {
	// One request is outstanding at a time; the slack absorbs a late ack
	// to an attempt that was already retried.
	cl.acks = make(chan ackEvent, 4)
	p := &probe{client: cl, done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *probe) loop() {
	defer close(p.done)
	buf := make([]byte, 2048)
	for {
		n, ts, err := p.sc.read(buf)
		if err != nil {
			return
		}
		pkt := buf[:n]
		typ, _, err := proto.PeekType(pkt)
		if err != nil {
			continue
		}
		switch typ {
		case proto.TypeSubAck:
			p.deliverAck(pkt, ts)
		case proto.TypeData:
			d, err := proto.UnmarshalData(pkt)
			if err != nil {
				continue
			}
			p.mu.Lock()
			p.got = append(p.got, delivery{d.Seq, ts, n, maphash.Bytes(hashSeed, pkt)})
			p.last = d.Seq
			p.mu.Unlock()
		}
	}
}

func (p *probe) lastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

func (p *probe) deliveries() []delivery {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]delivery(nil), p.got...)
}

func (p *probe) close() {
	p.sc.c.Close()
	<-p.done
}

// muteReceiveBuffer makes a socket a mute sink: bound and leased but
// never read, with SO_RCVBUF at the kernel's minimum, so after the first
// datagram the kernel drops at the socket. The relay has paid the whole
// send path by then, and the harness pays nothing per packet.
func muteReceiveBuffer(c *net.UDPConn) { c.SetReadBuffer(1) }

// socketDrops sums the kernel's per-socket drop counters (the last
// column of /proc/net/udp) over the given local ports.
func socketDrops(ports map[int]bool) (int64, error) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var total int64
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 13 {
			continue
		}
		_, hexPort, ok := strings.Cut(fields[1], ":")
		if !ok {
			continue
		}
		port, err := strconv.ParseInt(hexPort, 16, 32)
		if err != nil || !ports[int(port)] {
			continue
		}
		drops, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err == nil {
			total += drops
		}
	}
	return total, sc.Err()
}
