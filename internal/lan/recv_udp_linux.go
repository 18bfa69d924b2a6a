//go:build linux && (amd64 || arm64)

package lan

import (
	"net"
	"syscall"
	"time"
	"unsafe"
)

// recvmmsg(2) batching for the UDP backend's receive side: one
// syscall drains a whole burst of datagrams from the socket, so a
// chained relay ingests at the same batch discipline it emits with
// sendmmsg (ROADMAP item 2a). recvBatch bounds one gather pass; the
// loop is level-triggered via the runtime poller (MSG_DONTWAIT plus
// re-arm on EAGAIN), so a lone packet is still delivered immediately.
const recvBatch = 16

// recvPass is the batched receive loop's scratch: the headers, iovecs,
// sockaddrs and buffers one recvmmsg call fills, the packets unpacked
// from them, and the last sender seen.
type recvPass struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
	bufs [][]byte
	pkts []Packet

	lastSA   syscall.RawSockaddrInet4
	lastFrom Addr // "" until the first datagram
}

func newRecvPass() *recvPass {
	p := &recvPass{
		hdrs: make([]mmsghdr, recvBatch),
		iovs: make([]syscall.Iovec, recvBatch),
		sas:  make([]syscall.RawSockaddrInet4, recvBatch),
		bufs: make([][]byte, recvBatch),
		pkts: make([]Packet, 0, recvBatch),
	}
	for i := range p.bufs {
		p.bufs[i] = make([]byte, 2048) // > MaxDatagram, without 64 KiB per slot
	}
	return p
}

// arm points every header back at its buffer and sockaddr: the kernel
// overwrote Namelen and Len on the previous pass.
func (p *recvPass) arm() {
	for i := range p.hdrs {
		p.iovs[i].Base = &p.bufs[i][0]
		p.iovs[i].SetLen(len(p.bufs[i]))
		p.hdrs[i].Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&p.sas[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &p.iovs[i],
			Iovlen:  1,
		}
		p.hdrs[i].Len = 0
	}
}

// unpack turns the first n datagrams of a pass into packets addressed
// to to. Their bytes are copied into one exactly-sized slice, each
// packet a full-slice expression of it so that none can append into its
// neighbour: one allocation a pass. A datagram whose sender's raw
// sockaddr equals the one before reuses that sender's Addr — a relay's
// stream has one sender, so its address is rendered once. The returned
// slice is reused by the next call.
func (p *recvPass) unpack(n int, to Addr, now time.Time) []Packet {
	total := 0
	for i := 0; i < n; i++ {
		total += p.size(i)
	}
	data := make([]byte, total)
	p.pkts = p.pkts[:0]
	for i, lo := 0, 0; i < n; i++ {
		hi := lo + copy(data[lo:], p.bufs[i][:p.size(i)])
		if sa := &p.sas[i]; p.lastFrom == "" || sa.Addr != p.lastSA.Addr || sa.Port != p.lastSA.Port {
			p.lastSA, p.lastFrom = *sa, sockaddrToAddr(sa)
		}
		p.pkts = append(p.pkts, Packet{From: p.lastFrom, To: to, Data: data[lo:hi:hi], Recv: now})
		lo = hi
	}
	return p.pkts
}

// size is datagram i's length, cut to its buffer when the datagram was
// truncated.
func (p *recvPass) size(i int) int {
	return min(int(p.hdrs[i].Len), len(p.bufs[i]))
}

// readLoopBatched runs the recvmmsg receive loop for sock until the
// socket closes. It reports false — telling the caller to run the
// portable per-packet loop instead — only when the batched path
// cannot start at all (no raw access, or a kernel without the
// syscall).
func (c *udpConn) readLoopBatched(sock *net.UDPConn, to Addr) bool {
	rc, err := sock.SyscallConn()
	if err != nil {
		return false
	}
	p := newRecvPass()
	probed := false
	for {
		p.arm()
		var n uintptr
		var errno syscall.Errno
		rerr := rc.Read(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&p.hdrs[0])), recvBatch,
				syscall.MSG_DONTWAIT, 0, 0)
			// false re-arms the read poller and retries when readable.
			return errno != syscall.EAGAIN
		})
		if rerr != nil {
			return true // socket closed (or unusable): loop is done
		}
		if errno != 0 {
			if !probed && (errno == syscall.ENOSYS || errno == syscall.EINVAL) {
				return false // kernel without recvmmsg: portable loop
			}
			return true
		}
		probed = true
		if n == 0 {
			continue
		}
		c.recvBatches.Add(1)
		c.recvPackets.Add(int64(n))
		for _, pkt := range p.unpack(int(n), to, time.Now()) {
			if !c.deliver(pkt) {
				return true
			}
		}
	}
}
