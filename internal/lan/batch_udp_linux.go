//go:build linux && (amd64 || arm64)

package lan

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// sendmmsg(2) batching for the UDP backend: one syscall hands the
// kernel a whole batch of datagrams, amortizing the user/kernel
// crossing that dominates small-packet fan-out. Platforms without the
// syscall (or with a different Msghdr layout) simply don't get this
// method and take the portable loop fallback in WriteBatch.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-reported
// byte count for that message.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// mmsgBuffers is the per-batch scratch (headers, iovecs, sockaddrs),
// recycled through mmsgPool so steady-state batching does not allocate.
type mmsgBuffers struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
}

var mmsgPool = sync.Pool{New: func() any { return new(mmsgBuffers) }}

// grow resizes the scratch arrays to hold n messages.
func (b *mmsgBuffers) grow(n int) {
	if cap(b.hdrs) < n {
		b.hdrs = make([]mmsghdr, n)
		b.iovs = make([]syscall.Iovec, n)
		b.sas = make([]syscall.RawSockaddrInet4, n)
	}
	b.hdrs = b.hdrs[:n]
	b.iovs = b.iovs[:n]
	b.sas = b.sas[:n]
}

// WriteBatch implements BatchWriter with sendmmsg. Datagrams are
// transmitted in order; a datagram that fails to validate stops the
// batch there (prefix semantics), matching the portable fallback.
// With GSO enabled (SetGSO) same-destination runs are additionally
// coalesced into UDP_SEGMENT sends; a kernel that refuses the option
// downgrades the conn to plain sendmmsg permanently.
func (c *udpConn) WriteBatch(batch []Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	if c.gso.Load() {
		n, err := c.writeBatchGSO(batch)
		if err != nil && gsoUnsupported(err) {
			// This kernel or socket cannot segment: fall back for good
			// and send the remainder of this batch the plain way.
			c.gso.Store(false)
			m, merr := c.writeBatchPlain(batch[n:])
			return n + m, merr
		}
		return n, err
	}
	return c.writeBatchPlain(batch)
}

// SetGSO implements GSOCapable. Support is optimistic: the first
// coalesced send probes the kernel, and a refusal downgrades the conn
// back to plain sendmmsg permanently.
func (c *udpConn) SetGSO(on bool) bool {
	c.gso.Store(on)
	return true
}

// writeBatchPlain is the one-datagram-per-message sendmmsg path.
func (c *udpConn) writeBatchPlain(batch []Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	bufs := mmsgPool.Get().(*mmsgBuffers)
	defer mmsgPool.Put(bufs)
	bufs.grow(len(batch))
	// Prepare headers for the longest valid prefix; a datagram that
	// fails validation ends the batch there (prefix semantics, matching
	// the portable fallback).
	n := 0
	var verr error
	for i, d := range batch {
		if len(d.Data) > MaxDatagram {
			verr = fmt.Errorf("lan: datagram of %d bytes exceeds limit %d", len(d.Data), MaxDatagram)
			break
		}
		if verr = sockaddrInet4(d.To, &bufs.sas[i]); verr != nil {
			break
		}
		iov := &bufs.iovs[i]
		if len(d.Data) > 0 {
			iov.Base = &d.Data[0]
		} else {
			iov.Base = nil
		}
		iov.SetLen(len(d.Data))
		bufs.hdrs[i].Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&bufs.sas[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     iov,
			Iovlen:  1,
		}
		n++
	}
	sent, err := c.writeMsgs(bufs.hdrs[:n])
	runtime.KeepAlive(batch)
	if err == nil {
		err = verr
	}
	return sent, err
}

// UDP GSO constants (not in the trimmed std syscall tables).
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT cmsg type
	// gsoMaxSegs bounds how many datagrams one UDP_SEGMENT message may
	// carry (the kernel's UDP_MAX_SEGMENTS).
	gsoMaxSegs = 64
	// gsoMaxBytes bounds a run's unsegmented payload: the kernel
	// segments one logical UDP send, which must itself fit the maximum
	// UDP payload (65,535 minus the UDP and IP headers).
	gsoMaxBytes = 65507
)

// segCmsg is one UDP_SEGMENT control message: a cmsghdr followed by
// the u16 segment size, padded out to CmsgSpace(2) bytes.
type segCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// gsoBuffers is the scratch for a GSO-coalesced batch. Unlike the
// plain path it needs one iovec per *datagram* but one header,
// sockaddr, and cmsg per *message* (run), plus the run lengths to map
// messages-sent back to datagrams-sent.
type gsoBuffers struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	sas   []syscall.RawSockaddrInet4
	cmsgs []segCmsg
	runs  []int
}

var gsoPool = sync.Pool{New: func() any { return new(gsoBuffers) }}

func (b *gsoBuffers) grow(n int) {
	if cap(b.hdrs) < n {
		b.hdrs = make([]mmsghdr, n)
		b.iovs = make([]syscall.Iovec, n)
		b.sas = make([]syscall.RawSockaddrInet4, n)
		b.cmsgs = make([]segCmsg, n)
		b.runs = make([]int, n)
	}
	b.hdrs = b.hdrs[:n]
	b.iovs = b.iovs[:n]
	b.sas = b.sas[:n]
	b.cmsgs = b.cmsgs[:n]
	b.runs = b.runs[:n]
}

// gsoUnsupported classifies a sendmmsg error as "this kernel or path
// cannot do UDP_SEGMENT" — the triggers for a permanent downgrade to
// plain batching rather than a per-datagram failure.
func gsoUnsupported(err error) bool {
	errno, ok := err.(syscall.Errno)
	return ok && (errno == syscall.EINVAL || errno == syscall.EOPNOTSUPP ||
		errno == syscall.ENOPROTOOPT || errno == syscall.EIO)
}

// writeBatchGSO sends the batch with same-destination runs coalesced:
// consecutive datagrams to one destination whose payloads share a
// size (the final segment of a run may be shorter — the GSO tail
// rule) become a single message carrying a UDP_SEGMENT cmsg, which
// the kernel splits back into individual datagrams. This is exactly
// the shape a per-profile fan-out group produces: one payload
// repeated across many subscribers sorted together.
func (c *udpConn) writeBatchGSO(batch []Datagram) (int, error) {
	bufs := gsoPool.Get().(*gsoBuffers)
	defer gsoPool.Put(bufs)
	bufs.grow(len(batch))
	var verr error
	nmsg, ndg := 0, 0
	for ndg < len(batch) {
		d := batch[ndg]
		if len(d.Data) > MaxDatagram {
			verr = fmt.Errorf("lan: datagram of %d bytes exceeds limit %d", len(d.Data), MaxDatagram)
			break
		}
		if verr = sockaddrInet4(d.To, &bufs.sas[nmsg]); verr != nil {
			break
		}
		// Extend the run: same destination, payloads of the run's
		// segment size, with one shorter tail allowed. The run's total
		// bytes stay inside one UDP datagram (the kernel segments a
		// single send, so the unsegmented payload obeys the 65,507-byte
		// ceiling — beyond it sendmsg fails with EMSGSIZE).
		seg, run, total := len(d.Data), 1, len(d.Data)
		if seg > 0 {
			for run < gsoMaxSegs && ndg+run < len(batch) {
				nd := &batch[ndg+run]
				if nd.To != d.To || len(nd.Data) == 0 || len(nd.Data) > seg ||
					total+len(nd.Data) > gsoMaxBytes {
					break
				}
				short := len(nd.Data) < seg
				total += len(nd.Data)
				run++
				if short {
					break // a shorter segment must be the run's last
				}
			}
		}
		iovs := bufs.iovs[ndg : ndg+run]
		for j := 0; j < run; j++ {
			data := batch[ndg+j].Data
			if len(data) > 0 {
				iovs[j].Base = &data[0]
			} else {
				iovs[j].Base = nil
			}
			iovs[j].SetLen(len(data))
		}
		hdr := &bufs.hdrs[nmsg]
		hdr.Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&bufs.sas[nmsg])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &iovs[0],
			Iovlen:  uint64(run),
		}
		if run > 1 {
			cm := &bufs.cmsgs[nmsg]
			cm.hdr.Level = solUDP
			cm.hdr.Type = udpSegment
			cm.hdr.Len = uint64(syscall.CmsgLen(2))
			cm.seg = uint16(seg)
			hdr.Hdr.Control = (*byte)(unsafe.Pointer(cm))
			hdr.Hdr.Controllen = uint64(syscall.CmsgSpace(2))
		}
		bufs.runs[nmsg] = run
		nmsg++
		ndg += run
	}
	sentMsgs, err := c.writeMsgs(bufs.hdrs[:nmsg])
	runtime.KeepAlive(batch)
	runtime.KeepAlive(bufs)
	sent := 0
	for i := 0; i < sentMsgs; i++ {
		sent += bufs.runs[i]
	}
	if err == nil {
		err = verr
	}
	return sent, err
}

// mmsgSend is one sendmmsg call's state. It is recycled through
// sendPool with its two callbacks bound once, so handing the call to
// the RawConn allocates nothing.
type mmsgSend struct {
	hdrs  []mmsghdr
	n     uintptr
	errno syscall.Errno
	send  func(fd uintptr)      // s.call, for RawConn.Control
	retry func(fd uintptr) bool // s.callUntilRoom, for RawConn.Write
}

var sendPool = sync.Pool{New: func() any {
	s := new(mmsgSend)
	s.send, s.retry = s.call, s.callUntilRoom
	return s
}}

func (s *mmsgSend) call(fd uintptr) {
	s.n, _, s.errno = syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(len(s.hdrs)),
		syscall.MSG_NOSIGNAL|syscall.MSG_DONTWAIT, 0, 0)
}

// callUntilRoom is call for RawConn.Write: returning false on EAGAIN
// re-arms the write poller and retries once the socket has room.
func (s *mmsgSend) callUntilRoom(fd uintptr) bool {
	s.call(fd)
	return s.errno != syscall.EAGAIN
}

// writeMsgs pushes the prepared headers through sendmmsg, retrying on
// partial sends. It sends inside RawConn.Control, which keeps the
// descriptor open by reference count (a concurrent Close cannot reuse
// it mid-call) but takes no lock, so any number of goroutines send on
// one conn at once — Linux's unconnected, uncorked UDP send path takes
// no socket lock either. RawConn.Write would hold the descriptor's
// write lock across the syscall and run them one at a time; only a
// full send buffer (EAGAIN) goes that way, to wait on the runtime
// poller for room. Per-destination order is the caller's: one
// goroutine's datagrams leave in slice order.
func (c *udpConn) writeMsgs(hdrs []mmsghdr) (int, error) {
	s := sendPool.Get().(*mmsgSend)
	defer func() {
		s.hdrs = nil
		sendPool.Put(s)
	}()
	sent := 0
	for sent < len(hdrs) {
		s.hdrs = hdrs[sent:]
		if err := c.rc.Control(s.send); err != nil {
			return sent, err
		}
		if s.errno == syscall.EAGAIN {
			if err := c.rc.Write(s.retry); err != nil {
				return sent, err
			}
		}
		if s.errno != 0 {
			return sent, s.errno
		}
		sent += int(s.n)
	}
	return sent, nil
}
