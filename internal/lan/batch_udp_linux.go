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

// WriteBatch implements BatchWriter with sendmmsg, one datagram per
// message. Datagrams are transmitted in order; a datagram that fails
// to validate stops the batch there (prefix semantics), matching the
// portable fallback.
func (c *udpConn) WriteBatch(batch []Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	bufs := mmsgPool.Get().(*mmsgBuffers)
	defer mmsgPool.Put(bufs)
	bufs.grow(len(batch))
	// Prepare headers for the longest valid prefix.
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
