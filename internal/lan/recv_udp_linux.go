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
	hdrs := make([]mmsghdr, recvBatch)
	iovs := make([]syscall.Iovec, recvBatch)
	sas := make([]syscall.RawSockaddrInet4, recvBatch)
	bufs := make([][]byte, recvBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 2048) // > MaxDatagram, without 64 KiB per slot
	}
	probed := false
	for {
		// Re-arm every header: the kernel overwrote Namelen and Len on
		// the previous pass.
		for i := range hdrs {
			iovs[i].Base = &bufs[i][0]
			iovs[i].SetLen(len(bufs[i]))
			hdrs[i].Hdr = syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&sas[i])),
				Namelen: syscall.SizeofSockaddrInet4,
				Iov:     &iovs[i],
				Iovlen:  1,
			}
			hdrs[i].Len = 0
		}
		var n uintptr
		var errno syscall.Errno
		rerr := rc.Read(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&hdrs[0])), recvBatch,
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
		now := time.Now()
		c.recvBatches.Add(1)
		c.recvPackets.Add(int64(n))
		for i := 0; i < int(n); i++ {
			ln := int(hdrs[i].Len)
			if ln > len(bufs[i]) {
				ln = len(bufs[i]) // truncated oversize datagram
			}
			pkt := Packet{
				From: sockaddrToAddr(&sas[i]),
				To:   to,
				Data: append([]byte(nil), bufs[i][:ln]...),
				Recv: now,
			}
			if !c.deliver(pkt) {
				return true
			}
		}
	}
}
