//go:build linux && (amd64 || arm64)

package lan

import (
	"bytes"
	"testing"
	"time"
)

// fillPass lays n datagrams into p as recvmmsg would: datagram i is
// i+1 bytes of value i, from the sender at from(i).
func fillPass(t *testing.T, p *recvPass, n int, from func(i int) Addr) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			p.bufs[i][j] = byte(i)
		}
		p.hdrs[i].Len = uint32(i + 1)
		if err := sockaddrInet4(from(i), &p.sas[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecvPassUnpack: every datagram's bytes and sender come through,
// a packet cannot grow into its neighbour, and a sender that changes
// mid-pass is rendered anew.
func TestRecvPassUnpack(t *testing.T) {
	p := newRecvPass()
	senders := []Addr{"10.0.0.7:5004", "10.0.0.7:5004", "10.0.0.8:5004", "10.0.0.7:5005"}
	fillPass(t, p, len(senders), func(i int) Addr { return senders[i] })
	now := time.Unix(1, 0)
	pkts := p.unpack(len(senders), "239.72.1.1:5004", now)
	if len(pkts) != len(senders) {
		t.Fatalf("unpacked %d packets, want %d", len(pkts), len(senders))
	}
	for i, pkt := range pkts {
		if want := bytes.Repeat([]byte{byte(i)}, i+1); !bytes.Equal(pkt.Data, want) {
			t.Errorf("packet %d holds %v, want %v", i, pkt.Data, want)
		}
		if pkt.From != senders[i] || pkt.To != "239.72.1.1:5004" || !pkt.Recv.Equal(now) {
			t.Errorf("packet %d: from %s to %s at %v", i, pkt.From, pkt.To, pkt.Recv)
		}
		if cap(pkt.Data) != len(pkt.Data) {
			t.Errorf("packet %d: capacity %d past its length %d", i, cap(pkt.Data), len(pkt.Data))
		}
	}
	_ = append(pkts[0].Data, 0xff) // must reallocate, not overwrite packet 1
	if pkts[1].Data[0] != 1 {
		t.Error("appending to packet 0 overwrote packet 1")
	}
}

// TestRecvPassUnpackAllocs: a full pass of datagrams from one sender is
// unpacked with one allocation, the bytes of all of them.
func TestRecvPassUnpackAllocs(t *testing.T) {
	p := newRecvPass()
	fillPass(t, p, recvBatch, func(int) Addr { return "10.0.0.7:5004" })
	now := time.Now()
	if n := testing.AllocsPerRun(100, func() { p.unpack(recvBatch, "239.72.1.1:5004", now) }); n != 1 {
		t.Errorf("unpacking %d datagrams from one sender allocates %v times, want 1", recvBatch, n)
	}
}
