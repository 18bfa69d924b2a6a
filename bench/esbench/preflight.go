package main

import (
	"fmt"
	"net"
	"syscall"
	"time"
)

// minFiles is the descriptor budget: 2,000 churner sockets, a few
// hundred subscribers, the daemons' pipes and logs.
const minFiles = 2500

// preflight checks what the benchmark cannot run without and says so
// plainly; skipping would report a machine that cannot measure as a
// pass.
func preflight() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("preflight: RLIMIT_NOFILE: %w", err)
	}
	if lim.Cur < minFiles {
		want := lim
		want.Cur = minFiles
		if want.Cur > lim.Max {
			want.Cur = lim.Max
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil || want.Cur < minFiles {
			return fmt.Errorf("preflight: RLIMIT_NOFILE is %d (hard %d), need %d: raise it with `ulimit -n %d`",
				lim.Cur, lim.Max, minFiles, minFiles)
		}
	}
	return multicastLoopback()
}

// multicastLoopback proves that a datagram sent to a multicast group
// from a wildcard-bound socket — how rebroadcastd sends — reaches a
// local socket joined the way relayd joins (default interface).
func multicastLoopback() error {
	port, err := reservePort()
	if err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	group := &net.UDPAddr{IP: net.IPv4(239, 72, 255, 1), Port: port}
	rx, err := net.ListenMulticastUDP("udp4", nil, group)
	if err != nil {
		return fmt.Errorf("preflight: cannot join multicast group %s (no multicast-capable interface?): %w", group, err)
	}
	defer rx.Close()
	tx, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	defer tx.Close()
	buf := make([]byte, 16)
	for try := 0; try < 5; try++ {
		if _, err := tx.WriteToUDP([]byte("esbench"), group); err != nil {
			return fmt.Errorf("preflight: cannot send to multicast group %s (no multicast route?): %w", group, err)
		}
		rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if n, _, err := rx.ReadFromUDP(buf); err == nil && string(buf[:n]) == "esbench" {
			return nil
		}
	}
	return fmt.Errorf("preflight: multicast loopback is off: a datagram sent to %s never came back to a local member; "+
		"the daemons talk over a looped multicast group, so the benchmark cannot run here", group)
}
