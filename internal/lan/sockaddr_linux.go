//go:build linux && (amd64 || arm64)

package lan

import (
	"fmt"
	"net"
	"strconv"
	"syscall"
)

// Conversions between the package's "ip:port" strings and the raw IPv4
// sockaddrs the sendmmsg/recvmmsg paths hand the kernel. Both run once
// per datagram on a relay, so the common form is read and written here
// by hand rather than through fmt or the net parsers.

// sockaddrInet4 fills sa from a numeric "ip:port" address. The
// canonical dotted-quad form is parsed directly; anything else (a
// bracketed or IPv4-mapped literal, a signed port, or an error) goes
// through the net parsers, so what is accepted, and how, does not
// depend on which path read it.
func sockaddrInet4(a Addr, sa *syscall.RawSockaddrInet4) error {
	ip, port, ok := parseIPv4Port(string(a))
	if !ok {
		var err error
		if ip, port, err = parseIPv4PortNet(a); err != nil {
			return err
		}
	}
	sa.Family = syscall.AF_INET
	sa.Port = port>>8 | port<<8 // sin_port is in network byte order
	sa.Addr = ip
	return nil
}

// parseIPv4Port reads "a.b.c.d:port": four decimal octets of at most
// 255 without leading zeros, then a decimal port of 1-65535 in at most
// five digits. It reports false for anything else.
func parseIPv4Port(s string) (ip [4]byte, port uint16, ok bool) {
	field, digits, v := 0, 0, 0 // field 4 is the port
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			if digits == 5 || (field < 4 && digits > 0 && v == 0) {
				return ip, 0, false // too long, or an octet's leading zero
			}
			v, digits = v*10+int(c-'0'), digits+1
		case (c == '.' && field < 3) || (c == ':' && field == 3):
			if digits == 0 || v > 255 {
				return ip, 0, false
			}
			ip[field], field, v, digits = byte(v), field+1, 0, 0
		default:
			return ip, 0, false
		}
	}
	if field != 4 || v == 0 || v > 65535 {
		return ip, 0, false
	}
	return ip, uint16(v), true
}

// parseIPv4PortNet is the general parse, through net.SplitHostPort and
// net.ParseIP.
func parseIPv4PortNet(a Addr) (ip [4]byte, port uint16, err error) {
	host, portStr, err := net.SplitHostPort(string(a))
	if err != nil {
		return ip, 0, fmt.Errorf("lan: resolving %q: %w", a, err)
	}
	ip4 := net.ParseIP(host).To4()
	if ip4 == nil {
		return ip, 0, fmt.Errorf("lan: %q is not an IPv4 address", a)
	}
	p, err := strconv.Atoi(portStr)
	if err != nil || p <= 0 || p > 65535 {
		return ip, 0, fmt.Errorf("lan: bad port in %q", a)
	}
	copy(ip[:], ip4)
	return ip, uint16(p), nil
}

// sockaddrToAddr renders a raw IPv4 sockaddr as the "ip:port" form the
// rest of the package uses.
func sockaddrToAddr(sa *syscall.RawSockaddrInet4) Addr {
	var buf [len("255.255.255.255:65535")]byte
	b := buf[:0]
	for i, o := range sa.Addr {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(o), 10)
	}
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(sa.Port>>8|sa.Port<<8), 10) // network order
	return Addr(b)
}
