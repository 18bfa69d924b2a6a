//go:build linux && (amd64 || arm64)

package lan

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
)

// TestSockaddrParseMatchesNet holds the hand-written dotted-quad parse
// to the net-based one: wherever the fast path accepts, the net parse
// accepts the same address and port, and sockaddrInet4 as a whole
// accepts and rejects exactly what the net parse does.
func TestSockaddrParseMatchesNet(t *testing.T) {
	inputs := []string{
		// valid
		"127.0.0.1:5006", "0.0.0.0:1", "255.255.255.255:65535", "10.0.0.7:5004",
		"239.72.1.1:5004", "1.2.3.4:05004", "1.2.3.4:00001",
		// valid only through the net parse
		"[1.2.3.4]:80", "[::ffff:1.2.3.4]:80", "[::ffff:102:304]:80", "1.2.3.4:+80",
		"1.2.3.4:000080",
		// malformed
		"", ":", ":80", "1.2.3.4", "1.2.3.4:", "1.2.3:80", "1.2.3.4.5:80", "1..3.4:80",
		".1.2.3:80", "1.2.3.4.:80", "a.b.c.d:80", "1.2.3.4:8a", "1.2.3.4:80:80",
		" 1.2.3.4:80", "1.2.3.4:80 ", "1.2.3.4: 80", "host:80", "no-such-host-xyz",
		"1.2.3.-4:80", "1.2.3.4:-80", "1.2.3.4::80",
		// IPv6
		"[::1]:80", "[ff02::1]:5004", "[fe80::1%eth0]:80", "::1:80", "[::]:80",
		// out-of-range octets and ports
		"256.0.0.1:80", "1.2.3.1000:80", "1.2.3.4:0", "1.2.3.4:65536", "1.2.3.4:99999",
		"1.2.3.4:123456", "1.2.3.4:00000",
		// leading zeros in an octet (net refuses these: octal ambiguity)
		"01.2.3.4:80", "1.02.3.4:80", "1.2.3.00:80", "1.2.3.010:80", "001.2.3.4:80",
	}
	for _, s := range inputs {
		checkSockaddrParse(t, s)
	}
	// Seeded mutations of valid addresses: a byte replaced, dropped or
	// doubled, from an alphabet that reaches every branch of the parse.
	const alphabet = "0123456789.:[]af+- %"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := []byte(randomAddr(rng))
		k := rng.Intn(len(s))
		switch rng.Intn(3) {
		case 0:
			s[k] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			s = append(s[:k], s[k+1:]...)
		default:
			s = append(s[:k+1], s[k:]...)
		}
		checkSockaddrParse(t, string(s))
	}
}

func checkSockaddrParse(t *testing.T, s string) {
	t.Helper()
	nip, nport, nerr := parseIPv4PortNet(Addr(s))
	if ip, port, ok := parseIPv4Port(s); ok && (nerr != nil || ip != nip || port != nport) {
		t.Errorf("%q: fast parse %v:%d, net parse %v:%d (%v)", s, ip, port, nip, nport, nerr)
	}
	var sa syscall.RawSockaddrInet4
	err := sockaddrInet4(Addr(s), &sa)
	if (err == nil) != (nerr == nil) {
		t.Errorf("%q: sockaddrInet4 error %v, net parse error %v", s, err, nerr)
		return
	}
	if err == nil && (sa.Addr != nip || sa.Port != nport>>8|nport<<8 || sa.Family != syscall.AF_INET) {
		t.Errorf("%q: sockaddr %+v, want %v:%d", s, sa, nip, nport)
	}
}

func randomAddr(rng *rand.Rand) string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), 1+rng.Intn(65535))
}

// TestSockaddrRoundTrip formats random sockaddrs and parses them back;
// the text must also be what fmt and the net parse would make of them.
func TestSockaddrRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		var sa, back syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		rng.Read(sa.Addr[:])
		port := uint16(1 + rng.Intn(65535))
		if i == 0 {
			sa.Addr, port = [4]byte{255, 255, 255, 255}, 65535 // the longest form
		}
		sa.Port = port>>8 | port<<8
		a := sockaddrToAddr(&sa)
		want := fmt.Sprintf("%d.%d.%d.%d:%d", sa.Addr[0], sa.Addr[1], sa.Addr[2], sa.Addr[3], port)
		if string(a) != want {
			t.Fatalf("sockaddrToAddr = %q, want %q", a, want)
		}
		if _, _, ok := parseIPv4Port(string(a)); !ok {
			t.Fatalf("%q: fast parse refused its own output", a)
		}
		if err := sockaddrInet4(a, &back); err != nil || back != sa {
			t.Fatalf("%q: round trip %+v (%v), want %+v", a, back, err, sa)
		}
	}
}

// addrSink keeps the benchmarked conversions from being optimized away.
var addrSink Addr

// BenchmarkSockaddr prices the per-datagram address conversions: the
// parse every sent datagram pays and the format every received one
// pays, each beside the net/fmt form it replaced.
func BenchmarkSockaddr(b *testing.B) {
	const a = Addr("192.168.100.200:50006")
	var sa syscall.RawSockaddrInet4
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sockaddrInet4(a, &sa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-net", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := parseIPv4PortNet(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("format", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addrSink = sockaddrToAddr(&sa)
		}
	})
	b.Run("format-fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			port := sa.Port>>8 | sa.Port<<8
			addrSink = Addr(fmt.Sprintf("%d.%d.%d.%d:%d", sa.Addr[0], sa.Addr[1], sa.Addr[2], sa.Addr[3], port))
		}
	})
}
