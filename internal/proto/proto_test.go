package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/audio"
)

func TestControlRoundTrip(t *testing.T) {
	c := &Control{
		Channel:  7,
		Epoch:    3,
		Seq:      123456789,
		Producer: 987654321012345,
		Params:   audio.CDQuality,
		Codec:    "ovl",
		Quality:  10,
		Auth:     AuthHMAC,
		Interval: 1000,
	}
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalControl(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", c, got)
	}
}

func TestDataRoundTrip(t *testing.T) {
	d := &Data{
		Channel: 1,
		Epoch:   9,
		Seq:     42,
		PlayAt:  55555555,
		Payload: []byte{1, 2, 3, 4, 5},
	}
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalData(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", d, got)
	}
}

func TestDataEmptyPayload(t *testing.T) {
	d := &Data{Channel: 1, Seq: 1}
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalData(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	a := &Announce{
		Seq: 77,
		Channels: []ChannelInfo{
			{ID: 1, Name: "WKDU simulcast", Group: "239.72.1.1:5004", Codec: "ovl", Params: audio.CDQuality},
			{ID: 2, Name: "paging", Group: "239.72.1.2:5004", Codec: "raw", Params: audio.Voice},
		},
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
}

func TestAnnounceEmpty(t *testing.T) {
	a := &Announce{Seq: 1}
	data, _ := a.Marshal()
	got, err := UnmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Channels) != 0 {
		t.Fatal("phantom channels")
	}
}

func TestPeekType(t *testing.T) {
	c := &Control{Channel: 5, Params: audio.Voice, Codec: "raw"}
	data, _ := c.Marshal()
	typ, ch, err := PeekType(data)
	if err != nil || typ != TypeControl || ch != 5 {
		t.Fatalf("peek = (%v, %d, %v)", typ, ch, err)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	for _, s := range []*Subscribe{
		{Channel: 7, Seq: 99, LeaseMs: 30000},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Hops: 3, PathID: 0xDEADBEEF01020304},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Profile: 2},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Hops: 3, PathID: 0xDEADBEEF01020304, Profile: 3},
		{Channel: 7, Seq: 99, LeaseMs: 30000, ShiftMs: 10000},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Profile: 2, ShiftMs: 10000},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Hops: 3, PathID: 0xDEADBEEF01020304, ShiftMs: 1},
		{Channel: 7, Seq: 99, LeaseMs: 30000, Hops: 3, PathID: 0xDEADBEEF01020304, Profile: 3, ShiftMs: 0xFFFFFFFF},
	} {
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalSubscribe(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", s, got)
		}
	}
}

// TestSubscribeOneBodyOneVersion: a Subscribe has exactly one body —
// whatever its fields, Marshal emits SubscribeBodyLen bytes, and every
// length an earlier generation of the grammar allowed (and the two
// either side of the real one) is malformed — and the header's version
// byte is the only compatibility rule: a version-1 packet is refused
// before its body is looked at.
func TestSubscribeOneBodyOneVersion(t *testing.T) {
	for _, s := range []*Subscribe{
		{Channel: 1, Seq: 2, LeaseMs: 15000},
		{Channel: 1, Seq: 2, LeaseMs: 15000, Hops: 2, PathID: 7, Profile: 3, ShiftMs: 10000},
	} {
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(data) - headerLen; got != SubscribeBodyLen {
			t.Fatalf("subscribe %+v body = %d bytes, want %d", s, got, SubscribeBodyLen)
		}
	}
	full, err := (&Subscribe{Channel: 2, Seq: 5, LeaseMs: 9000, Hops: 7, PathID: 42, Profile: 1, ShiftMs: 3}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 9, 13, 17, 18, 21, 23} {
		body := append(append([]byte(nil), full...), 0)[:headerLen+n]
		if _, err := UnmarshalSubscribe(body); err == nil {
			t.Errorf("subscribe body of %d bytes accepted", n)
		}
	}
	old := append([]byte(nil), full...)
	old[2] = 1
	if _, err := UnmarshalSubscribe(old); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 subscribe: err = %v, want ErrBadVersion", err)
	}
	if _, _, err := PeekType(old); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 header: err = %v, want ErrBadVersion", err)
	}
}

func TestAnnounceRelayRecordsRoundTrip(t *testing.T) {
	a := &Announce{
		Seq: 9,
		Channels: []ChannelInfo{
			{ID: 1, Name: "music", Group: "239.72.1.1:5004", Codec: "ovl", Params: audio.CDQuality},
		},
		Relays: []RelayInfo{
			{Addr: "10.0.0.5:5006", Group: "239.72.1.1:5004", Channel: 1},
			{Addr: "10.0.0.6:5006", Group: "10.0.0.5:5006"}, // chained, wildcard channel
		},
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
	// Truncating the relay section must fail, not silently drop relays.
	if _, err := UnmarshalAnnounce(data[:len(data)-2]); err == nil {
		t.Fatal("truncated relay section accepted")
	}
}

func TestAnnounceLoadVectorRoundTrip(t *testing.T) {
	// Mixed records: a live relay stamping load next to a static record
	// without it. Both must survive the wire, including a saturated
	// pressure score and a hop count at the wire ceiling.
	a := &Announce{
		Seq: 11,
		Relays: []RelayInfo{
			{Addr: "10.0.0.5:5006", Group: "239.72.1.1:5004", Channel: 1,
				HasLoad: true, Subs: 70000, Pressure: 255, Hops: 255},
			{Addr: "10.0.0.6:5006", Group: "10.0.0.5:5006"},
			{Addr: "10.0.0.7:5006", Group: "239.72.1.1:5004",
				HasLoad: true, Subs: 0, Pressure: 0, Hops: 1},
		},
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
}

func TestAnnounceLoadSectionMalformed(t *testing.T) {
	a := &Announce{
		Seq: 5,
		Relays: []RelayInfo{
			{Addr: "10.0.0.5:5006", Group: "g", Channel: 1, HasLoad: true, Subs: 4, Pressure: 10, Hops: 1},
			{Addr: "10.0.0.6:5006", Group: "g", Channel: 1, HasLoad: true, Subs: 8, Pressure: 20, Hops: 2},
		},
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	flagsOff := len(data) - announceSigLen - 7 // the last record's flags byte + 6-byte vector
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"unknown flags", func(b []byte) []byte { b[flagsOff] = 0x83; return b }},
		// Clearing bit 0 leaves the vector's 6 bytes where the signature
		// section must start.
		{"vector behind a clear flag", func(b []byte) []byte { b[flagsOff] = 0; return b }},
		{"truncated vector", func(b []byte) []byte { return append(b[:flagsOff+4], b[flagsOff+7:]...) }},
		{"relay count overstated", func(b []byte) []byte { b[headerLen+9]++; return b }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"announce on a channel", func(b []byte) []byte { b[7] = 1; return b }},
	}
	for _, tc := range cases {
		mut := tc.mutate(append([]byte(nil), data...))
		if _, err := UnmarshalAnnounce(mut); err == nil {
			t.Errorf("%s: malformed announce accepted", tc.name)
		}
	}
}

func TestSubAckRedirectRoundTrip(t *testing.T) {
	a := &SubAck{Channel: 7, Seq: 99, Status: SubRedirect, Redirect: "10.0.3.2:5006"}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSubAck(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
}

func TestSubAckRedirectMalformed(t *testing.T) {
	// Marshalling refuses the inconsistent combinations outright: a
	// redirect with nowhere to go, and an address smuggled onto a
	// non-redirect status.
	if _, err := (&SubAck{Channel: 1, Seq: 1, Status: SubRedirect}).Marshal(); err == nil {
		t.Fatal("redirect with empty address marshalled")
	}
	if _, err := (&SubAck{Channel: 1, Seq: 1, Status: SubOK, Redirect: "10.0.0.1:5006"}).Marshal(); err == nil {
		t.Fatal("redirect address on an OK status marshalled")
	}
	// And the parser refuses them arriving off the wire.
	good, err := (&SubAck{Channel: 1, Seq: 1, Status: SubRedirect, Redirect: "10.0.0.1:5006"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	zero := append([]byte(nil), good[:headerLen+SubAckBodyLen]...)
	zero = append(zero, 0) // length-prefixed empty string: a zero-address redirect
	if _, err := UnmarshalSubAck(zero); err == nil {
		t.Fatal("zero-address redirect accepted")
	}
	asOK := append([]byte(nil), good...)
	asOK[headerLen+8] = byte(SubOK) // flip the status, keep the address bytes
	if _, err := UnmarshalSubAck(asOK); err == nil {
		t.Fatal("redirect body accepted behind a non-redirect status")
	}
	if _, err := UnmarshalSubAck(good[:len(good)-4]); err == nil {
		t.Fatal("truncated redirect address accepted")
	}
	// A redirect grants nothing: a shift on one is refused off the wire
	// exactly as Marshal refuses to put it there.
	shifted := append([]byte(nil), good...)
	shifted[headerLen+SubAckBodyLen-1] = 1
	if _, err := UnmarshalSubAck(shifted); err == nil {
		t.Fatal("redirect with a shift grant accepted")
	}
}

func TestSubscribeUnsubscribe(t *testing.T) {
	// LeaseMs zero is the cancel form and must survive the wire.
	s := &Subscribe{Channel: 3, Seq: 1, LeaseMs: 0}
	data, _ := s.Marshal()
	got, err := UnmarshalSubscribe(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeaseMs != 0 {
		t.Fatalf("lease = %d, want 0", got.LeaseMs)
	}
}

func TestSubAckRoundTrip(t *testing.T) {
	for _, status := range []SubStatus{SubOK, SubNoChannel, SubTableFull, SubLoop, SubRedirect} {
		// The granted-profile byte must survive every status.
		a := &SubAck{Channel: 7, Seq: 99, LeaseMs: 15000, Status: status, Profile: 2}
		if status == SubRedirect {
			a.Redirect = "10.0.9.9:5006"
		}
		data, err := a.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalSubAck(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
		}
	}
}

func TestSubscribeTrailingBytesRejected(t *testing.T) {
	s := &Subscribe{Channel: 1, Seq: 1, LeaseMs: 1000, Hops: 1, PathID: 9, Profile: 1}
	data, _ := s.Marshal()
	if _, err := UnmarshalSubscribe(append(data, 0)); err == nil {
		t.Fatal("subscribe with trailing bytes accepted")
	}
	a := &SubAck{Channel: 1, Seq: 1, LeaseMs: 1000}
	adata, _ := a.Marshal()
	if _, err := UnmarshalSubAck(append(adata, 0)); err == nil {
		t.Fatal("suback with trailing bytes accepted")
	}
}

func TestSubAckShiftRoundTrip(t *testing.T) {
	a := &SubAck{Channel: 7, Seq: 99, LeaseMs: 15000, Status: SubOK, Profile: 1, ShiftMs: 9500}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (&SubAck{Channel: 7, Seq: 99, LeaseMs: 15000}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data)-headerLen != SubAckBodyLen || len(plain) != len(data) {
		t.Fatalf("suback bodies = %d shifted / %d live bytes, want %d for both",
			len(data)-headerLen, len(plain)-headerLen, SubAckBodyLen)
	}
	got, err := UnmarshalSubAck(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
	// A redirect grants nothing; smuggling a shift onto one must not
	// marshal (the address would land where the shift bytes go).
	r := &SubAck{Channel: 7, Seq: 99, Status: SubRedirect, Redirect: "10.0.0.9:5006", ShiftMs: 1}
	if _, err := r.Marshal(); err == nil {
		t.Fatal("redirect with shift grant marshalled")
	}
}

func TestPauseRoundTrip(t *testing.T) {
	for _, p := range []*Pause{
		{Channel: 7, Seq: 4, Paused: true},
		{Channel: 7, Seq: 5, Paused: false},
	} {
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalPause(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", p, got)
		}
	}
}

func TestPauseMalformed(t *testing.T) {
	good, err := (&Pause{Channel: 1, Seq: 1, Paused: true}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// An undefined state byte is malformed, not silently coerced: the
	// state space is reserved for future cursor verbs.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] = 7
	if _, err := UnmarshalPause(bad); err == nil {
		t.Fatal("unknown pause state accepted")
	}
	if _, err := UnmarshalPause(good[:len(good)-1]); err == nil {
		t.Fatal("truncated pause accepted")
	}
	if _, err := UnmarshalPause(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("pause with trailing bytes accepted")
	}
	d := &Data{Channel: 1, Payload: []byte{1}}
	ddata, _ := d.Marshal()
	if _, err := UnmarshalPause(ddata); err == nil {
		t.Fatal("pause parser accepted data packet")
	}
}

func TestPeekRejectsBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x45},
		{0x00, 0x00, Version, 1, 0, 0, 0, 0},  // bad magic
		{0x45, 0x53, 9, 1, 0, 0, 0, 0},        // bad version
		{0x45, 0x53, 1, 1, 0, 0, 0, 0},        // the previous version
		{0x45, 0x53, Version, 99, 0, 0, 0, 0}, // bad type
	}
	for _, data := range cases {
		if _, _, err := PeekType(data); err == nil {
			t.Errorf("accepted %v", data)
		}
	}
}

func TestCrossTypeParseRejected(t *testing.T) {
	c := &Control{Channel: 5, Params: audio.Voice, Codec: "raw"}
	cdata, _ := c.Marshal()
	if _, err := UnmarshalData(cdata); err == nil {
		t.Fatal("data parser accepted control packet")
	}
	d := &Data{Channel: 5, Payload: []byte{1}}
	ddata, _ := d.Marshal()
	if _, err := UnmarshalControl(ddata); err == nil {
		t.Fatal("control parser accepted data packet")
	}
	if _, err := UnmarshalAnnounce(ddata); err == nil {
		t.Fatal("announce parser accepted data packet")
	}
	if _, err := UnmarshalSubscribe(ddata); err == nil {
		t.Fatal("subscribe parser accepted data packet")
	}
	if _, err := UnmarshalSubAck(ddata); err == nil {
		t.Fatal("suback parser accepted data packet")
	}
	s := &Subscribe{Channel: 5, Seq: 1, LeaseMs: 1000}
	sdata, _ := s.Marshal()
	if _, err := UnmarshalData(sdata); err == nil {
		t.Fatal("data parser accepted subscribe packet")
	}
	if _, err := UnmarshalSubAck(sdata); err == nil {
		t.Fatal("suback parser accepted subscribe packet")
	}
}

func TestControlRejectsBadParams(t *testing.T) {
	c := &Control{Channel: 1, Params: audio.CDQuality, Codec: "ovl"}
	data, _ := c.Marshal()
	// Corrupt the sample rate to zero.
	copy(data[8+28:8+32], []byte{0, 0, 0, 0})
	if _, err := UnmarshalControl(data); err == nil {
		t.Fatal("accepted invalid params")
	}
}

// parsers is the full parser set; every entry must uphold the package
// promise that a malformed packet is an error, never a panic.
var parsers = []struct {
	name  string
	parse func([]byte) error
}{
	{"control", func(b []byte) error { _, err := UnmarshalControl(b); return err }},
	{"data", func(b []byte) error { _, err := UnmarshalData(b); return err }},
	{"announce", func(b []byte) error { _, err := UnmarshalAnnounce(b); return err }},
	{"subscribe", func(b []byte) error { _, err := UnmarshalSubscribe(b); return err }},
	{"suback", func(b []byte) error { _, err := UnmarshalSubAck(b); return err }},
	{"pause", func(b []byte) error { _, err := UnmarshalPause(b); return err }},
	{"peek", func(b []byte) error { _, _, err := PeekType(b); return err }},
}

// validPackets marshals one well-formed packet of every kind.
func validPackets(t testing.TB) map[string][]byte {
	t.Helper()
	c := &Control{Channel: 1, Params: audio.CDQuality, Codec: "ovl", Quality: 10}
	cdata, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d := &Data{Channel: 1, Payload: make([]byte, 100)}
	ddata, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	a := &Announce{Channels: []ChannelInfo{{ID: 1, Name: "x", Group: "g", Codec: "raw", Params: audio.Voice}}}
	adata, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s := &Subscribe{Channel: 1, Seq: 7, LeaseMs: 30000, Hops: 1, PathID: 99, Profile: 2, ShiftMs: 9000}
	sdata, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	k := &SubAck{Channel: 1, Seq: 7, LeaseMs: 15000, Status: SubOK, ShiftMs: 8000}
	kdata, err := k.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pz := &Pause{Channel: 1, Seq: 3, Paused: true}
	pzdata, err := pz.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	al := loadAnnounce()
	aldata, err := al.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rk := &SubAck{Channel: 1, Seq: 7, Status: SubRedirect, Redirect: "10.0.3.2:5006"}
	rkdata, err := rk.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The signed announce: the load-bearing packet with a filled-in
	// signature section, so the truncation table walks through the
	// scheme, generation, length, and signature bytes.
	asn := loadAnnounce()
	asn.SigScheme = AuthHORS
	asn.SigGen = 2
	asn.Sig = bytes.Repeat([]byte{0xAB}, 40)
	asndata, err := asn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"control": cdata, "data": ddata, "announce": adata,
		"subscribe": sdata, "suback": kdata, "pause": pzdata,
		"announce-load": aldata, "suback-redirect": rkdata,
		"announce-signed": asndata,
	}
}

// loadAnnounce builds the announce the truncation table exercises:
// one channel, a relay record with a load vector and one without.
func loadAnnounce() *Announce {
	return &Announce{
		Seq:      8,
		Channels: []ChannelInfo{{ID: 1, Name: "x", Group: "g", Codec: "raw", Params: audio.Voice}},
		Relays: []RelayInfo{
			{Addr: "10.0.0.5:5006", Group: "239.72.1.1:5004", Channel: 1,
				HasLoad: true, Subs: 12, Pressure: 40, Hops: 1},
			{Addr: "10.0.0.6:5006", Group: "10.0.0.5:5006"},
		},
	}
}

// TestTruncationsNeverPanic is the fuzz-style truncation table: every
// prefix of every valid packet kind, fed to every parser, must return
// cleanly — an error for any strict prefix, success only for the
// matching parser on the full packet.
func TestTruncationsNeverPanic(t *testing.T) {
	// Some kinds are another instance of a base packet; they parse with
	// the base kind's parser.
	parserFor := map[string]string{
		"announce-load": "announce", "suback-redirect": "suback",
		"announce-signed": "announce",
	}
	for kind, full := range validPackets(t) {
		want := kind
		if p, ok := parserFor[kind]; ok {
			want = p
		}
		for i := 0; i <= len(full); i++ {
			trunc := full[:i]
			for _, p := range parsers {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s parser panicked on %s[:%d]: %v", p.name, kind, i, r)
						}
					}()
					return p.parse(trunc)
				}()
				// One body per type: no strict prefix of any packet is
				// itself a packet.
				if i < len(full) && err == nil && p.name != "peek" {
					t.Errorf("%s parser accepted truncated %s[:%d]", p.name, kind, i)
				}
				if i == len(full) && p.name == want && err != nil {
					t.Errorf("%s parser rejected its own full %s packet: %v", p.name, kind, err)
				}
			}
		}
	}
}

func TestRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		for _, p := range parsers {
			p.parse(data)
		}
	}
	// And random bytes behind a valid header.
	hdr := []byte{0x45, 0x53, Version, 1, 0, 0, 0, 1}
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		data := append(append([]byte(nil), hdr...), make([]byte, n)...)
		rng.Read(data[8:])
		for _, typ := range []byte{1, 2, 3, 4, 5, 6} {
			data[3] = typ
			for _, p := range parsers {
				p.parse(data)
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	c := &Control{Channel: 1, Params: audio.Voice, Codec: "raw"}
	data, _ := c.Marshal()
	data = append(data, 0xFF)
	if _, err := UnmarshalControl(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDataQuickRoundTrip(t *testing.T) {
	f := func(ch, epoch uint32, seq uint64, playAt int64, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		d := &Data{Channel: ch, Epoch: epoch, Seq: seq, PlayAt: playAt, Payload: payload}
		data, err := d.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalData(data)
		if err != nil {
			return false
		}
		if got.Channel != ch || got.Epoch != epoch || got.Seq != seq || got.PlayAt != playAt {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringLimits(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	c := &Control{Channel: 1, Params: audio.Voice, Codec: string(long)}
	if _, err := c.Marshal(); err == nil {
		t.Fatal("oversized codec name accepted")
	}
}

// TestAnnounceSigRoundTrip: the signature section survives a
// marshal/unmarshal cycle, SplitAnnounceSig recovers exactly the bytes
// the signature covers, and the framing helper refuses the encodings
// the parser could not distinguish.
func TestAnnounceSigRoundTrip(t *testing.T) {
	a := loadAnnounce()
	a.SigScheme = AuthHORS
	a.SigGen = 7
	a.Sig = bytes.Repeat([]byte{0xCD}, 33)
	plain, err := loadAnnounce().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SigScheme != AuthHORS || got.SigGen != 7 || !bytes.Equal(got.Sig, a.Sig) {
		t.Fatalf("sig fields lost: scheme=%v gen=%d siglen=%d", got.SigScheme, got.SigGen, len(got.Sig))
	}
	prefix, scheme, gen, sig, signed, err := SplitAnnounceSig(data)
	if err != nil || !signed || scheme != AuthHORS || gen != 7 {
		t.Fatalf("split = (signed=%v scheme=%v gen=%d err=%v)", signed, scheme, gen, err)
	}
	if !bytes.Equal(prefix, plain[:len(plain)-announceSigLen]) || !bytes.Equal(sig, a.Sig) {
		t.Fatal("split did not recover the signed prefix and signature")
	}
	// The unsigned packet splits at the same place: its section is the
	// all-zero one, and signing is filling that section in.
	uprefix, _, _, _, signed, err := SplitAnnounceSig(plain)
	if err != nil || signed || !bytes.Equal(uprefix, prefix) {
		t.Fatalf("unsigned announce: signed=%v err=%v, same prefix=%v", signed, err, bytes.Equal(uprefix, prefix))
	}
	if resigned, err := AppendAnnounceSig(uprefix, AuthHORS, 7, a.Sig); err != nil || !bytes.Equal(resigned, data) {
		t.Fatalf("signing the unsigned prefix did not reproduce the signed packet (err=%v)", err)
	}
	// Unframeable signature sections are refused at marshal time and off
	// the wire alike.
	for _, bad := range []struct {
		name   string
		scheme AuthScheme
		gen    uint32
		sig    []byte
	}{
		{"signature without a scheme", AuthNone, 0, []byte{1}},
		{"generation without a scheme", AuthNone, 1, nil},
		{"scheme without a signature", AuthHORS, 1, nil},
	} {
		if _, err := AppendAnnounceSig(prefix, bad.scheme, bad.gen, bad.sig); err == nil {
			t.Errorf("%s marshalled", bad.name)
		}
		var sec [announceSigLen]byte
		sec[0] = byte(bad.scheme)
		binary.BigEndian.PutUint32(sec[1:5], bad.gen)
		binary.BigEndian.PutUint16(sec[5:7], uint16(len(bad.sig)))
		pkt := append(append(append([]byte(nil), prefix...), sec[:]...), bad.sig...)
		if _, err := UnmarshalAnnounce(pkt); err == nil {
			t.Errorf("%s parsed", bad.name)
		}
	}
}

func TestAuthSchemeStrings(t *testing.T) {
	for _, a := range []AuthScheme{AuthNone, AuthHMAC, AuthChain, AuthHORS, AuthIdentity, AuthScheme(9)} {
		if a.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
	for _, p := range []PacketType{TypeControl, TypeData, TypeAnnounce, TypeSubscribe, TypeSubAck, TypePause, PacketType(9)} {
		if p.String() == "" {
			t.Fatal("empty type name")
		}
	}
	for _, s := range []SubStatus{SubOK, SubNoChannel, SubTableFull, SubLoop, SubRedirect, SubStatus(9)} {
		if s.String() == "" {
			t.Fatal("empty status name")
		}
	}
}

func TestDataFitsInDatagramForTypicalBlocks(t *testing.T) {
	// A 1400-byte payload (the rebroadcaster's chunking target) must
	// marshal under the LAN datagram limit of 1472.
	d := &Data{Channel: 1, Payload: make([]byte, 1400)}
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1472 {
		t.Fatalf("marshalled size %d exceeds datagram limit", len(data))
	}
}

// benchData is a full data packet: the rebroadcaster's 1400-byte
// chunking target.
func benchData() *Data {
	return &Data{Channel: 1, Epoch: 1, Seq: 42, PlayAt: 123456789,
		Payload: make([]byte, 1400)}
}

var benchSink []byte

// BenchmarkProtoDataMarshal prices wire encoding of a full data packet.
func BenchmarkProtoDataMarshal(b *testing.B) {
	d := benchData()
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = d.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoDataUnmarshal prices the speaker's parse path.
func BenchmarkProtoDataUnmarshal(b *testing.B) {
	pkt, err := benchData().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalData(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
