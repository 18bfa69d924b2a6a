package rebroadcast

import (
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/vad"
	"repro/internal/vclock"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Group: "239.1.1.1:5004"}
	c.applyDefaults()
	if c.ControlInterval != DefaultControlInterval ||
		c.ChunkBytes != DefaultChunkBytes ||
		c.Lead != DefaultLead ||
		c.CompressThreshold != DefaultCompressThreshold {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.Quality != codec.MaxQuality {
		t.Fatalf("quality default = %d", c.Quality)
	}
	if c.Preroll != c.Lead/2 {
		t.Fatalf("preroll default = %v", c.Preroll)
	}
	z := Config{Group: "239.1.1.1:5004", Quality: QualityZero}
	z.applyDefaults()
	if z.Quality != 0 {
		t.Fatalf("QualityZero mapped to %d", z.Quality)
	}
	big := Config{Group: "239.1.1.1:5004", Preroll: time.Hour, Lead: time.Second}
	big.applyDefaults()
	if big.Preroll > big.Lead {
		t.Fatalf("preroll %v exceeds lead %v", big.Preroll, big.Lead)
	}
}

func TestNewRejectsUnicastGroup(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5000")
	if _, err := New(sim, conn, Config{Group: "10.0.0.2:5004"}); err == nil {
		t.Fatal("unicast group accepted")
	}
}

func TestCodecPolicy(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5000")
	r, err := New(sim, conn, Config{Group: "239.1.1.1:5004"})
	if err != nil {
		t.Fatal(err)
	}
	// CD quality (1.4 Mbps) compresses; telephony (64 kbps) ships raw.
	if got := r.chooseCodec(audio.CDQuality); got != "ovl" {
		t.Fatalf("CD -> %s, want ovl", got)
	}
	if got := r.chooseCodec(audio.Voice); got != "raw" {
		t.Fatalf("voice -> %s, want raw", got)
	}
	// 8-bit encodings never get the transform codec.
	p8 := audio.Params{SampleRate: 48000, Channels: 8, Encoding: audio.EncodingULaw}
	if got := r.chooseCodec(p8); got != "raw" {
		t.Fatalf("8-bit high-rate -> %s, want raw", got)
	}
	// Explicit codec wins.
	conn2, _ := seg.Attach("10.0.0.2:5000")
	r2, _ := New(sim, conn2, Config{Group: "239.1.1.2:5004", Codec: "raw"})
	if got := r2.chooseCodec(audio.CDQuality); got != "raw" {
		t.Fatalf("forced codec ignored: %s", got)
	}
}

// runChannel pumps a clip through a VAD + rebroadcaster and captures the
// multicast packets.
func runChannel(t *testing.T, cfg Config, p audio.Params, clip time.Duration) ([]lan.Packet, Stats) {
	t.Helper()
	pkts, st, _ := runProducer(t, cfg, func(_ *vclock.Sim, slave *audiodev.Device) {
		if err := slave.Open(p); err != nil {
			t.Error(err)
			return
		}
		total := p.BytesFor(clip)
		tone := audio.NewTone(p.SampleRate, p.Channels, 440, 0.5)
		buf := make([]int16, 2048*p.Channels)
		written := 0
		for written < total {
			n, _ := tone.ReadSamples(buf)
			raw := audio.Encode(p, buf[:n])
			if written+len(raw) > total {
				raw = raw[:total-written]
			}
			slave.Write(raw)
			written += len(raw)
		}
		slave.Drain()
	})
	return pkts, st
}

// runProducer runs a rebroadcaster on a VAD whose slave play drives, then
// closes the VAD, and returns the multicast packets, the producer's
// accounting and its clock epoch (what PlayAt counts from).
func runProducer(t *testing.T, cfg Config, play func(sim *vclock.Sim, slave *audiodev.Device)) ([]lan.Packet, Stats, time.Time) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, err := seg.Attach("10.0.0.1:5000")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(sim, conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := vad.New(sim, vad.Config{})
	recv, _ := seg.Attach("10.0.0.2:5004")
	recv.Join(cfg.Group)
	var pkts []lan.Packet
	sim.Go("capture", func() {
		for {
			pkt, err := recv.Recv(2 * time.Second)
			if err == lan.ErrTimeout {
				return
			}
			if err != nil {
				return
			}
			pkts = append(pkts, pkt)
		}
	})
	sim.Go("rebroadcast", func() {
		r.Run(v.Master())
	})
	sim.Go("player", func() {
		play(sim, v.Slave())
		v.Close()
		// The capture task winds the run down via its receive timeout.
	})
	sim.WaitIdle()
	return pkts, r.Stats(), r.start
}

func TestControlCadenceAndContent(t *testing.T) {
	cfg := Config{ID: 7, Name: "t", Group: "239.1.1.1:5004",
		ControlInterval: 200 * time.Millisecond}
	pkts, st := runChannel(t, cfg, audio.Voice, 2*time.Second)
	var controls []*proto.Control
	var datas int
	for _, pkt := range pkts {
		typ, ch, err := proto.PeekType(pkt.Data)
		if err != nil {
			t.Fatalf("bad packet on wire: %v", err)
		}
		if ch != 7 {
			t.Fatalf("channel = %d", ch)
		}
		switch typ {
		case proto.TypeControl:
			c, err := proto.UnmarshalControl(pkt.Data)
			if err != nil {
				t.Fatal(err)
			}
			controls = append(controls, c)
		case proto.TypeData:
			datas++
		}
	}
	// ~2s at 200ms cadence: at least 8 control packets.
	if len(controls) < 8 {
		t.Fatalf("%d control packets over 2s at 200ms cadence", len(controls))
	}
	if datas == 0 {
		t.Fatal("no data packets")
	}
	for _, c := range controls {
		if c.Params != audio.Voice || c.Codec != "raw" {
			t.Fatalf("control content: %+v", c)
		}
		if c.Interval != 200 {
			t.Fatalf("interval field = %d", c.Interval)
		}
	}
	if st.ControlPackets != int64(len(controls)) {
		t.Fatalf("stats/wire mismatch: %d vs %d", st.ControlPackets, len(controls))
	}
}

func TestDataTimestampsMonotoneAndSpaced(t *testing.T) {
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw"}
	pkts, _ := runChannel(t, cfg, audio.Voice, 2*time.Second)
	var prev *proto.Data
	var total time.Duration
	for _, pkt := range pkts {
		typ, _, _ := proto.PeekType(pkt.Data)
		if typ != proto.TypeData {
			continue
		}
		d, err := proto.UnmarshalData(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if d.Seq != prev.Seq+1 {
				t.Fatalf("seq gap: %d -> %d", prev.Seq, d.Seq)
			}
			if d.PlayAt <= prev.PlayAt {
				t.Fatalf("timestamps not monotone: %d -> %d", prev.PlayAt, d.PlayAt)
			}
			// PlayAt delta equals the previous payload's duration.
			want := audio.Voice.Duration(len(prev.Payload))
			if got := time.Duration(d.PlayAt - prev.PlayAt); got != want {
				t.Fatalf("PlayAt delta %v != payload duration %v", got, want)
			}
		}
		total += audio.Voice.Duration(len(d.Payload))
		prev = d
	}
	if total < 1900*time.Millisecond || total > 2100*time.Millisecond {
		t.Fatalf("total stamped audio %v, want ~2s", total)
	}
}

func TestRateLimiterPacing(t *testing.T) {
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw",
		Lead: 100 * time.Millisecond, Preroll: 50 * time.Millisecond}
	pkts, _ := runChannel(t, cfg, audio.Voice, 3*time.Second)
	var dataPkts []lan.Packet
	for _, pkt := range pkts {
		if typ, _, _ := proto.PeekType(pkt.Data); typ == proto.TypeData {
			dataPkts = append(dataPkts, pkt)
		}
	}
	if len(dataPkts) < 3 {
		t.Fatalf("%d data packets", len(dataPkts))
	}
	span := dataPkts[len(dataPkts)-1].Recv.Sub(dataPkts[0].Recv)
	// 3s of audio must take ~3s to transmit (minus the preroll).
	if span < 2500*time.Millisecond || span > 3200*time.Millisecond {
		t.Fatalf("transmission span %v, want ~2.95s", span)
	}
}

func TestSignHookWrapsPackets(t *testing.T) {
	marker := []byte("SIGNED")
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw",
		Sign: func(pkt []byte) []byte { return append(append([]byte(nil), pkt...), marker...) }}
	pkts, _ := runChannel(t, cfg, audio.Voice, 500*time.Millisecond)
	if len(pkts) == 0 {
		t.Fatal("no packets")
	}
	for _, pkt := range pkts {
		tail := pkt.Data[len(pkt.Data)-len(marker):]
		if string(tail) != string(marker) {
			t.Fatal("packet not signed")
		}
	}
}

func TestCatalogAnnouncesAndStops(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5000")
	cat := NewCatalog(sim, conn, "239.72.0.1:5003", 100*time.Millisecond)
	cat.SetChannel(proto.ChannelInfo{ID: 2, Name: "two", Group: "g2", Codec: "raw"})
	cat.SetChannel(proto.ChannelInfo{ID: 1, Name: "one", Group: "g1", Codec: "raw"})
	recv, _ := seg.Attach("10.0.0.2:5003")
	recv.Join("239.72.0.1:5003")
	var anns []*proto.Announce
	sim.Go("capture", func() {
		// However capture ends, the catalog stops with it, or WaitIdle
		// would never return.
		defer cat.Stop()
		defer recv.Close()
		for len(anns) < 3 {
			pkt, err := recv.Recv(time.Second)
			if err != nil {
				return
			}
			a, err := proto.UnmarshalAnnounce(pkt.Data)
			if err != nil {
				t.Error(err)
				return
			}
			anns = append(anns, a)
		}
	})
	sim.Go("catalog", cat.Run)
	sim.WaitIdle()
	if len(anns) < 3 {
		t.Fatalf("got %d announcements", len(anns))
	}
	// Entries are sorted by id and complete.
	for _, a := range anns {
		if len(a.Channels) != 2 || a.Channels[0].ID != 1 || a.Channels[1].ID != 2 {
			t.Fatalf("announce content: %+v", a)
		}
	}
	// Removal takes effect.
	cat.RemoveChannel(1)
	if got := cat.Announcements(); got < 3 {
		t.Fatalf("announcements = %d", got)
	}
}

func TestCatalogAnnouncesRelays(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, _ := seg.Attach("10.0.0.1:5000")
	cat := NewCatalog(sim, conn, "239.72.0.1:5003", 100*time.Millisecond)
	cat.SetChannel(proto.ChannelInfo{ID: 1, Name: "one", Group: "g1", Codec: "raw"})
	cat.SetRelay(proto.RelayInfo{Addr: "10.0.0.9:5006", Group: "g1", Channel: 1})
	cat.SetRelay(proto.RelayInfo{Addr: "10.0.0.8:5006", Group: "10.0.0.9:5006"})
	recv, _ := seg.Attach("10.0.0.2:5003")
	recv.Join("239.72.0.1:5003")
	var anns []*proto.Announce
	sim.Go("capture", func() {
		// However capture ends, the catalog stops with it, or WaitIdle
		// would never return.
		defer cat.Stop()
		defer recv.Close()
		for len(anns) < 3 {
			pkt, err := recv.Recv(time.Second)
			if err != nil {
				return
			}
			a, err := proto.UnmarshalAnnounce(pkt.Data)
			if err != nil {
				t.Error(err)
				return
			}
			anns = append(anns, a)
			if len(anns) == 2 {
				// Relay removal must take effect on the next announce.
				cat.RemoveRelay("10.0.0.8:5006")
			}
		}
	})
	sim.Go("catalog", cat.Run)
	sim.WaitIdle()
	if len(anns) < 3 {
		t.Fatalf("got %d announcements", len(anns))
	}
	// Relay records ride along with the channels, sorted by address.
	a := anns[0]
	if len(a.Channels) != 1 || len(a.Relays) != 2 {
		t.Fatalf("announce content: %+v", a)
	}
	if a.Relays[0].Addr != "10.0.0.8:5006" || a.Relays[1].Addr != "10.0.0.9:5006" {
		t.Fatalf("relay order: %+v", a.Relays)
	}
	if a.Relays[1].Channel != 1 || a.Relays[1].Group != "g1" {
		t.Fatalf("relay record: %+v", a.Relays[1])
	}
	if last := anns[len(anns)-1]; len(last.Relays) != 1 || last.Relays[0].Addr != "10.0.0.9:5006" {
		t.Fatalf("relay removal not announced: %+v", last.Relays)
	}
}

// lateClock is a simulated clock whose sleeps overshoot by over.
type lateClock struct {
	*vclock.Sim
	over time.Duration
}

func (c lateClock) Sleep(d time.Duration) {
	if d > 0 {
		c.Sim.Sleep(d + c.over)
	}
}

func TestSleepToNextKeepsCadence(t *testing.T) {
	// 100 turns of a 1 s task whose sleeps run 4 ms over and whose work
	// takes 2 ms: the last turn starts 100 s + one overshoot after the
	// first, not 100 × 1.006 s. A turn that overruns the interval outright
	// is followed at once, and the count restarts there.
	const interval, over, work = time.Second, 4 * time.Millisecond, 2 * time.Millisecond
	sim := vclock.NewSim(time.Time{})
	clock := lateClock{sim, over}
	var turns []time.Time
	sim.Go("task", func() {
		next := clock.Now()
		for i := 0; i <= 100; i++ {
			turns = append(turns, clock.Now())
			sim.Sleep(work)
			if i == 50 {
				sim.Sleep(3 * interval)
			}
			next = sleepToNext(clock, next, interval)
		}
	})
	sim.WaitIdle()
	if span := turns[50].Sub(turns[0]); span != 50*interval+over {
		t.Fatalf("50 turns spanned %v, want %v", span, 50*interval+over)
	}
	if gap := turns[51].Sub(turns[50]); gap != work+3*interval {
		t.Fatalf("turn after the overrun came %v later, want %v", gap, work+3*interval)
	}
	if span := turns[100].Sub(turns[51]); span != 49*interval+over {
		t.Fatalf("49 turns after the overrun spanned %v, want %v", span, 49*interval+over)
	}
}

// liveChunk is how much audio a live writer hands the VAD at a time.
const liveChunk = 10 * time.Millisecond

// writeLive plays the application that writes on the audio clock: a
// liveChunk of p every liveChunk for dur. It returns when each chunk was
// written.
func writeLive(sim *vclock.Sim, slave *audiodev.Device, p audio.Params, dur time.Duration) []time.Time {
	chunk := make([]byte, p.BytesFor(liveChunk))
	var at []time.Time
	for i := time.Duration(0); i < dur; i += liveChunk {
		at = append(at, sim.Now())
		slave.Write(chunk)
		sim.Sleep(liveChunk)
	}
	return at
}

// checkLivePlayAt asserts that every data packet is stamped to play
// exactly DefaultLead after the live chunk its audio starts in was
// written: writes lists the chunks' write times across every run, in
// order, and start is the producer's clock epoch.
func checkLivePlayAt(t *testing.T, pkts []lan.Packet, start time.Time, p audio.Params, writes []time.Time) {
	t.Helper()
	var offset time.Duration
	n := 0
	for _, pkt := range pkts {
		if typ, _, _ := proto.PeekType(pkt.Data); typ != proto.TypeData {
			continue
		}
		d, err := proto.UnmarshalData(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		i := int(offset / liveChunk)
		if i >= len(writes) {
			t.Fatalf("packet %d starts at %v of audio, past the %d chunks written", n, offset, len(writes))
		}
		want := int64(writes[i].Sub(start) + DefaultLead)
		if d.PlayAt != want {
			t.Fatalf("packet %d (audio from %v, chunk %d): PlayAt %v, want the chunk's write + lead = %v",
				n, offset, i, time.Duration(d.PlayAt), time.Duration(want))
		}
		offset += p.Duration(len(d.Payload))
		n++
	}
	if want := time.Duration(len(writes)) * liveChunk; offset != want {
		t.Fatalf("%v of audio stamped, want the %v written", offset, want)
	}
}

func TestLivePlayheadStartsAtFirstWrite(t *testing.T) {
	// A live writer's first block leaves the VAD only once a whole block
	// (50 ms) is buffered, four chunks after its first write. The stream's
	// timeline still starts at that first write: its first frame plays
	// Lead after it was written, and so does every later one.
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw"}
	p := audio.Voice
	var writes []time.Time
	pkts, _, start := runProducer(t, cfg, func(sim *vclock.Sim, slave *audiodev.Device) {
		slave.Open(p)
		sim.Sleep(30 * time.Millisecond)
		writes = writeLive(sim, slave, p, time.Second)
		slave.Drain()
	})
	checkLivePlayAt(t, pkts, start, p, writes)
}

func TestBlastPlayheadStartsAtWrite(t *testing.T) {
	// A writer that hands over a whole clip at once fills a block with its
	// first write: the run starts and the VAD triggers at the same instant,
	// and the timeline starts there.
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw"}
	p := audio.Voice
	pkts, _, _ := runProducer(t, cfg, func(sim *vclock.Sim, slave *audiodev.Device) {
		slave.Open(p)
		sim.Sleep(30 * time.Millisecond)
		slave.Write(make([]byte, p.BytesFor(time.Second)))
		slave.Drain()
	})
	for _, pkt := range pkts {
		if typ, _, _ := proto.PeekType(pkt.Data); typ != proto.TypeData {
			continue
		}
		d, err := proto.UnmarshalData(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if want := 30*time.Millisecond + DefaultLead; time.Duration(d.PlayAt) != want {
			t.Fatalf("first PlayAt %v after the producer started, want %v", time.Duration(d.PlayAt), want)
		}
		return
	}
	t.Fatal("no data packets")
}

func TestLivePlayheadRestartsWithRun(t *testing.T) {
	// A second run's timeline starts at its own first write, whether the
	// application closed and reopened the slave between songs or only
	// stopped writing for longer than the playhead's one-second gap.
	p := audio.Voice
	for _, tc := range []struct {
		name   string
		reopen bool
		pause  time.Duration
	}{
		{"reopen", true, 200 * time.Millisecond},
		{"pause", false, 1500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw"}
			var writes []time.Time
			pkts, st, start := runProducer(t, cfg, func(sim *vclock.Sim, slave *audiodev.Device) {
				slave.Open(p)
				writes = writeLive(sim, slave, p, 300*time.Millisecond)
				slave.Drain()
				if tc.reopen {
					slave.Close()
				}
				sim.Sleep(tc.pause)
				if tc.reopen {
					slave.Open(p)
				}
				writes = append(writes, writeLive(sim, slave, p, 300*time.Millisecond)...)
				slave.Drain()
			})
			if tc.reopen && st.Reconfigs != 2 {
				t.Fatalf("%d stream epochs, want 2", st.Reconfigs)
			}
			checkLivePlayAt(t, pkts, start, p, writes)
		})
	}
}

func TestPausedFirstBlockStartsAtRealTime(t *testing.T) {
	// An application that writes less than a block, pauses, then writes
	// live dates its first block from a write long before the block
	// leaves. That date must not start the timeline: every packet still
	// plays at least Lead less one block after it is sent, as it did
	// before the timeline started at the first write.
	cfg := Config{ID: 1, Group: "239.1.1.1:5004", Codec: "raw"}
	p := audio.Voice
	block := p.Duration(p.BytesFor(audiodev.DefaultBlockMillis * time.Millisecond))
	pkts, _, start := runProducer(t, cfg, func(sim *vclock.Sim, slave *audiodev.Device) {
		slave.Open(p)
		slave.Write(make([]byte, p.BytesFor(20*time.Millisecond)))
		sim.Sleep(500 * time.Millisecond)
		writeLive(sim, slave, p, time.Second)
		slave.Drain()
	})
	n := 0
	for _, pkt := range pkts {
		if typ, _, _ := proto.PeekType(pkt.Data); typ != proto.TypeData {
			continue
		}
		d, err := proto.UnmarshalData(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if floor := pkt.Sent.Sub(start) + DefaultLead - block; time.Duration(d.PlayAt) < floor {
			t.Fatalf("packet %d sent at %v: PlayAt %v, want at least %v",
				n, pkt.Sent.Sub(start), time.Duration(d.PlayAt), floor)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no data packets")
	}
}

// discardConn is a lan.Conn whose sends go nowhere.
type discardConn struct{}

func (discardConn) LocalAddr() lan.Addr                    { return "10.0.0.1:5000" }
func (discardConn) Send(lan.Addr, []byte) error            { return nil }
func (discardConn) Recv(time.Duration) (lan.Packet, error) { return lan.Packet{}, lan.ErrClosed }
func (discardConn) Join(lan.Addr) error                    { return nil }
func (discardConn) Leave(lan.Addr) error                   { return nil }
func (discardConn) Close() error                           { return nil }

// BenchmarkProducerPacket prices the producer's per-packet path: one
// 10 ms CD-quality VAD block (what a live writer's chunk becomes) through
// encode, packetize, Data marshal and send, on a conn that discards. The
// rate limiter is off, so no sleep is timed.
func BenchmarkProducerPacket(b *testing.B) {
	p := audio.CDQuality
	tone := audio.NewTone(p.SampleRate, p.Channels, 440, 0.5)
	samples := make([]int16, p.SampleRate/100*p.Channels)
	tone.ReadSamples(samples)
	data := audio.Encode(p, samples)
	for _, name := range []string{"raw", "ovl"} {
		b.Run(name, func(b *testing.B) {
			sim := vclock.NewSim(time.Time{})
			r, err := New(sim, discardConn{}, Config{ID: 1, Group: "239.1.1.1:5004", Codec: name, DisableRateLimit: true})
			if err != nil {
				b.Fatal(err)
			}
			r.reconfigure(p)
			blk := vad.Block{Params: p, Data: data}
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Seq = int64(i)
				r.handleData(blk)
			}
			b.StopTimer()
			if st := r.Stats(); st.EncodeErrors != 0 || st.SendErrors != 0 || st.DataPackets == 0 {
				b.Fatalf("stats %+v", st)
			}
			b.ReportMetric(float64(r.Stats().DataPackets)/float64(b.N), "pkts/op")
		})
	}
}
