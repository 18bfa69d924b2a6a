package core

import (
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/speaker"
	"repro/internal/vad"
)

// parseAnnounce extracts the channel names from an announce packet.
func parseAnnounce(data []byte) ([]string, error) {
	a, err := proto.UnmarshalAnnounce(data)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(a.Channels))
	for i, ci := range a.Channels {
		names[i] = ci.Name
	}
	return names, nil
}

// group returns a distinct multicast group per channel id.
func group(id int) lan.Addr {
	return lan.Addr("239.72.1." + string(rune('0'+id)) + ":5004")
}

func TestEndToEndSingleSpeaker(t *testing.T) {
	sys := NewSim(lan.SegmentConfig{Latency: 200 * time.Microsecond})
	ch, err := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "test", Group: "239.72.1.1:5004",
	}, vad.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.AddSpeaker(speaker.Config{
		Name: "es1", Group: "239.72.1.1:5004",
	})
	if err != nil {
		t.Fatal(err)
	}
	p := audio.CDQuality
	sys.Clock.Go("player", func() {
		if err := ch.Play(p, audio.Music(p.SampleRate, p.Channels), 3*time.Second); err != nil {
			t.Error(err)
		}
		// Play returns once the pipeline has buffered the tail; wait for
		// the rate-limited stream to actually play out.
		sys.Clock.Sleep(5 * time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()

	st := sp.Stats()
	if st.ControlPackets == 0 {
		t.Fatal("speaker saw no control packets")
	}
	if st.DataPackets == 0 {
		t.Fatal("speaker saw no data packets")
	}
	// Most of 3 seconds of CD audio should have been played (allow for
	// codec latency and the packets sent before the first control).
	want := int64(p.BytesPerSecond()) * 19 / 10
	if st.BytesPlayed < want {
		t.Fatalf("played %d bytes, want >= %d (stats %+v)", st.BytesPlayed, want, st)
	}
	if st.DroppedLate > st.DataPackets/10 {
		t.Fatalf("excessive late drops: %+v", st)
	}
	rst := ch.Reb.Stats()
	if rst.DataPackets == 0 || rst.ControlPackets == 0 {
		t.Fatalf("rebroadcaster stats: %+v", rst)
	}
	// CD-quality stream must have been compressed (§2.2 policy).
	if rst.PayloadBytes >= rst.SourceBytes {
		t.Fatalf("no compression: payload %d >= source %d", rst.PayloadBytes, rst.SourceBytes)
	}
}

func TestEndToEndRateLimited(t *testing.T) {
	// The producer must pace the stream: sending 3 seconds of audio
	// takes ~3 seconds of simulated time (§3.1).
	sys := NewSim(lan.SegmentConfig{})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "rate", Group: "239.72.1.1:5004",
	}, vad.Config{QueueBlocks: 8})
	sp, _ := sys.AddSpeaker(speaker.Config{Name: "es1", Group: "239.72.1.1:5004"})
	_ = sp
	p := audio.Voice
	start := sys.Clock.Now()
	var playDone time.Duration
	sys.Clock.Go("player", func() {
		// The song must be much longer than the pipeline's total
		// buffering (VAD ring + master queue) for the §3.1 effect.
		ch.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), 30*time.Second)
		playDone = sys.Clock.Since(start)
		sys.Clock.Sleep(time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()
	// Play returns after drain; the rebroadcaster's rate limiter is the
	// backpressure. Allow for the few seconds of pipeline buffering.
	if playDone < 25*time.Second {
		t.Fatalf("30s of audio drained in %v: rate limiter missing", playDone)
	}
	if playDone > 31*time.Second {
		t.Fatalf("30s of audio took %v", playDone)
	}
}

func TestEndToEndVoiceStaysRaw(t *testing.T) {
	sys := NewSim(lan.SegmentConfig{})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "voice", Group: "239.72.1.1:5004",
	}, vad.Config{})
	sys.AddSpeaker(speaker.Config{Name: "es1", Group: "239.72.1.1:5004"})
	p := audio.Voice
	sys.Clock.Go("player", func() {
		ch.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), 2*time.Second)
		sys.Clock.Sleep(time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()
	rst := ch.Reb.Stats()
	// Low-bitrate channels ship uncompressed (§2.2): payload == source.
	if rst.PayloadBytes != rst.SourceBytes {
		t.Fatalf("voice channel was transformed: payload %d, source %d",
			rst.PayloadBytes, rst.SourceBytes)
	}
}

func TestEndToEndTwoSpeakersSynchronized(t *testing.T) {
	// Two speakers started together play within epsilon of each other
	// (§3.2).
	sys := NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "sync", Group: "239.72.1.1:5004", Codec: "raw",
	}, vad.Config{})
	meter := NewSkewMeter()
	for _, name := range []string{"es1", "es2"} {
		sp, err := sys.AddSpeaker(speaker.Config{Name: name, Group: "239.72.1.1:5004"})
		if err != nil {
			t.Fatal(err)
		}
		meter.Attach(name, sp)
	}
	p := audio.Params{SampleRate: 44100, Channels: 1, Encoding: audio.EncodingSLinear16LE}
	start := sys.Clock.Now()
	sys.Clock.Go("player", func() {
		ch.Play(p, &PositionSource{Channels: 1}, 4*time.Second)
		// Wait for the rate-limited stream to play out before shutdown.
		sys.Clock.Sleep(6 * time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()

	times := SampleTimes(start.Add(2*time.Second), start.Add(4*time.Second), 50)
	skews := meter.Skew("es1", "es2", times)
	if len(skews) < 10 {
		t.Fatalf("only %d skew samples", len(skews))
	}
	for _, ms := range skews {
		if ms < -15 || ms > 15 {
			t.Fatalf("skew %v ms beyond epsilon band; samples %v", ms, skews)
		}
	}
}

func TestEndToEndLateJoinerConverges(t *testing.T) {
	// A speaker that tunes in mid-stream must converge onto the same
	// schedule as one that was there from the start (§3.2).
	sys := NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "late", Group: "239.72.1.1:5004", Codec: "raw",
		ControlInterval: 500 * time.Millisecond,
	}, vad.Config{})
	meter := NewSkewMeter()
	sp1, _ := sys.AddSpeaker(speaker.Config{Name: "early", Group: "239.72.1.1:5004"})
	meter.Attach("early", sp1)

	p := audio.Params{SampleRate: 44100, Channels: 1, Encoding: audio.EncodingSLinear16LE}
	start := sys.Clock.Now()
	sys.Clock.Go("player", func() {
		ch.Play(p, &PositionSource{Channels: 1}, 6*time.Second)
		sys.Clock.Sleep(8 * time.Second)
		sys.Shutdown()
	})
	sys.Clock.Go("latecomer", func() {
		sys.Clock.Sleep(2 * time.Second)
		sp2, err := sys.AddSpeaker(speaker.Config{Name: "late", Group: "239.72.1.1:5004"})
		if err != nil {
			t.Error(err)
			return
		}
		meter.Attach("late", sp2)
	})
	sys.Sim.WaitIdle()

	first, ok := meter.FirstSound("late")
	if !ok {
		t.Fatal("late joiner never played")
	}
	// It joined at t+2s and had to wait for a control packet — first
	// sound within ~1.5s of joining.
	if d := first.Sub(start.Add(2 * time.Second)); d > 1500*time.Millisecond {
		t.Fatalf("late joiner took %v to start", d)
	}
	times := SampleTimes(first.Add(time.Second), start.Add(6*time.Second), 30)
	skews := meter.Skew("early", "late", times)
	if len(skews) < 5 {
		t.Fatalf("only %d skew samples", len(skews))
	}
	for _, ms := range skews {
		if ms < -15 || ms > 15 {
			t.Fatalf("late joiner skew %v ms; samples %v", ms, skews)
		}
	}
}

func TestSkewMeterIgnoresBlocksOpeningOnSilence(t *testing.T) {
	// A DAC 2% fast runs ε ahead after ε/2% seconds and is put back by
	// one gap-fill: ε of silence in the middle of the ramp. With ε longer
	// than a hardware block (50 ms), one block is certain to open inside
	// the silence. That block has no position; recorded as position 0 it
	// would read as a skew of up to half a ramp (227 ms). The worst true
	// skew is the gap's own length, plus the 2% of its ~200 ms queue by
	// which the fast speaker misjudges its DAC (4 ms).
	const eps = 60 * time.Millisecond
	sys := NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "gap", Group: "239.72.1.1:5004", Codec: "raw",
	}, vad.Config{})
	meter := NewSkewMeter()
	sps := map[string]*speaker.Speaker{}
	for name, speed := range map[string]float64{"nominal": 1, "fast": 1.02} {
		sp, err := sys.AddSpeaker(speaker.Config{Name: name, Group: "239.72.1.1:5004",
			DACSpeed: speed, Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		meter.Attach(name, sp)
		sps[name] = sp
	}
	p := audio.Params{SampleRate: 44100, Channels: 1, Encoding: audio.EncodingSLinear16LE}
	start := sys.Clock.Now()
	const clip = 5 * time.Second
	sys.Clock.Go("player", func() {
		ch.Play(p, &PositionSource{Channels: 1}, clip)
		sys.Clock.Sleep(clip + 2*time.Second)
		sys.Shutdown()
	})
	var settled int64 // gap-fills while the stream was starting up
	sys.Clock.Go("settled", func() {
		sys.Clock.Sleep(time.Second)
		settled = sps["fast"].Stats().GapFills
	})
	sys.Sim.WaitIdle()

	if g := sps["fast"].Stats().GapFills - settled; g != 1 {
		t.Fatalf("fast speaker gap-filled %d times after the first second, want exactly 1", g)
	}
	gap := float64(eps / time.Millisecond)
	skews := meter.Skew("fast", "nominal", SampleTimes(start.Add(time.Second), start.Add(clip), 4000))
	if len(skews) < 3000 {
		t.Fatalf("only %d skew samples", len(skews))
	}
	for _, ms := range skews {
		if ms < -1 || ms > gap+5 {
			t.Fatalf("skew sample %.1f ms, beyond the gap's %v ms", ms, gap)
		}
	}
}

func TestEndToEndNoSyncDrifts(t *testing.T) {
	// Ablation: with NoSync, a late joiner plays immediately on arrival
	// and stays offset from the early speaker by far more than epsilon.
	sys := NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "nosync", Group: "239.72.1.1:5004", Codec: "raw",
		ControlInterval: 250 * time.Millisecond,
		Lead:            500 * time.Millisecond,
		Preroll:         400 * time.Millisecond,
	}, vad.Config{})
	meter := NewSkewMeter()
	sp1, _ := sys.AddSpeaker(speaker.Config{Name: "early", Group: "239.72.1.1:5004", NoSync: true})
	meter.Attach("early", sp1)
	p := audio.Params{SampleRate: 44100, Channels: 1, Encoding: audio.EncodingSLinear16LE}
	start := sys.Clock.Now()
	sys.Clock.Go("player", func() {
		ch.Play(p, &PositionSource{Channels: 1}, 6*time.Second)
		sys.Clock.Sleep(8 * time.Second)
		sys.Shutdown()
	})
	sys.Clock.Go("latecomer", func() {
		sys.Clock.Sleep(2 * time.Second)
		sp2, _ := sys.AddSpeaker(speaker.Config{Name: "late", Group: "239.72.1.1:5004", NoSync: true})
		meter.Attach("late", sp2)
	})
	sys.Sim.WaitIdle()

	first, ok := meter.FirstSound("late")
	if !ok {
		t.Fatal("late joiner never played")
	}
	times := SampleTimes(first.Add(time.Second), start.Add(6*time.Second), 30)
	skews := meter.Skew("early", "late", times)
	if len(skews) < 5 {
		t.Fatalf("only %d skew samples", len(skews))
	}
	// Without sync the skew should reflect the buffering offset: tens to
	// hundreds of ms.
	var worst float64
	for _, ms := range skews {
		if ms > worst {
			worst = ms
		}
		if -ms > worst {
			worst = -ms
		}
	}
	if worst < 20 {
		t.Fatalf("NoSync speakers unexpectedly aligned: worst skew %.1f ms", worst)
	}
}

func TestEndToEndReconfiguration(t *testing.T) {
	// Changing stream parameters mid-flight bumps the epoch; the speaker
	// follows the new configuration.
	sys := NewSim(lan.SegmentConfig{})
	ch, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "reconf", Group: "239.72.1.1:5004",
		ControlInterval: 200 * time.Millisecond,
	}, vad.Config{})
	sp, _ := sys.AddSpeaker(speaker.Config{Name: "es1", Group: "239.72.1.1:5004"})
	sys.Clock.Go("player", func() {
		ch.Play(audio.Voice, audio.NewTone(8000, 1, 300, 0.5), time.Second)
		sys.Clock.Sleep(1500 * time.Millisecond)
		ch.Play(audio.CDQuality, audio.Music(44100, 2), time.Second)
		sys.Clock.Sleep(3 * time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()
	if got := ch.Reb.Epoch(); got < 2 {
		t.Fatalf("epoch = %d, want >= 2", got)
	}
	// Speaker must have ended on the CD config.
	if got := sp.Device().Params(); got != audio.CDQuality {
		t.Fatalf("speaker params = %v", got)
	}
	st := sp.Stats()
	if st.BytesPlayed == 0 {
		t.Fatal("nothing played after reconfiguration")
	}
}

func TestEndToEndCatalog(t *testing.T) {
	sys := NewSim(lan.SegmentConfig{})
	if err := sys.StartCatalog(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sys.AddChannel(rebroadcast.Config{ID: 1, Name: "one", Group: "239.72.1.1:5004"}, vad.Config{})
	sys.AddChannel(rebroadcast.Config{ID: 2, Name: "two", Group: "239.72.1.2:5004"}, vad.Config{})

	// A listener on the catalog group sees both channels without joining
	// either audio group (§4.3).
	conn, err := sys.Net.Attach("10.0.9.1:5003")
	if err != nil {
		t.Fatal(err)
	}
	conn.Join(CatalogGroup)
	var names []string
	done := make(chan struct{})
	sys.Clock.Go("listener", func() {
		defer close(done)
		defer conn.Close()
		deadline := sys.Clock.Now().Add(2 * time.Second)
		for sys.Clock.Now().Before(deadline) {
			pkt, err := conn.Recv(500 * time.Millisecond)
			if err != nil {
				continue
			}
			if a, err := parseAnnounce(pkt.Data); err == nil && len(a) == 2 {
				names = a
				return
			}
		}
	})
	// The producer tasks run until shut down; wait only for the
	// listener, then stop everything.
	<-done
	sys.Shutdown()
	sys.Sim.WaitIdle()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("catalog names = %v", names)
	}
}

func TestEndToEndChannelSwitch(t *testing.T) {
	// A speaker tunes from channel 1 to channel 2 and plays the new
	// stream after the next control packet.
	sys := NewSim(lan.SegmentConfig{})
	ch1, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "one", Group: "239.72.1.1:5004", ControlInterval: 200 * time.Millisecond,
	}, vad.Config{})
	ch2, _ := sys.AddChannel(rebroadcast.Config{
		ID: 2, Name: "two", Group: "239.72.1.2:5004", ControlInterval: 200 * time.Millisecond,
	}, vad.Config{})
	sp, _ := sys.AddSpeaker(speaker.Config{Name: "es1", Group: "239.72.1.1:5004"})

	p := audio.Voice
	sys.Clock.Go("player1", func() {
		ch1.Play(p, audio.NewTone(8000, 1, 300, 0.5), 5*time.Second)
	})
	sys.Clock.Go("player2", func() {
		ch2.Play(p, audio.NewTone(8000, 1, 600, 0.5), 5*time.Second)
	})
	var playedBeforeSwitch, playedAfterSwitch int64
	sys.Clock.Go("tuner", func() {
		sys.Clock.Sleep(2 * time.Second)
		playedBeforeSwitch = sp.Stats().BytesPlayed
		if err := sp.Tune("239.72.1.2:5004"); err != nil {
			t.Error(err)
		}
		sys.Clock.Sleep(2 * time.Second)
		playedAfterSwitch = sp.Stats().BytesPlayed - playedBeforeSwitch
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()
	if playedBeforeSwitch == 0 {
		t.Fatal("nothing played on channel 1")
	}
	if playedAfterSwitch == 0 {
		t.Fatal("nothing played after switching to channel 2")
	}
	if sp.Stats().Tunes != 1 {
		t.Fatalf("tunes = %d", sp.Stats().Tunes)
	}
}

func TestDuplicateChannelRejected(t *testing.T) {
	sys := NewSim(lan.SegmentConfig{})
	if _, err := sys.AddChannel(rebroadcast.Config{ID: 1, Group: "239.72.1.1:5004"}, vad.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddChannel(rebroadcast.Config{ID: 1, Group: "239.72.1.2:5004"}, vad.Config{}); err == nil {
		t.Fatal("duplicate channel id accepted")
	}
	sys.Shutdown()
	sys.Sim.WaitIdle()
}

func TestPositionSourceEncodesRamp(t *testing.T) {
	src := &PositionSource{Channels: 2}
	buf := make([]int16, 20)
	src.ReadSamples(buf)
	for f := 0; f < 10; f++ {
		if buf[2*f] != int16(f) || buf[2*f+1] != int16(f) {
			t.Fatalf("frame %d = (%d,%d)", f, buf[2*f], buf[2*f+1])
		}
	}
}

func TestSkewMeterWrapDiff(t *testing.T) {
	if d := wrapDiff(10, posWrap-10); d != 20 {
		t.Fatalf("wrapDiff across ring = %v, want 20", d)
	}
	if d := wrapDiff(100, 50); d != 50 {
		t.Fatalf("wrapDiff = %v, want 50", d)
	}
	if d := wrapDiff(50, 100); d != -50 {
		t.Fatalf("wrapDiff = %v, want -50", d)
	}
}
