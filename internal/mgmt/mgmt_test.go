package mgmt

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/rebroadcast"
	"repro/internal/speaker"
	"repro/internal/vad"
	"repro/internal/vclock"
)

func TestMIBGetSetWalk(t *testing.T) {
	m := NewMIB()
	x := int64(5)
	m.Register(IntVar("es.test.x", "an int", func() int64 { return x },
		func(v int64) error { x = v; return nil }))
	m.Register(StringVar("es.test.ro", "read-only", func() string { return "fixed" }, nil))
	m.Register(FloatVar("es.other.f", "a float", func() float64 { return 1.5 }, nil))

	if v, err := m.Get("es.test.x"); err != nil || v != "5" {
		t.Fatalf("get = (%q, %v)", v, err)
	}
	if err := m.Set("es.test.x", "42"); err != nil || x != 42 {
		t.Fatalf("set: %v, x=%d", err, x)
	}
	if err := m.Set("es.test.x", "not a number"); err == nil {
		t.Fatal("bad int accepted")
	}
	if err := m.Set("es.test.ro", "nope"); err == nil {
		t.Fatal("read-only was set")
	}
	if _, err := m.Get("es.missing"); err == nil {
		t.Fatal("missing variable read")
	}
	walk := m.Walk("es.test")
	if len(walk) != 2 || walk[0].Name != "es.test.ro" || walk[1].Name != "es.test.x" {
		t.Fatalf("walk = %v", walk)
	}
	if got := len(m.Walk("")); got != 3 {
		t.Fatalf("full walk = %d", got)
	}
	if got := len(m.Names()); got != 3 {
		t.Fatalf("names = %d", got)
	}
}

func TestMIBRegisterPanics(t *testing.T) {
	m := NewMIB()
	m.Register(StringVar("a.b", "", func() string { return "" }, nil))
	for _, v := range []Var{
		{Name: "a.b", Get: func() string { return "" }},
		{Name: "", Get: func() string { return "" }},
		{Name: "c.d"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", v.Name)
				}
			}()
			m.Register(v)
		}()
	}
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Op: OpGet, Seq: 1, Pairs: []Pair{{Name: "es.x"}}},
		{Op: OpSet, Seq: 2, Pairs: []Pair{{Name: "es.x", Value: "42"}}},
		{Op: OpWalk, Seq: 3, Pairs: []Pair{{Name: "es"}}},
		{Op: OpSetAll, Seq: 4, Pairs: []Pair{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}},
		{Op: OpGet, Response: true, Seq: 5, Status: StatusError, Pairs: []Pair{{Name: "es.x", Value: "oops"}}},
	}
	for _, m := range msgs {
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip:\n in: %+v\nout: %+v", m, got)
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil, {1, 2, 3},
		{0x45, 0x4D, 9, 1, 0, 0, 0, 1, 0, 0},  // bad version
		{0x45, 0x4D, 1, 99, 0, 0, 0, 1, 0, 0}, // bad op
		{0x45, 0x4D, 1, 1, 0, 0, 0, 1, 5, 0},  // declared pairs missing
	}
	for _, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("accepted %v", data)
		}
	}
	// Trailing junk.
	good, _ := (&Message{Op: OpGet, Seq: 1}).Marshal()
	if _, err := Unmarshal(append(good, 0xFF)); err == nil {
		t.Error("trailing junk accepted")
	}
}

// newAgentPair wires an agent and client on a simulated segment.
func newAgentPair(t *testing.T) (*vclock.Sim, *Agent, *Client, *MIB) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{Latency: 100 * time.Microsecond})
	mib := NewMIB()
	val := "initial"
	mib.Register(StringVar("es.test.v", "test var",
		func() string { return val },
		func(s string) error {
			if s == "reject" {
				return fmt.Errorf("rejected by policy")
			}
			val = s
			return nil
		}))
	agent, err := NewAgent(sim, seg, "10.0.0.1:5005", mib)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(sim, seg, "10.0.0.2:5005")
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("agent", agent.Run)
	return sim, agent, client, mib
}

func TestAgentGetSetWalk(t *testing.T) {
	sim, agent, client, _ := newAgentPair(t)
	var results []string
	var errs []error
	sim.Go("console", func() {
		defer agent.Stop()
		defer client.Close()
		v, err := client.Get(agent.Addr(), "es.test.v")
		results, errs = append(results, v), append(errs, err)
		v, err = client.Set(agent.Addr(), "es.test.v", "changed")
		results, errs = append(results, v), append(errs, err)
		pairs, err := client.Walk(agent.Addr(), "es")
		results, errs = append(results, fmt.Sprint(pairs)), append(errs, err)
		_, err = client.Get(agent.Addr(), "es.missing")
		errs = append(errs, err)
		_, err = client.Set(agent.Addr(), "es.test.v", "reject")
		errs = append(errs, err)
	})
	sim.WaitIdle()
	for i, err := range errs[:3] {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if results[0] != "initial" || results[1] != "changed" {
		t.Fatalf("results = %v", results)
	}
	if results[2] != "[{es.test.v changed}]" {
		t.Fatalf("walk = %v", results[2])
	}
	if errs[3] == nil {
		t.Fatal("get of missing variable succeeded")
	}
	if errs[4] == nil {
		t.Fatal("rejected set reported success")
	}
	if _, ok := errs[4].(*RemoteError); !ok {
		t.Fatalf("want RemoteError, got %T", errs[4])
	}
}

func TestClientRetriesOnLoss(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	// 40% loss: with 3 retries the request should still get through.
	seg := lan.NewSegment(sim, lan.SegmentConfig{Loss: 0.4, Seed: 11})
	mib := NewMIB()
	mib.Register(StringVar("es.v", "", func() string { return "ok" }, nil))
	agent, _ := NewAgent(sim, seg, "10.0.0.1:5005", mib)
	client, _ := NewClient(sim, seg, "10.0.0.2:5005")
	client.Timeout = 100 * time.Millisecond
	client.Retries = 10
	sim.Go("agent", agent.Run)
	var got string
	var err error
	sim.Go("console", func() {
		defer agent.Stop()
		defer client.Close()
		got, err = client.Get(agent.Addr(), "es.v")
	})
	sim.WaitIdle()
	if err != nil || got != "ok" {
		t.Fatalf("get = (%q, %v)", got, err)
	}
}

func TestBroadcastSetAll(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	vals := make([]string, 3)
	var agents []*Agent
	for i := 0; i < 3; i++ {
		i := i
		mib := NewMIB()
		mib.Register(StringVar("es.v", "",
			func() string { return vals[i] },
			func(s string) error { vals[i] = s; return nil }))
		a, err := NewAgent(sim, seg, lan.Addr(fmt.Sprintf("10.0.0.%d:5005", i+1)), mib)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		sim.Go("agent", a.Run)
	}
	client, _ := NewClient(sim, seg, "10.0.0.99:5005")
	sim.Go("console", func() {
		if err := client.SetAll(Pair{Name: "es.v", Value: "fleet"}); err != nil {
			t.Error(err)
		}
		sim.Sleep(100 * time.Millisecond)
		for _, a := range agents {
			a.Stop()
		}
		client.Close()
	})
	sim.WaitIdle()
	for i, v := range vals {
		if v != "fleet" {
			t.Fatalf("agent %d value = %q", i, v)
		}
	}
}

func TestSpeakerMIBAndOverride(t *testing.T) {
	// Full §5.3 scenario: two channels play; the console begins a
	// central override steering the speaker to the announcement channel,
	// then ends it; the speaker returns to its programme.
	sys := core.NewSim(lan.SegmentConfig{})
	prog, _ := sys.AddChannel(rebroadcast.Config{
		ID: 1, Name: "programme", Group: "239.72.1.1:5004",
		ControlInterval: 200 * time.Millisecond,
	}, vad.Config{})
	ann, _ := sys.AddChannel(rebroadcast.Config{
		ID: 2, Name: "announce", Group: "239.72.1.2:5004",
		ControlInterval: 200 * time.Millisecond,
	}, vad.Config{})
	sp, err := sys.AddSpeaker(speaker.Config{Name: "es1", Group: "239.72.1.1:5004"})
	if err != nil {
		t.Fatal(err)
	}
	mib := SpeakerMIB("es1", sp)
	agent, err := NewAgent(sys.Clock, sys.Net, "10.0.5.1:5005", mib)
	if err != nil {
		t.Fatal(err)
	}
	sys.Clock.Go("agent", agent.Run)
	client, err := NewClient(sys.Clock, sys.Net, "10.0.5.2:5005")
	if err != nil {
		t.Fatal(err)
	}

	p := audio.Voice
	sys.Clock.Go("prog-player", func() {
		prog.Play(p, audio.NewTone(8000, 1, 300, 0.4), 10*time.Second)
	})
	sys.Clock.Go("ann-player", func() {
		ann.Play(p, audio.NewTone(8000, 1, 700, 0.8), 10*time.Second)
	})

	var checks []string
	sys.Clock.Go("console", func() {
		defer agent.Stop()
		defer client.Close()
		sys.Clock.Sleep(2 * time.Second)
		// Verify identity and playing state.
		name, _ := client.Get(agent.Addr(), "es.info.name")
		checks = append(checks, "name="+name)
		chBefore, _ := client.Get(agent.Addr(), "es.tuner.channel")
		checks = append(checks, "before="+chBefore)
		// Volume control round trip.
		if v, err := client.Set(agent.Addr(), "es.audio.volume", "0.5"); err != nil || v != "0.5" {
			t.Errorf("volume set = (%q, %v)", v, err)
		}
		// Begin override.
		if _, err := client.Set(agent.Addr(), "es.override.begin", "239.72.1.2:5004"); err != nil {
			t.Errorf("override begin: %v", err)
		}
		sys.Clock.Sleep(2 * time.Second)
		during, _ := client.Get(agent.Addr(), "es.tuner.channel")
		checks = append(checks, "during="+during)
		active, _ := client.Get(agent.Addr(), "es.override.active")
		checks = append(checks, "active="+active)
		// End override.
		if _, err := client.Set(agent.Addr(), "es.override.end", "1"); err != nil {
			t.Errorf("override end: %v", err)
		}
		after, _ := client.Get(agent.Addr(), "es.tuner.channel")
		checks = append(checks, "after="+after)
		sys.Clock.Sleep(time.Second)
		sys.Shutdown()
	})
	sys.Sim.WaitIdle()

	want := []string{
		"name=es1",
		"before=239.72.1.1:5004",
		"during=239.72.1.2:5004",
		"active=1",
		"after=239.72.1.1:5004",
	}
	if !reflect.DeepEqual(checks, want) {
		t.Fatalf("override sequence:\n got %v\nwant %v", checks, want)
	}
	if sp.Volume() != 0.5 {
		t.Fatalf("volume = %v", sp.Volume())
	}
	if sp.Stats().Tunes != 2 {
		t.Fatalf("tunes = %d, want 2", sp.Stats().Tunes)
	}
}

func TestSpeakerMIBValidation(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	sp, err := speaker.New(sim, seg, speaker.Config{Name: "x", Local: "10.0.0.1:5004"})
	if err != nil {
		t.Fatal(err)
	}
	mib := SpeakerMIB("x", sp)
	if err := mib.Set("es.audio.volume", "99"); err == nil {
		t.Fatal("volume 99 accepted")
	}
	if err := mib.Set("es.tuner.channel", "notanip:5004"); err == nil {
		t.Fatal("garbage tune accepted")
	}
	// A unicast address is a relay subscription target and is accepted.
	if err := mib.Set("es.tuner.channel", "10.0.0.2:5004"); err != nil {
		t.Fatalf("relay tune rejected: %v", err)
	}
	if err := mib.Set("es.override.begin", "garbage"); err == nil {
		t.Fatal("garbage override accepted")
	}
	if err := mib.Set("es.audio.ambient", "-3"); err == nil {
		t.Fatal("negative ambient accepted")
	}
	// Ending a never-begun override is a no-op, not an error.
	if err := mib.Set("es.override.end", "1"); err != nil {
		t.Fatal(err)
	}
	sp.Stop()
}
