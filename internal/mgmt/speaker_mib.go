package mgmt

import (
	"fmt"
	"sync"

	"repro/internal/lan"
	"repro/internal/speaker"
)

// SpeakerMIB wires the standard Ethernet Speaker MIB (§5.3) onto a
// speaker: identity, volume and ambient controls, the tuner, playback
// statistics, and the central-override mechanism (crew announcements
// preempting the tuned programme; the previous channel is restored when
// the override ends).
func SpeakerMIB(name string, sp *speaker.Speaker) *MIB {
	m := NewMIB()
	var mu sync.Mutex
	savedGroup := lan.Addr("")
	overridden := false

	m.Register(StringVar("es.info.name", "speaker name",
		func() string { return name }, nil))
	m.Register(FloatVar("es.audio.volume", "software gain 0..4",
		sp.Volume,
		func(v float64) error {
			if v < 0 || v > 4 {
				return fmt.Errorf("volume %g out of range [0,4]", v)
			}
			sp.SetVolume(v)
			return nil
		}))
	m.Register(FloatVar("es.audio.ambient", "ambient noise RMS (mic model)",
		func() float64 { return 0 }, // write-mostly: tests inject noise
		func(v float64) error {
			if v < 0 {
				return fmt.Errorf("ambient %g negative", v)
			}
			sp.SetAmbient(v)
			return nil
		}))
	m.Register(StringVar("es.tuner.channel", "channel source: multicast group, or a relay's unicast address",
		func() string { return string(sp.Group()) },
		func(v string) error {
			g := lan.Addr(v)
			if err := g.Validate(); err != nil {
				return fmt.Errorf("%q is not a multicast group or relay address", v)
			}
			return sp.Tune(g)
		}))
	m.Register(StringVar("es.override.begin", "begin central override: set to the announcement group",
		func() string {
			mu.Lock()
			defer mu.Unlock()
			if overridden {
				return string(sp.Group())
			}
			return ""
		},
		func(v string) error {
			g := lan.Addr(v)
			if !g.IsMulticast() {
				return fmt.Errorf("%q is not a multicast group", v)
			}
			mu.Lock()
			if !overridden {
				savedGroup = sp.Group()
				overridden = true
			}
			mu.Unlock()
			return sp.Tune(g)
		}))
	m.Register(StringVar("es.override.end", "end central override: set to any value",
		func() string { return "" },
		func(string) error {
			mu.Lock()
			active := overridden
			restore := savedGroup
			overridden = false
			mu.Unlock()
			if !active {
				return nil
			}
			if restore == "" {
				return nil
			}
			return sp.Tune(restore)
		}))
	m.Register(StringVar("es.override.active", "1 while a central override is in effect",
		func() string {
			mu.Lock()
			defer mu.Unlock()
			if overridden {
				return "1"
			}
			return "0"
		}, nil))

	// Every speaker.Stats counter, named by its mib tag — one reflective
	// call instead of hand-wired registrations, and impossible for a new
	// Stats field to miss (StatsVars panics on a missing tag, and the
	// coverage test in this package checks the full surface).
	m.StatsVars(func() any { return sp.Stats() })
	m.Register(IntVar("es.dev.underruns", "audio device underruns",
		func() int64 { return sp.Device().GetStats().Underruns }, nil))
	m.Register(IntVar("es.dev.silence", "silence blocks inserted",
		func() int64 { return sp.Device().GetStats().SilenceBlocks }, nil))
	return m
}
