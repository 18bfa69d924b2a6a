package mgmt

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/speaker"
	"repro/internal/vclock"
)

// TestStatsCoverage walks every exported int64 field of relay.Stats and
// speaker.Stats by reflection and asserts each one carries its mib and
// help tags and is reachable on its operator surfaces: the obs registry
// (under the Prometheus name obs.CounterName derives from the mib tag)
// for both, and the speaker's mgmt MIB (under the mib tag itself).
// Adding a Stats field without wiring it is therefore impossible to do
// silently — either the missing mib tag panics in StatsVars, or this
// test names the field that fell off a surface.
func TestStatsCoverage(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	r, err := relay.New(sim, conn, relay.Config{Group: "239.72.1.1:5004"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	sp, err := speaker.New(sim, seg, speaker.Config{Name: "cov", Local: "10.0.0.2:5004"})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()

	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	sp.RegisterObs(reg)
	inReg := map[string]bool{}
	for _, n := range reg.Names() {
		inReg[n] = true
	}

	// mib is nil for relay.Stats: relayd exports its counters on the
	// obs registry only.
	check := func(mib *MIB, statsType reflect.Type, prefix string) {
		inMIB := map[string]bool{}
		if mib != nil {
			for _, n := range mib.Names() {
				inMIB[n] = true
			}
		}
		for i := 0; i < statsType.NumField(); i++ {
			f := statsType.Field(i)
			if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
				continue
			}
			tag := f.Tag.Get("mib")
			if tag == "" {
				t.Errorf("%s.%s has no mib tag", statsType.Name(), f.Name)
				continue
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s.%s (%s) has no help tag", statsType.Name(), f.Name, tag)
			}
			if mib != nil && !inMIB[tag] {
				t.Errorf("%s.%s: MIB variable %q not registered", statsType.Name(), f.Name, tag)
			}
			if metric := obs.CounterName(prefix, f); !inReg[metric] {
				t.Errorf("%s.%s: obs metric %q not registered", statsType.Name(), f.Name, metric)
			}
		}
	}
	check(nil, reflect.TypeOf(relay.Stats{}), "es_relay")
	check(SpeakerMIB("cov", sp), reflect.TypeOf(speaker.Stats{}), "es_speaker")

	// The hot-path histograms are on the metrics surface too.
	for _, name := range []string{
		"es_relay_flush_latency_seconds",
		"es_relay_queue_residency_seconds",
		"es_relay_transcode_latency_seconds",
		"es_relay_upstream_rtt_seconds",
		"es_relay_lease_margin_seconds",
		"es_relay_dvr_catchup_lag_seconds",
		"es_speaker_control_rtt_seconds",
		"es_speaker_lease_margin_seconds",
	} {
		if !inReg[name] {
			t.Errorf("histogram %q not registered", name)
		}
	}
}
