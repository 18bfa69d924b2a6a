package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/vclock"
)

// TestTableRendersSubscribers checks the -report table: the relay's
// counters in the title and one row per subscriber, with its hop count.
func TestTableRendersSubscribers(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, lan.SegmentConfig{})
	conn, err := seg.Attach("10.0.0.1:5006")
	if err != nil {
		t.Fatal(err)
	}
	r, err := relay.New(sim, conn, relay.Config{Group: "239.72.5.1:5004"})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct {
		from lan.Addr
		hops uint8
	}{{"10.0.0.2:5004", 0}, {"10.0.0.3:5006", 1}} {
		data, err := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60_000, Hops: req.hops}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r.Inject(lan.Packet{From: req.from, To: r.Addr(), Data: data})
	}
	var sb strings.Builder
	reportTable(r, sim.Now()).Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "relay 239.72.5.1:5004 -> 2 subscriber(s)") {
		t.Fatalf("table title missing the source and count:\n%s", out)
	}
	for _, row := range []string{"10.0.0.2:5004", "10.0.0.3:5006"} {
		if !strings.Contains(out, row) {
			t.Fatalf("table missing subscriber %s:\n%s", row, out)
		}
	}
}
