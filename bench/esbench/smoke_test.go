package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

// A two-second run of fanout_live at 32 subscribers against freshly
// built daemons: the whole path — spawn, readiness, admission, the
// producer's pipe, tap, probes, speakers, churn, teardown — on real
// sockets. It is short enough for -short; where the machine cannot loop
// multicast back to itself it skips and says so.
func TestSmokeFanoutLive(t *testing.T) {
	if err := preflight(); err != nil {
		t.Skipf("skipping: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/rebroadcastd", "./cmd/relayd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	w, err := findWorkload("fanout_live")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{w: *w, seed: 7, window: 2 * time.Second, setups: 1, binDir: bin, outDir: t.TempDir()}
	cfg.w.probes, cfg.w.mutes = 8, 24
	t.Cleanup(killAllChildren)
	r, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.print(os.Stderr)
	if len(r.Invalid) > 0 {
		// `go test ./...` runs other packages' tests beside this one; a
		// harness that was crowded out says nothing about the code.
		t.Skipf("skipping: the machine was too busy to measure: %v", r.Invalid)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	for _, m := range []string{"setup_s", "relay_peak_rss_mb", "transit_p50_us"} {
		if r.EndToEnd[m].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m, r.EndToEnd[m].Value)
		}
	}
	if got := r.Ops["probe deliveries"]; got == nil || got.Attempted < 8*100 {
		t.Errorf("probe deliveries: %+v, want 8 probes × at least 100 packets", got)
	}
}
