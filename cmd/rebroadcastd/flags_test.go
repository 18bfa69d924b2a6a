package main

import "testing"

// TestFlagDefaults pins the defaults the benchmark and the docs rely
// on: the transmitter's group and channel, and raw PCM input.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.wav || o.rate != 44100 || o.channels != 2 {
		t.Errorf("defaults = %+v", o)
	}
	cfg := o.rebroadcastConfig()
	if cfg.Group != "239.72.1.1:5004" || cfg.ID != 1 || cfg.Name != "channel" || cfg.Codec != "" || cfg.Quality != 10 {
		t.Errorf("rebroadcast config defaults = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
