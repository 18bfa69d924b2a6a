package main

import (
	"testing"
	"time"

	"repro/internal/security"
)

// TestFlagsShapeSpeakerConfig parses a relay-leasing command line and
// checks the values land on the speaker.Config fields they name, with
// the group and authenticator main resolved passed through untouched.
func TestFlagsShapeSpeakerConfig(t *testing.T) {
	o, err := parseFlags([]string{
		"-name", "kitchen",
		"-group", "discover",
		"-channel", "3",
		"-local", "192.0.2.7:5008",
		"-auth", "ident",
		"-identity", "17",
		"-key-file", "cred.17",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.group != "discover" || o.auth != "ident" || o.identity != 17 || o.keyFile != "cred.17" {
		t.Errorf("parsed = group %q auth %q identity %d key-file %q", o.group, o.auth, o.identity, o.keyFile)
	}
	auth := security.NewHMAC([]byte("k"))
	cfg := o.speakerConfig("192.0.2.1:5006", auth)
	if cfg.Name != "kitchen" || cfg.Local != "192.0.2.7:5008" || cfg.Channel != 3 {
		t.Errorf("config = name %q local %q channel %d", cfg.Name, cfg.Local, cfg.Channel)
	}
	if cfg.Group != "192.0.2.1:5006" || cfg.RelayAuth != security.Authenticator(auth) {
		t.Errorf("resolved group/auth not passed through: group %q auth %v", cfg.Group, cfg.RelayAuth)
	}
}

// TestFlagDefaults pins the defaults operators rely on: the multicast
// group and catalog, PCM to stdout, plaintext control plane, no
// management or ops endpoint unless asked for.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		group: "239.72.1.1:5004", catalog: "239.72.0.1:5003", local: "0.0.0.0:5004",
		name: "es", auth: "none", out: "-", stats: 10 * time.Second,
	}
	if *o != want {
		t.Errorf("defaults = %+v, want %+v", *o, want)
	}
	cfg := o.speakerConfig("239.72.1.1:5004", nil)
	if cfg.Group != "239.72.1.1:5004" || cfg.Channel != 0 || cfg.RelayAuth != nil {
		t.Errorf("default config = group %q channel %d auth %v", cfg.Group, cfg.Channel, cfg.RelayAuth)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
