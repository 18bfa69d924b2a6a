package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestFlagDefaults pins the defaults the benchmark and the docs rely
// on: the transmitter's group and channel, and the DVR relay off.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.dvr || o.wav || o.auth != "none" || o.rate != 44100 || o.channels != 2 {
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

// TestFlagsShapeDVRRelayConfig: -dvr's embedded relay records the
// channel this daemon transmits, and -auth/-key-file give it the same
// relay-side authenticator relayd would load — none, the shared key, or
// the keyring.
func TestFlagsShapeDVRRelayConfig(t *testing.T) {
	key := filepath.Join(t.TempDir(), "control.key")
	if err := os.WriteFile(key, []byte("rebroadcastd test key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	base := []string{"-group", "239.72.9.9:5004", "-id", "7", "-dvr", "-dvr-depth", "90s", "-dvr-burst", "250"}
	for _, tc := range []struct {
		auth   string
		scheme proto.AuthScheme
		binds  bool
	}{
		{"hmac", proto.AuthHMAC, false},
		{"ident", proto.AuthIdentity, true},
	} {
		o, err := parseFlags(append(base, "-auth", tc.auth, "-key-file", key))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := o.dvrRelayConfig()
		if err != nil {
			t.Fatalf("-auth %s: %v", tc.auth, err)
		}
		if cfg.Group != "239.72.9.9:5004" || cfg.Channel != 7 || cfg.Upstream != "" ||
			!cfg.DVR || cfg.DVRDepth != 90*time.Second || cfg.DVRBurst != 250 {
			t.Errorf("-auth %s: relay config = %+v", tc.auth, cfg)
		}
		if cfg.Auth == nil || cfg.Auth.Scheme() != tc.scheme || cfg.Auth.BindsIdentity() != tc.binds {
			t.Errorf("-auth %s: Auth = %v, want scheme %v binding identities %v", tc.auth, cfg.Auth, tc.scheme, tc.binds)
		}
	}

	o, err := parseFlags(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := o.dvrRelayConfig(); err != nil || cfg.Auth != nil {
		t.Errorf("no -auth: Auth = %v err = %v, want an open control plane", cfg.Auth, err)
	}
	o, err = parseFlags(append(base, "-auth", "hmac"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.dvrRelayConfig(); err == nil {
		t.Error("-auth hmac without -key-file produced a relay config")
	}
}
