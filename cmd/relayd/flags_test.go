package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dvr"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/security"
)

// TestFlagsShapeRelayConfig parses a full DVR + ladder command line
// and checks the values land on the relay.Config fields they name.
func TestFlagsShapeRelayConfig(t *testing.T) {
	o, err := parseFlags([]string{
		"-channel", "3",
		"-ladder",
		"-ladder-down-drops", "8",
		"-ladder-dwell", "30s",
		"-dvr",
		"-dvr-depth", "2m",
		"-dvr-burst", "250",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.relayConfig(nil, nil, 0)
	if cfg.Channel != 3 {
		t.Errorf("Channel = %d, want 3", cfg.Channel)
	}
	if !cfg.Ladder || cfg.LadderDownDrops != 8 || cfg.LadderDwell != 30*time.Second {
		t.Errorf("ladder = %v/%d/%v, want on/8/30s",
			cfg.Ladder, cfg.LadderDownDrops, cfg.LadderDwell)
	}
	if !cfg.DVR || cfg.DVRDepth != 2*time.Minute || cfg.DVRBurst != 250 {
		t.Errorf("dvr = %v/%v/%d, want on/2m/250",
			cfg.DVR, cfg.DVRDepth, cfg.DVRBurst)
	}
}

// TestFlagsLoadRelayAuth: -auth and -key-file load the relay side of
// the control plane through security.LoadRelayAuth, as main does, and
// the authenticator lands on relay.Config.Auth — none, the shared key,
// or the keyring, which alone comes with a ring for -mint-identity.
func TestFlagsLoadRelayAuth(t *testing.T) {
	key := filepath.Join(t.TempDir(), "control.key")
	if err := os.WriteFile(key, []byte("relayd test key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	load := func(args ...string) (relay.Config, *security.Keyring, error) {
		t.Helper()
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		auth, ring, err := security.LoadRelayAuth(o.auth, o.keyFile)
		return o.relayConfig(auth, nil, 0), ring, err
	}
	for _, tc := range []struct {
		auth   string
		scheme proto.AuthScheme
		binds  bool
	}{
		{"hmac", proto.AuthHMAC, false},
		{"ident", proto.AuthIdentity, true},
	} {
		cfg, ring, err := load("-auth", tc.auth, "-key-file", key)
		if err != nil {
			t.Fatalf("-auth %s: %v", tc.auth, err)
		}
		if cfg.Auth == nil || cfg.Auth.Scheme() != tc.scheme || cfg.Auth.BindsIdentity() != tc.binds {
			t.Errorf("-auth %s: Auth = %v, want scheme %v binding identities %v", tc.auth, cfg.Auth, tc.scheme, tc.binds)
		}
		if (ring != nil) != tc.binds {
			t.Errorf("-auth %s: keyring %v, want one exactly for ident", tc.auth, ring)
		}
	}
	if cfg, ring, err := load(); err != nil || cfg.Auth != nil || ring != nil {
		t.Errorf("no -auth: Auth = %v ring = %v err = %v, want an open control plane", cfg.Auth, ring, err)
	}
	for _, scheme := range []string{"hmac", "ident"} {
		if _, _, err := load("-auth", scheme); err == nil {
			t.Errorf("-auth %s without -key-file loaded", scheme)
		}
	}
}

// TestFlagDefaults checks the defaults that matter operationally: DVR
// and the ladder are opt-in, their tuning flags defer to the library
// defaults, and chaining clears the multicast source.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.relayConfig(nil, nil, 0)
	if cfg.DVR || cfg.Ladder {
		t.Errorf("DVR/Ladder default on: %v/%v", cfg.DVR, cfg.Ladder)
	}
	if cfg.Group != "239.72.1.1:5004" || cfg.Upstream != "" {
		t.Errorf("source defaults = group %q upstream %q", cfg.Group, cfg.Upstream)
	}
	if o.ladderDownDrops != relay.DefaultLadderDownDrops || o.ladderDwell != relay.DefaultLadderDwell {
		t.Errorf("ladder tuning defaults = %d/%v", o.ladderDownDrops, o.ladderDwell)
	}
	// -dvr-depth 0 means "library default": applyDefaults resolves it.
	if cfg.DVRDepth != 0 {
		t.Errorf("DVRDepth flag default = %v, want 0 (resolved to %v by the relay)", cfg.DVRDepth, dvr.DefaultDepth)
	}

	chained, err := parseFlags([]string{"-upstream", "192.0.2.1:5006"})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := chained.relayConfig(nil, nil, 2)
	if ccfg.Group != "" || ccfg.Upstream != "192.0.2.1:5006" || ccfg.SourceHops != 2 {
		t.Errorf("chained config = group %q upstream %q hops %d", ccfg.Group, ccfg.Upstream, ccfg.SourceHops)
	}

	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
