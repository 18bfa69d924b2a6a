package main

import (
	"flag"
	"time"

	"repro/internal/lan"
	"repro/internal/security"
	"repro/internal/speaker"
)

// options holds every esd command-line setting. The flag layer is
// split out of main so the flag surface — names, defaults, and how
// they shape speaker.Config — is testable without running the daemon.
type options struct {
	group    string
	catalog  string
	channel  uint
	local    string
	mgmtAt   string
	name     string
	auth     string
	keyFile  string
	identity uint
	out      string
	stats    time.Duration
	opsAddr  string
}

// parseFlags registers the full esd flag surface on a fresh FlagSet
// and parses args (not including the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("esd", flag.ContinueOnError)
	fs.StringVar(&o.group, "group", "239.72.1.1:5004", "channel multicast group, a relay's unicast address, or 'discover' to find a relay in the catalog")
	fs.StringVar(&o.catalog, "catalog", "239.72.0.1:5003", "catalog group queried by -group discover")
	fs.UintVar(&o.channel, "channel", 0, "channel id to request when -group is a relay (0 = whatever it carries)")
	fs.StringVar(&o.local, "local", "0.0.0.0:5004", "local bind address")
	fs.StringVar(&o.mgmtAt, "mgmt", "", "management agent bind address (empty disables)")
	fs.StringVar(&o.name, "name", "es", "speaker name")
	fs.StringVar(&o.auth, "auth", "none", "relay control-plane auth scheme: none, hmac, or ident (must match the relay's -auth)")
	fs.StringVar(&o.keyFile, "key-file", "", "file holding the shared relay key (-auth hmac) or this speaker's hex credential (-auth ident; mint with relayd -mint-identity)")
	fs.UintVar(&o.identity, "identity", 0, "this speaker's subscriber identity (with -auth ident; needs a routable -local, the relay binds the signature to it)")
	fs.StringVar(&o.out, "out", "-", "raw PCM output: '-' for stdout, or a file path")
	fs.DurationVar(&o.stats, "stats", 10*time.Second, "stats report interval (0 disables)")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "ops HTTP endpoint: /metrics, /snapshot, /trace, /healthz, /debug/pprof (empty = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// speakerConfig shapes the parsed flags into the speaker.Config main
// hands to speaker.New. group and relayAuth arrive resolved — catalog
// discovery and key loading are side effects the flag layer stays out
// of.
func (o *options) speakerConfig(group lan.Addr, relayAuth security.Authenticator) speaker.Config {
	return speaker.Config{
		Name:      o.name,
		Local:     lan.Addr(o.local),
		Group:     group,
		Channel:   uint32(o.channel),
		RelayAuth: relayAuth,
	}
}
