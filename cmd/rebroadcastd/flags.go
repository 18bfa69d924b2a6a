package main

import (
	"flag"
	"time"

	"repro/internal/lan"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/security"
)

// options holds every rebroadcastd command-line setting. As in relayd,
// the flag layer is split out of main so the flag surface — names,
// defaults, and how they shape the transmitter's and the embedded DVR
// relay's configs — is testable without running the daemon.
type options struct {
	group    string
	local    string
	id       uint
	name     string
	codec    string
	quality  int
	rate     int
	channels int
	wav      bool
	opsAddr  string

	dvr      bool
	dvrAddr  string
	dvrDepth time.Duration
	dvrBurst int
	auth     string
	keyFile  string
}

// parseFlags registers the full rebroadcastd flag surface on a fresh
// FlagSet and parses args (not including the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("rebroadcastd", flag.ContinueOnError)
	fs.StringVar(&o.group, "group", "239.72.1.1:5004", "multicast group to transmit on")
	fs.StringVar(&o.local, "local", "0.0.0.0:0", "local bind address")
	fs.UintVar(&o.id, "id", 1, "channel id")
	fs.StringVar(&o.name, "name", "channel", "channel name")
	fs.StringVar(&o.codec, "codec", "", "codec (raw|ulaw|ovl); empty = automatic by bitrate")
	fs.IntVar(&o.quality, "quality", 10, "ovl quality index 0..10")
	fs.IntVar(&o.rate, "rate", 44100, "sample rate of stdin PCM")
	fs.IntVar(&o.channels, "channels", 2, "channels of stdin PCM")
	fs.BoolVar(&o.wav, "wav", false, "parse stdin as a WAV file instead of raw PCM")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "ops HTTP endpoint: /metrics, /snapshot, /healthz, /debug/pprof (empty = off)")
	fs.BoolVar(&o.dvr, "dvr", false, "embed a time-shift (DVR) relay: it records this channel and serves shifted and pause/resume subscribers at -dvr-listen")
	fs.StringVar(&o.dvrAddr, "dvr-listen", "0.0.0.0:5007", "unicast address the embedded DVR relay leases subscribers from (with -dvr)")
	fs.DurationVar(&o.dvrDepth, "dvr-depth", 0, "recorded history in the embedded relay's ring (0 = the built-in 30s default; with -dvr)")
	fs.IntVar(&o.dvrBurst, "dvr-burst", 0, "catch-up delivery rate in packets/s per subscriber (0 = the built-in default; with -dvr)")
	fs.StringVar(&o.auth, "auth", "none", "control-plane auth for the embedded DVR relay: none, hmac, or ident (per-subscriber credentials) with -key-file")
	fs.StringVar(&o.keyFile, "key-file", "", "file holding the control-plane key: the shared key (-auth hmac) or the chain master key (-auth ident); with -dvr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// rebroadcastConfig shapes the parsed flags into the transmitter's
// config.
func (o *options) rebroadcastConfig() rebroadcast.Config {
	return rebroadcast.Config{
		ID:      uint32(o.id),
		Name:    o.name,
		Group:   lan.Addr(o.group),
		Codec:   o.codec,
		Quality: o.quality,
	}
}

// dvrRelayConfig shapes the parsed flags into the embedded DVR relay's
// config: it joins the group this daemon transmits on, pinned to its
// channel, and demands of its subscribers the control-plane scheme
// -auth/-key-file name — loaded exactly as relayd loads its own.
func (o *options) dvrRelayConfig() (relay.Config, error) {
	auth, _, err := security.LoadRelayAuth(o.auth, o.keyFile)
	if err != nil {
		return relay.Config{}, err
	}
	return relay.Config{
		Group:    lan.Addr(o.group),
		Channel:  uint32(o.id),
		Auth:     auth,
		DVR:      true,
		DVRDepth: o.dvrDepth,
		DVRBurst: o.dvrBurst,
	}, nil
}
