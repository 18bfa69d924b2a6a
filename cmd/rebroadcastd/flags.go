package main

import (
	"flag"

	"repro/internal/lan"
	"repro/internal/rebroadcast"
)

// options holds every rebroadcastd command-line setting. As in relayd,
// the flag layer is split out of main so the flag surface — names,
// defaults, and how they shape the transmitter's config — is testable
// without running the daemon.
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
