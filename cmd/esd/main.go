// Command esd is the Ethernet Speaker daemon (§2.4) for real
// deployments: it joins a channel's multicast group over UDP, waits for
// a control packet, synchronizes against the producer's wall clock, and
// plays the decoded audio by writing raw PCM to a file or stdout (pipe
// it into aplay/sox/pacat for actual sound). A management agent serves
// the §5.3 MIB so esctl can retune it, change the volume, or override it
// centrally.
//
// Example:
//
//	esd -group 239.72.1.1:5004 -mgmt 0.0.0.0:5005 | aplay -f cd
//
// Beyond the multicast segment, -group may name a relay's unicast
// address instead — or the literal 'discover', which picks a relay for
// -channel from the §4.3 catalog at boot. Against an authenticated
// relay (relayd -auth hmac), pass the same -auth hmac -key-file so the
// speaker signs its subscribes and verifies the granted lease. Against
// a relay running per-subscriber credentials (relayd -auth ident),
// pass -auth ident -identity N -key-file <credential file>, where the
// credential was minted by the relay operator (relayd -mint-identity N)
// — each speaker then holds only its own key, and the relay pins the
// lease to it. The signature binds this speaker's -local address as the
// relay sees it, so -auth ident needs a routable -local bind, not a
// wildcard.
package main

import (
	"fmt"
	"log"
	stdnet "net"
	"os"
	"os/signal"
	"time"

	"repro/internal/audiodev"
	"repro/internal/lan"
	"repro/internal/mgmt"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/speaker"
	"repro/internal/vclock"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the problem
	}
	log.SetPrefix("esd: ")
	log.SetFlags(0)

	if o.auth == "ident" {
		// The identity signature covers the source address the relay
		// observes; a wildcard bind signs for an address the subscribe
		// never appears to come from, so every request would be dropped.
		if ip := stdnet.ParseIP(lan.Addr(o.local).Host()); ip == nil || ip.IsUnspecified() {
			log.Fatalf("-auth ident needs a routable -local address, not %q: the relay verifies the signature against the source address it sees", o.local)
		}
	}
	relayAuth, err := security.LoadClientAuth(o.auth, o.keyFile,
		uint32(o.identity), string(lan.Addr(o.local)), uint64(time.Now().UnixNano()))
	if err != nil {
		log.Fatal(err)
	}

	var sink *os.File
	switch o.out {
	case "-":
		sink = os.Stdout
	case "":
		sink = nil
	default:
		f, err := os.Create(o.out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sink = f
	}

	clock := vclock.System
	net := &lan.UDPNetwork{}

	group := lan.Addr(o.group)
	if o.group == "discover" {
		// Find a bridge through the §4.3 catalog instead of static
		// configuration — the tune-in path for speakers that can reach
		// the catalog group but not the channel's own.
		ri, err := relay.Discover(clock, net,
			lan.Addr(stdnet.JoinHostPort(lan.Addr(o.local).Host(), "0")),
			lan.Addr(o.catalog), uint32(o.channel), 15*time.Second, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		group = lan.Addr(ri.Addr)
		log.Printf("discovered relay %s (relaying %s)", ri.Addr, ri.Group)
	}

	sp, err := speaker.New(clock, net, o.speakerConfig(group, relayAuth))
	if err != nil {
		log.Fatal(err)
	}
	if sink != nil {
		sp.OnPlay(func(b audiodev.PlayedBlock) {
			sink.Write(b.Data)
		})
	}

	if o.opsAddr != "" {
		reg := obs.NewRegistry()
		sp.RegisterObs(reg)
		srv, err := obs.Serve(o.opsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("ops endpoint at http://%s/metrics", srv.Addr())
	}

	if o.mgmtAt != "" {
		mib := mgmt.SpeakerMIB(o.name, sp)
		agent, err := mgmt.NewAgent(clock, net, lan.Addr(o.mgmtAt), mib)
		if err != nil {
			log.Fatal(err)
		}
		clock.Go("mgmt-agent", agent.Run)
		log.Printf("management agent on %s", agent.Addr())
		defer agent.Stop()
	}

	if o.stats > 0 {
		clock.Go("stats", func() {
			for {
				clock.Sleep(o.stats)
				st := sp.Stats()
				fmt.Fprintf(os.Stderr,
					"esd: ctl=%d data=%d played=%dB late=%d gaps=%d auth-drop=%d\n",
					st.ControlPackets, st.DataPackets, st.BytesPlayed,
					st.DroppedLate, st.GapFills, st.DroppedAuth)
			}
		})
	}

	done := make(chan struct{})
	go func() {
		sp.Run()
		close(done)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		log.Print("interrupted, shutting down")
		sp.Stop()
		<-done
	case <-done:
	}
}
