// Command relayd bridges a multicast channel to off-LAN listeners: it
// joins the channel's group as an ordinary receiver and fans the
// control + data stream out to unicast subscribers holding TURN-style
// leases. Speakers beyond the multicast segment (or on
// multicast-hostile networks) point their tuner at this daemon's
// address instead of the group and play unchanged.
//
// The fan-out path is sharded and batched: subscribers hash onto
// -shards shards, and outgoing datagrams are accumulated into batches
// of up to -batch and written with one sendmmsg call (on Linux). A
// partial batch goes out the moment its shard has nothing more to send:
// no packet, live or replayed, waits on a timer.
// The shards write to the -listen socket in parallel, so every datagram
// the relay sends — acks and data alike — leaves from -listen, the
// address a NAT or stateful firewall saw the subscriber's Subscribe go
// to. -ladder turns on the adaptive quality ladder: subscribers whose
// queues drop packets are transcoded down the codec profile tiers
// (source, ulaw, ovl-high, ovl-low) and climb back after a clean dwell
// (-ladder-down-drops and -ladder-dwell tune the thresholds). -dvr
// turns on time-shifted delivery: relayed packets are recorded into one
// bounded ring (-dvr-depth of history), subscribers may join "from N
// seconds ago" or pause and resume, and their backlog is replayed at
// up to -dvr-burst packets/s until they converge on the live stream.
// See docs/RELAY-OPS.md for the full operator guide, including which
// MIB counters to watch.
//
// Example — relay the default channel group, serving subscribers on
// port 5006:
//
//	relayd -group 239.72.1.1:5004 -listen 0.0.0.0:5006
//
// A speaker on another network then tunes to <relay-host>:5006, e.g.
//
//	esd -group 192.0.2.10:5006
//
// Relays chain: -upstream points this relay at another relay instead
// of a multicast group, so bridges compose across several network
// segments (each hop holds a TURN-style lease on the previous one, and
// loops are refused with SubLoop). -upstream discover picks the bridge
// from the §4.3 catalog at boot instead of static configuration
// (excluding this relay's own advertised address, so it cannot chain
// behind itself). -advertise publishes this relay in the catalog so
// off-LAN speakers and downstream relays can find it (-advertise
// requires a routable -listen address — a wildcard bind would advertise
// an address no subscriber can reach):
//
//	relayd -upstream 192.0.2.10:5006 -listen 198.51.100.7:5006 \
//	       -advertise 239.72.0.1:5003
//
// On an untrusted network, authenticate the control plane: with
// -auth hmac -key-file the relay verifies every Subscribe before it
// creates forwarding state (forged ones are dropped silently — no
// SubAck, so a spoofed request reflects nothing at a victim) and signs
// every SubAck. Subscribers (esd, downstream relayds) must carry the
// same key. -auth ident upgrades the shared key to per-subscriber
// credentials: -key-file then holds the chain master key, each
// subscriber signs with its own derived credential (mint one with
// -mint-identity N), and the relay pins every lease to the identity
// that opened it — a compromised speaker's credential cannot cancel,
// pause, or redirect anyone else's session, and a per-session replay
// window drops captured control packets. With -auth ident the catalog
// announce is signed too, so discovery cannot be steered by a forged
// record. A chained relay under ident needs -identity (its own
// subscriber identity for the upstream lease) and a routable -listen:
// the upstream binds the signature to the source address it sees. See
// "Securing a relay" and "Provisioning subscriber credentials" in
// docs/RELAY-OPS.md.
package main

import (
	"fmt"
	"log"
	stdnet "net"
	"os"
	"time"

	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the problem
	}
	log.SetPrefix("relayd: ")
	log.SetFlags(0)

	auth, ring, err := security.LoadRelayAuth(o.auth, o.keyFile)
	if err != nil {
		log.Fatal(err)
	}

	if o.mintID != 0 {
		// Provisioning helper: print the hex credential for a subscriber
		// identity and exit. The output goes to the subscriber's key file
		// (esd -auth ident -identity N -key-file <file>).
		if ring == nil {
			log.Fatal("-mint-identity needs -auth ident with the master -key-file")
		}
		os.Stdout.WriteString(security.FormatCredential(ring.Credential(uint32(o.mintID))) + "\n")
		return
	}

	clock := vclock.System
	net := &lan.UDPNetwork{}

	// With per-subscriber credentials the catalog is signed too: forged
	// or unsigned announces must not steer this relay's discovery or its
	// shedding sibling set.
	var announceVerifier *security.AnnounceVerifier
	if ring != nil {
		announceVerifier = ring.AnnounceVerifier()
	}

	var upstreamAuth security.Authenticator
	if ring != nil && o.upstream != "" {
		// A chained relay is itself a subscriber upstream: it signs its
		// own lease traffic with a credential derived from -identity. The
		// upstream binds that signature to the UDP source it observes,
		// which is this relay's -listen address — a wildcard bind would
		// sign for an address the packets never appear to come from.
		if o.identity == 0 {
			log.Fatal("-auth ident with -upstream needs -identity: the upstream lease is signed per subscriber")
		}
		if ip := stdnet.ParseIP(lan.Addr(o.listen).Host()); ip == nil || ip.IsUnspecified() {
			log.Fatalf("-auth ident with -upstream needs a routable -listen address, not %q: the upstream verifies the signature against the source address it sees", o.listen)
		}
		upstreamAuth = ring.SignerAt(uint32(o.identity), string(lan.Addr(o.listen)),
			uint64(time.Now().UnixNano()))
	} else if o.upstream != "" {
		// A shared key is the same on both sides of the lease.
		if upstreamAuth, err = security.LoadControlAuth(o.auth, o.keyFile); err != nil {
			log.Fatal(err)
		}
	}

	sourceHops := 0
	if o.upstream == "discover" {
		// Pick the bridge from the catalog, refusing our own advertised
		// address — the catalog echoes this relay's announce back at it
		// — and everything chained behind us at any depth: a chained
		// relay advertises its upstream in the record's Group field, so
		// ExcludeChainOf follows those edges from our address through
		// the whole downstream subtree. Selecting any of it builds the
		// cycle SubLoop would then refuse on every refresh forever
		// instead of ever converging.
		ri, err := relay.Discover(clock, net,
			lan.Addr(stdnet.JoinHostPort(lan.Addr(o.listen).Host(), "0")),
			lan.Addr(o.catalog), uint32(o.channel), 15*time.Second,
			relay.ExcludeChainOf(lan.Addr(o.listen)), announceVerifier)
		if err != nil {
			log.Fatal(err)
		}
		o.upstream = ri.Addr
		if ri.HasLoad && ri.Hops < 255 {
			// Depth accumulates along discovered chains: our catalog
			// record reports one hop more than the upstream's.
			sourceHops = int(ri.Hops) + 1
		}
		log.Printf("discovered upstream %s (relaying %s)", ri.Addr, ri.Group)
	}

	conn, err := net.Attach(lan.Addr(o.listen))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	r, err := relay.New(clock, conn, o.relayConfig(auth, upstreamAuth, sourceHops))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("relaying %s, subscribers lease at %s", r.Source(), r.Addr())
	if auth != nil {
		log.Printf("control plane authenticated (%s); unsigned subscribes are dropped silently", auth.Scheme())
	}

	if o.opsAddr != "" {
		reg := obs.NewRegistry()
		r.RegisterObs(reg)
		srv, err := obs.Serve(o.opsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("ops endpoint at http://%s/metrics", srv.Addr())
	}

	if o.adverts != "" {
		// Publish this relay in the channel catalog (§4.3) so off-LAN
		// speakers and downstream relays discover it without static
		// configuration. The advertised address is -listen verbatim, so
		// a wildcard bind would publish an address no subscriber can
		// reach ("0.0.0.0:5006" sends the Subscribe back to the
		// subscriber's own host) — refuse it up front.
		if ip := stdnet.ParseIP(lan.Addr(o.listen).Host()); ip == nil || ip.IsUnspecified() {
			log.Fatalf("-advertise needs a routable -listen address, not %q: bind the interface subscribers reach", o.listen)
		}
		// The announcer gets its own ephemeral socket so catalog
		// traffic never contends with the data path.
		cconn, err := net.Attach(lan.Addr(stdnet.JoinHostPort(lan.Addr(o.listen).Host(), "0")))
		if err != nil {
			log.Fatal(err)
		}
		defer cconn.Close()
		cat := rebroadcast.NewCatalog(clock, cconn, lan.Addr(o.adverts), 0)
		// Live record provider: every announce carries the load vector
		// (subscribers, queue pressure, hops from source) as of that
		// cycle, which is what discovery ranks candidates by.
		cat.SetRelayFunc(r.Info)
		if ring != nil {
			// Sign what we publish: a verifying segment refuses unsigned
			// records, and our sibling relays verify before steering.
			cat.SetSigner(ring.AnnounceSigner().Sign)
		}
		clock.Go("advertise", cat.Run)
		defer cat.Stop()
		log.Printf("advertising on %s", o.adverts)

		if o.shedSubs > 0 || o.shedPres > 0 || o.shedTier {
			// Shedding needs somewhere to steer: watch the same catalog
			// group for sibling relays and feed live snapshots to the
			// redirect picker.
			w, err := relay.NewWatcher(clock, net,
				lan.Addr(stdnet.JoinHostPort(lan.Addr(o.listen).Host(), "0")),
				lan.Addr(o.adverts))
			if err != nil {
				log.Fatal(err)
			}
			if announceVerifier != nil {
				// The sibling set is a redirect target list: only signed
				// announces may populate it.
				w.SetVerifier(announceVerifier)
			}
			r.SetSiblings(w.Snapshot)
			clock.Go("sibling-watch", w.Run)
			defer w.Stop()
			log.Printf("shedding enabled (subscribers>=%d, pressure>=%d, tier=%v); steering to catalog siblings", o.shedSubs, o.shedPres, o.shedTier)
		}
	}
	if (o.shedSubs > 0 || o.shedPres > 0 || o.shedTier) && o.adverts == "" {
		log.Printf("warning: -shed-subscribers/-shed-pressure/-shed-tier set without -advertise: no sibling watch, so the relay admits normally instead of shedding")
	}

	if o.report > 0 {
		clock.Go("report", func() {
			for {
				clock.Sleep(o.report)
				reportTable(r, clock.Now()).Render(os.Stdout)
			}
		})
	}
	r.Run()
}

// reportTable renders the relay's counters and per-subscriber snapshot
// as the -report table.
func reportTable(r *relay.Relay, now time.Time) *stats.Table {
	st, subs := r.Stats(), r.Subscribers()
	t := &stats.Table{
		Title: fmt.Sprintf("relay %s -> %d subscriber(s); upstream %d ctl + %d data, fanout %d sent / %d dropped in %d batches",
			r.Source(), len(subs), st.UpstreamControl, st.UpstreamData,
			st.FanoutSent, st.FanoutDropped, st.Batches),
		Headers: []string{"subscriber", "channel", "hops", "profile", "sent", "dropped", "queued", "lease-left"},
	}
	for _, s := range subs {
		prof := s.Profile.String()
		if s.Profile != s.ReqProfile {
			// Ladder-degraded: show where the subscriber wants to be.
			prof = fmt.Sprintf("%s (req %s)", s.Profile, s.ReqProfile)
		}
		t.AddRow(string(s.Addr), fmt.Sprint(s.Channel), int(s.Hops), prof, s.Sent,
			s.Dropped, s.Queued, s.Expires.Sub(now).Round(time.Millisecond))
	}
	return t
}
