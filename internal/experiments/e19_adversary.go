package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/speaker"
	"repro/internal/stats"
	"repro/internal/vad"
)

// E19Result is the outcome of the per-subscriber-identity adversary
// suite.
type E19Result struct {
	SpeakerData    int64  // data packets at the victim speaker (the attacks must not interrupt it)
	SpeakerAcks    int64  // verified grants the victim accepted
	ChainAcks      int64  // verified grants the chained relay drew from its upstream
	ForgedDrops    int64  // cross-subscriber forgeries dropped (es.relay.identity.mismatch)
	ReplayDrops    int64  // same-source control replays dropped (es.relay.replay.dropped)
	SpoofedDropped bool   // captured subscribe replayed from a spoofed source ticked auth.dropped
	SpoofedData    int64  // packets fanned out to the spoofed bystander (must be 0)
	RogueSteered   bool   // an unsigned/forged announce steered discovery (must be false)
	DiscoveredAddr string // what verified discovery picked (the signed relay)
	LegacyData     int64  // unsigned interop: data at a legacy speaker with signing off
}

// E19Adversary is the hostile-LAN closing argument for the
// per-subscriber control plane: against a chain running -auth ident,
// an attacker holding a *valid* credential of its own still cannot
// cancel or pause another subscriber's session (the lease is pinned to
// the identity that opened it), a captured signed Subscribe replayed
// from a spoofed source draws nothing (the signature binds the UDP
// source), the same capture replayed from its true source is stopped
// by the per-session replay window, and a forged or unsigned catalog
// announce never steers discovery (announces are signed). Meanwhile
// the legitimate chain keeps playing, and with signing off entirely,
// legacy unsigned peers interoperate unchanged.
func E19Adversary(w io.Writer, secs int) E19Result {
	if secs <= 0 {
		secs = 4
	}
	section(w, "E19 (§5.1)", "per-subscriber identities: forgery, replay, and steering all refused")
	res := e19Run(time.Duration(secs) * time.Second)
	tab := stats.Table{Headers: []string{"data@victim", "victim acks", "chain acks",
		"forged drops", "replay drops", "spoofed data", "rogue steered", "legacy data"}}
	tab.AddRow(res.SpeakerData, res.SpeakerAcks, res.ChainAcks,
		res.ForgedDrops, res.ReplayDrops, res.SpoofedData, res.RogueSteered, res.LegacyData)
	tab.Render(w)
	fmt.Fprintf(w, "  forged drops and replay drops must be nonzero (every cross-subscriber and\n")
	fmt.Fprintf(w, "  replayed control action refused), spoofed data 0, rogue steered false, and\n")
	fmt.Fprintf(w, "  both the signed chain and the legacy unsigned pair still play\n")
	return res
}

func e19Run(clip time.Duration) E19Result {
	var res E19Result
	ring := security.NewKeyring([]byte("chain master key"))
	sys := core.NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, err := sys.AddChannel(rebroadcast.Config{ID: 1, Name: "secured", Group: groupA, Codec: "raw"}, vad.Config{})
	if err != nil {
		return res
	}
	r1, err := sys.AddRelay(relay.Config{Group: groupA, Channel: 1, Auth: ring.Relay()})
	if err != nil {
		return res
	}
	// The chained relay is itself a subscriber upstream: it verifies its
	// own subscribers against the keyring but signs its upstream lease
	// with its own derived credential (identity 100), source-bound to
	// its listen address — the one-key-per-chain property the ISSUE's
	// relayd -identity flag provides for real deployments. Built by hand
	// (not AddRelay) because the source bound into UpstreamAuth must be
	// known before the relay exists.
	const r2Addr = lan.Addr("10.0.77.2:5006")
	r2conn, err := sys.Net.Attach(r2Addr)
	if err != nil {
		return res
	}
	r2, err := relay.New(sys.Clock, r2conn, relay.Config{
		Upstream:     r1.Addr(),
		Channel:      1,
		Auth:         ring.Relay(),
		UpstreamAuth: ring.SignerAt(100, string(r2Addr), 1),
		DVR:          true, // pause/resume is part of the attacked surface
	})
	if err != nil {
		return res
	}
	sys.Clock.Go("relay-r2", r2.Run)

	// The victim: identity 1, holding only its own derived credential.
	const victimAddr = lan.Addr("10.0.77.3:5004")
	sp, err := sys.AddSpeaker(speaker.Config{
		Name: "victim", Local: victimAddr, Group: r2.Addr(), Channel: 1,
		RelayAuth: security.NewIdentitySignerAt(ring.Credential(1), 1, string(victimAddr), 1),
	})
	if err != nil {
		return res
	}

	// A second legitimate subscriber (identity 3) driven by hand on r1,
	// so its signed Subscribe bytes can be captured and replayed.
	const sub3Addr = lan.Addr("10.0.77.4:5004")
	sub3, err := sys.Net.Attach(sub3Addr)
	if err != nil {
		return res
	}
	signer3 := security.NewIdentitySignerAt(ring.Credential(3), 3, string(sub3Addr), 1)
	subPkt, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
	capturedSub := signer3.Sign(subPkt)

	// The spoofed bystander: never sends, must never receive.
	bystander, err := sys.Net.Attach("10.0.66.99:5004")
	if err != nil {
		return res
	}
	sys.Clock.Go("bystander-count", func() {
		for {
			if _, err := bystander.Recv(0); err != nil {
				return
			}
			res.SpoofedData++
		}
	})

	// Steering: a rogue host floods the catalog group with unsigned and
	// wrong-key-signed announces naming its own relay, racing one signed
	// catalog announcing r1. Verified discovery must pick r1.
	catG := lan.Addr("239.72.0.7:5003")
	legitConn, err := sys.Net.Attach("10.0.77.10:5003")
	if err != nil {
		return res
	}
	legit := rebroadcast.NewCatalog(sys.Clock, legitConn, catG, 200*time.Millisecond)
	legit.SetSigner(ring.AnnounceSigner().Sign)
	legit.SetRelay(proto.RelayInfo{Addr: string(r1.Addr()), Group: string(groupA), Channel: 1})
	sys.Clock.Go("legit-catalog", legit.Run)
	rogueConn, err := sys.Net.Attach("10.0.66.50:5003")
	if err != nil {
		return res
	}
	sys.Clock.Go("rogue-catalog", func() {
		a := proto.Announce{Seq: 1, Relays: []proto.RelayInfo{
			{Addr: "10.0.66.50:5006", Group: string(groupA), Channel: 1}}}
		wrongKey := security.NewAnnounceSigner([]byte("not the master key"))
		for i := 0; i < 40; i++ {
			a.Seq++
			if pkt, err := a.Marshal(); err == nil {
				rogueConn.Send(catG, pkt) // unsigned
				if forged, err := wrongKey.Sign(pkt); err == nil {
					rogueConn.Send(catG, forged) // signed under the wrong master
				}
			}
			sys.Clock.Sleep(100 * time.Millisecond)
		}
	})
	sys.Clock.Go("discover", func() {
		ri, err := relay.Discover(sys.Clock, sys.Net, "10.0.77.11:5003", catG,
			1, 10*time.Second, nil, ring.AnnounceVerifier())
		if err == nil {
			res.DiscoveredAddr = ri.Addr
			res.RogueSteered = ri.Addr != string(r1.Addr())
		}
	})

	// Signing off: an unsigned relay and speaker on the same channel
	// must keep working — per-subscriber identity is opt-in per relay.
	r3, err := sys.AddRelay(relay.Config{Group: groupA, Channel: 1})
	if err != nil {
		return res
	}
	legacy, err := sys.AddSpeaker(speaker.Config{
		Name: "legacy", Group: r3.Addr(), Channel: 1,
	})
	if err != nil {
		return res
	}

	p := audio.Voice
	sys.Clock.Go("player", func() {
		// Let the chain and the victim's lease establish, and land
		// sub3's genuine signed subscribe on r1.
		sub3.Send(r1.Addr(), capturedSub)
		sys.Clock.Sleep(time.Second)

		// The attacker holds identity 2 — a perfectly valid credential —
		// and uses it to sign control actions claiming the victim's
		// source. The tags verify (any credential holder can claim any
		// source on a fresh packet); the lease pin must refuse them.
		forger := security.NewIdentitySignerAt(ring.Credential(2), 2, string(victimAddr), 1000)
		cancelPkt, _ := (&proto.Subscribe{Channel: 1, Seq: 7, LeaseMs: 0}).Marshal()
		r2.Inject(lan.Packet{From: victimAddr, To: r2.Addr(), Data: forger.Sign(cancelPkt)})
		pausePkt, _ := (&proto.Pause{Channel: 1, Seq: 5, Paused: true}).Marshal()
		r2.Inject(lan.Packet{From: victimAddr, To: r2.Addr(), Data: forger.Sign(pausePkt)})
		res.ForgedDrops = r2.Stats().IdentityMismatch

		// Capture-and-replay of sub3's genuine subscribe: from a spoofed
		// source the source binding fails it outright (auth drop, no
		// lease, nothing reflected at the bystander); from its true
		// source the tag verifies but the session replay window drops it.
		before := r1.Stats().AuthDropped
		r1.Inject(lan.Packet{From: "10.0.66.99:5004", To: r1.Addr(), Data: capturedSub})
		res.SpoofedDropped = r1.Stats().AuthDropped > before
		r1.Inject(lan.Packet{From: sub3Addr, To: r1.Addr(), Data: capturedSub})
		res.ReplayDrops = r1.Stats().ReplayDropped

		ch.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), clip)
		sys.Clock.Sleep(clip + 2*time.Second)
		legit.Stop()
		r2.Stop()
		sys.Shutdown()
		sub3.Close()
		bystander.Close()
		rogueConn.Close()
	})
	sys.Sim.WaitIdle()

	st := sp.Stats()
	res.SpeakerData = st.DataPackets
	res.SpeakerAcks = st.RelaySubAcks
	res.ChainAcks = r2.Stats().UpstreamAcks
	res.LegacyData = legacy.Stats().DataPackets
	return res
}
