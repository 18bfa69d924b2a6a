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

// E14Result is the outcome of the authenticated-control-plane
// experiment.
type E14Result struct {
	SpeakerData    int64 // data packets at the speaker behind the signed 2-hop chain
	SpeakerAcks    int64 // verified grants the speaker accepted
	ChainAcks      int64 // verified grants the chained relay accepted from its upstream
	AuthDropped    int64 // forged subscribes dropped across the chain (es.relay.auth.dropped)
	AttackerAcks   int64 // SubAck replies the attacker drew (must be 0: silent drop)
	AttackerData   int64 // data packets fanned out to the attacker (must be 0)
	SpoofedData    int64 // data packets fanned out to the spoofed victim address (must be 0)
	SpoofedDropped bool  // the spoofed subscribe ticked the auth.dropped counter
}

// E14AuthRelay closes the ROADMAP's amplifier warning end to end: with
// §5.1 HMAC on the relay control plane, a fully signed 2-hop chain
// (group -> r1 -> r2 -> speaker) still delivers the stream, while a
// forged Subscribe — sent unsigned by an attacker, and injected again
// with a spoofed source address — creates no forwarding state, draws no
// SubAck (the silent drop is the anti-amplification property: zero
// bytes reflected at a spoofed victim), and is counted in
// es.relay.auth.dropped.
func E14AuthRelay(w io.Writer, secs int) E14Result {
	if secs <= 0 {
		secs = 4
	}
	section(w, "E14 (§5.1)", "authenticated relay control plane: signed chain, forged-subscribe drop")
	res := e14Run(time.Duration(secs) * time.Second)
	tab := stats.Table{Headers: []string{"data@speaker", "speaker acks", "chain acks",
		"auth dropped", "attacker acks", "attacker data", "spoofed data"}}
	tab.AddRow(res.SpeakerData, res.SpeakerAcks, res.ChainAcks,
		res.AuthDropped, res.AttackerAcks, res.AttackerData, res.SpoofedData)
	tab.Render(w)
	fmt.Fprintf(w, "  attacker acks/data and spoofed data must be 0 (silent drop: nothing to\n")
	fmt.Fprintf(w, "  reflect or amplify), auth dropped nonzero, and the signed chain still plays\n")
	return res
}

func e14Run(clip time.Duration) E14Result {
	var res E14Result
	auth := security.NewHMAC([]byte("relay control-plane key"))
	sys := core.NewSim(lan.SegmentConfig{Latency: 100 * time.Microsecond})
	ch, err := sys.AddChannel(rebroadcast.Config{ID: 1, Name: "secured", Group: groupA, Codec: "raw"}, vad.Config{})
	if err != nil {
		return res
	}
	r1, err := sys.AddRelay(relay.Config{Group: groupA, Channel: 1, Auth: auth})
	if err != nil {
		return res
	}
	r2, err := sys.AddRelay(relay.Config{Upstream: r1.Addr(), Channel: 1, Auth: auth, UpstreamAuth: auth})
	if err != nil {
		return res
	}
	sp, err := sys.AddSpeaker(speaker.Config{
		Name: "authed", Group: r2.Addr(), Channel: 1, RelayAuth: auth,
	})
	if err != nil {
		return res
	}

	// The attacker: no key, so its subscribes go out unsigned (and one
	// junk-signed variant), aimed at the first hop. Everything it ever
	// receives back — acks or fanned-out data — is amplification.
	attacker, err := sys.Net.Attach("10.0.66.6:5004")
	if err != nil {
		return res
	}
	sys.Clock.Go("attacker", func() {
		forged, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		junkKey := security.NewHMAC([]byte("wrong key"))
		for i := 0; i < 20; i++ {
			attacker.Send(r1.Addr(), forged)
			attacker.Send(r1.Addr(), junkKey.Sign(forged))
			sys.Clock.Sleep(100 * time.Millisecond)
		}
	})
	sys.Clock.Go("attacker-count", func() {
		for {
			pkt, err := attacker.Recv(0)
			if err != nil {
				return
			}
			if t, _, err := proto.PeekType(pkt.Data); err == nil && t == proto.TypeSubAck {
				res.AttackerAcks++
			} else {
				res.AttackerData++
			}
		}
	})

	// The spoofed victim: a bystander that never sends anything. The
	// forged subscribe naming it as source is injected at the relay
	// directly (UDP source spoofing, which the simulated segment's Send
	// path cannot fake), and the victim must receive zero packets.
	victim, err := sys.Net.Attach("10.0.66.99:5004")
	if err != nil {
		return res
	}
	var victimPkts int64
	sys.Clock.Go("victim-count", func() {
		for {
			if _, err := victim.Recv(0); err != nil {
				return
			}
			victimPkts++
		}
	})

	p := audio.Voice
	sys.Clock.Go("player", func() {
		spoofed, _ := (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60000}).Marshal()
		// The attacker goroutine is also ticking r1's AuthDropped, so
		// the spoofed-subscribe check must be a delta around the Inject
		// (which processes the packet synchronously), not a final
		// nonzero test that the unsigned floods would satisfy anyway.
		before := r1.Stats().AuthDropped
		r1.Inject(lan.Packet{From: "10.0.66.99:5004", To: r1.Addr(), Data: spoofed})
		res.SpoofedDropped = r1.Stats().AuthDropped > before
		ch.Play(p, audio.NewTone(p.SampleRate, p.Channels, 440, 0.5), clip)
		sys.Clock.Sleep(clip + 2*time.Second)
		sys.Shutdown()
		attacker.Close()
		victim.Close()
	})
	sys.Sim.WaitIdle()

	st := sp.Stats()
	res.SpeakerData = st.DataPackets
	res.SpeakerAcks = st.RelaySubAcks
	s1, s2 := r1.Stats(), r2.Stats()
	res.ChainAcks = s2.UpstreamAcks
	res.AuthDropped = s1.AuthDropped + s2.AuthDropped
	res.SpoofedData = victimPkts
	return res
}
