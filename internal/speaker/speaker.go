package speaker

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/relay/lease"
	"repro/internal/security"
	"repro/internal/vclock"
)

// Defaults.
const (
	// DefaultEpsilon is the §3.2 synchronization leeway: scheduling error
	// within ±epsilon is left alone; beyond it the speaker sleeps or
	// discards.
	DefaultEpsilon = 10 * time.Millisecond
	// DefaultControlTimeout bounds how long Run waits for any packet
	// before re-checking liveness.
	DefaultControlTimeout = 5 * time.Second
	// DefaultRelayLease is the subscription lease a speaker requests
	// when tuned to a relay instead of a multicast group.
	DefaultRelayLease = 15 * time.Second
)

// Config parameterizes a speaker.
type Config struct {
	Name  string   // diagnostics label
	Local lan.Addr // unicast bind address
	// Group is the initial channel source (may be empty; Tune later). A
	// multicast group is joined natively; a unicast address is treated
	// as a relay and subscribed to over a lease — the tune-in path for
	// speakers beyond the multicast segment.
	Group lan.Addr
	// Channel is the channel id requested when subscribing to a relay;
	// 0 accepts whatever the relay carries. A channel-restricted relay
	// refuses a mismatching id with SubNoChannel, and a multi-channel
	// relay forwards only the leased channel.
	Channel uint32

	// RelayLease overrides DefaultRelayLease.
	RelayLease time.Duration
	// RelayProfile is the delivery tier requested when subscribing to a
	// relay (codec.ProfileSource, the zero value, asks for the untouched
	// upstream stream). A tiered stream arrives as its own epoch with
	// the tier's codec in the rewritten Control packet, so playback
	// reconfigures through the normal radio-model path.
	RelayProfile codec.Profile

	// Epsilon overrides DefaultEpsilon (§3.2).
	Epsilon time.Duration
	// NoSync disables timestamp-based scheduling entirely: packets play
	// as they arrive. The §3.2 ablation.
	NoSync bool
	// RecvBuffer accumulates this many encoded bytes before the decode
	// stage runs — the pipeline-granularity knob of §3.4. 0 processes
	// every packet immediately.
	RecvBuffer int
	// BlockSize overrides the audio device's block size (§3.4).
	BlockSize int
	// CPU is the decode cost model (§3.4).
	CPU CPUModel
	// DACSpeed skews the simulated DAC clock (§3.2); 0 means 1.0.
	DACSpeed float64
	// Volume is the initial software gain (0 means 1.0).
	Volume float64
	// AutoVolume enables the ambient-noise controller (§5.2).
	AutoVolume *AutoVolume
	// ControlTimeout overrides DefaultControlTimeout.
	ControlTimeout time.Duration
	// Verify, when set, authenticates every incoming stream packet
	// before any parsing (§5.1); packets failing verification are
	// dropped. It covers the data plane (Control/Data) only — SubAck
	// replies are the relay's control plane, authenticated separately
	// by RelayAuth, so a stream-verifying speaker behind an unsigned
	// relay still learns its granted lease.
	Verify func(pkt []byte) ([]byte, bool)
	// RelayAuth, when set, authenticates the relay control plane: every
	// Subscribe the speaker sends is signed with it and every SubAck
	// must verify before the grant is applied. It must match the
	// relay's configured scheme and key (relayd -auth/-key-file).
	RelayAuth security.Authenticator
}

// Stats is the speaker's cumulative accounting. The `mib` and `help`
// tags drive registration in the mgmt MIB and the obs registry (see
// relay.Stats for the pattern); the coverage test in internal/mgmt
// fails if a field lacks its tag.
type Stats struct {
	ControlPackets   int64 `mib:"es.stats.control" help:"control packets accepted"`
	DataPackets      int64 `mib:"es.stats.data" help:"data packets accepted"`
	DroppedNoConfig  int64 `mib:"es.stats.droppedNoConfig" help:"data dropped before the first control packet"`
	DroppedEpoch     int64 `mib:"es.stats.droppedEpoch" help:"data dropped for a stale epoch after reconfiguration"`
	DroppedLate      int64 `mib:"es.stats.droppedLate" help:"batches discarded by the sync logic as too late (lateness, or a DAC that fell behind)"`
	DroppedMalformed int64 `mib:"es.stats.droppedMalformed" help:"unparseable packets dropped"`
	DroppedAuth      int64 `mib:"es.stats.droppedAuth" help:"packets dropped by stream verification"`
	BytesPlayed      int64 `mib:"es.stats.played" help:"decoded bytes written to the audio device"`
	SleepsToSync     int64 `mib:"es.stats.sleepsToSync" help:"fresh-start alignment sleeps"`
	GapFills         int64 `mib:"es.stats.gapFills" help:"silence insertions covering lost content or a DAC that ran ahead"`
	Tunes            int64 `mib:"es.stats.tunes" help:"channel switches"`
	RelaySubscribes  int64 `mib:"es.stats.relaySubscribes" help:"subscribe/refresh packets sent to a relay"`
	RelaySubAcks     int64 `mib:"es.stats.relaySubAcks" help:"lease acknowledgements accepted"`
	RelayRefusals    int64 `mib:"es.stats.relayRefused" help:"acks refusing the lease (no channel / table full / loop)"`
	RelayStaleAcks   int64 `mib:"es.stats.relayStale" help:"acks ignored as stale or foreign"`
	RelayAuthDropped int64 `mib:"es.stats.relayAuthDropped" help:"acks dropped by control-plane verification"`
	RelayRedirects   int64 `mib:"es.stats.relayRedirects" help:"lease redirects followed to a sibling relay (load shedding)"`
}

// Speaker is one Ethernet Speaker instance.
type Speaker struct {
	clock vclock.Clock
	cfg   Config
	conn  lan.Conn
	hw    *audiodev.SimHardware
	dev   *audiodev.Device

	mu      sync.Mutex
	stats   Stats
	group   lan.Addr
	haveCtl bool
	ctl     proto.Control
	dec     codec.Decoder
	// wall-clock mapping from the last control packet (§3.2): producer
	// nanosecond baseProducer corresponds to local instant baseLocal.
	baseLocal    time.Time
	baseProducer int64
	// accumulation stage (§3.4)
	pend       []byte
	pendPlayAt int64
	// software volume
	volume  float64
	ambient float64 // ambient noise RMS heard by the mic model (§5.2)
	stopped bool
	onPlay  []func(audiodev.PlayedBlock)

	// sub maintains the relay subscription while tuned to a unicast
	// relay address instead of a multicast group. It has its own lock;
	// never call it with s.mu held.
	sub *lease.Subscriber

	// Control-plane instruments (see internal/obs), fed by the lease
	// layer: Subscribe→SubAck RTT and refresh margin, wall clock.
	ctlRTT      *obs.Histogram
	leaseMargin *obs.Histogram
}

// New creates a speaker bound to cfg.Local, joined to cfg.Group if set.
func New(clock vclock.Clock, network lan.Network, cfg Config) (*Speaker, error) {
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	if cfg.ControlTimeout <= 0 {
		cfg.ControlTimeout = DefaultControlTimeout
	}
	if cfg.RelayLease <= 0 {
		cfg.RelayLease = DefaultRelayLease
	}
	if cfg.Volume == 0 {
		cfg.Volume = 1.0
	}
	conn, err := network.Attach(cfg.Local)
	if err != nil {
		return nil, fmt.Errorf("speaker %s: %w", cfg.Name, err)
	}
	s := &Speaker{clock: clock, cfg: cfg, conn: conn, volume: cfg.Volume}
	s.ctlRTT = obs.NewHistogram("es_speaker_control_rtt_seconds",
		"relay Subscribe→SubAck round trip", nil)
	s.leaseMargin = obs.NewHistogram("es_speaker_lease_margin_seconds",
		"relay lease time remaining at each refresh", nil)
	s.sub = lease.New(clock, conn, "speaker-"+cfg.Name+"-lease")
	s.sub.SetInstruments(s.ctlRTT, s.leaseMargin)
	if cfg.RelayProfile != 0 {
		s.sub.SetProfile(cfg.RelayProfile)
	}
	if cfg.RelayAuth != nil {
		s.sub.SetAuth(cfg.RelayAuth)
	}
	s.hw = audiodev.NewSimHardware(clock, s.played)
	if cfg.DACSpeed > 0 {
		s.hw.SetSpeed(cfg.DACSpeed)
	}
	s.dev = audiodev.NewDevice(clock, s.hw)
	if cfg.Group != "" {
		if err := s.tuneIn(cfg.Group); err != nil {
			conn.Close()
			return nil, err
		}
		s.group = cfg.Group
	}
	return s, nil
}

// tuneIn attaches to a channel source: a multicast group is joined
// natively; anything else is treated as a relay's unicast address and
// subscribed to under a lease (§2.3 beyond one segment), requesting the
// configured channel id so a multi-channel relay forwards only it.
func (s *Speaker) tuneIn(group lan.Addr) error {
	if group.IsMulticast() {
		return s.conn.Join(group)
	}
	if err := group.Validate(); err != nil {
		return fmt.Errorf("speaker %s: relay address: %w", s.cfg.Name, err)
	}
	s.sub.Subscribe(group, s.cfg.Channel, s.cfg.RelayLease)
	return nil
}

// tuneOut detaches from the current channel source.
func (s *Speaker) tuneOut(group lan.Addr) error {
	if group.IsMulticast() {
		return s.conn.Leave(group)
	}
	// Cancel the lease; if the packet is lost the relay expires us.
	s.sub.Cancel()
	return nil
}

// Stats returns a snapshot of the speaker accounting, folding in the
// relay-subscription counters the lease layer keeps.
func (s *Speaker) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	ls := s.sub.Stats()
	st.RelaySubscribes = ls.Subscribes
	st.RelaySubAcks = ls.Acks
	st.RelayRefusals = ls.Refusals
	st.RelayStaleAcks = ls.Stale
	st.RelayAuthDropped = ls.AuthDropped
	st.RelayRedirects = ls.Redirects
	return st
}

// Device exposes the underlying audio device (for its driver stats).
func (s *Speaker) Device() *audiodev.Device { return s.dev }

// OnPlay registers a callback invoked for every hardware block as it
// plays — the measurement tap for the synchronization experiments.
// Multiple callbacks may be registered; each sees every block. A nil
// fn is ignored.
func (s *Speaker) OnPlay(fn func(audiodev.PlayedBlock)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onPlay = append(s.onPlay, fn)
}

// played is the SimHardware sink.
func (s *Speaker) played(b audiodev.PlayedBlock) {
	s.mu.Lock()
	fns := s.onPlay
	s.mu.Unlock()
	for _, fn := range fns {
		fn(b)
	}
}

// SetVolume sets the software gain (clamped to [0, 4]).
func (s *Speaker) SetVolume(v float64) {
	if v < 0 {
		v = 0
	}
	if v > 4 {
		v = 4
	}
	s.mu.Lock()
	s.volume = v
	s.mu.Unlock()
}

// Volume returns the current software gain.
func (s *Speaker) Volume() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.volume
}

// SetAmbient sets the ambient noise RMS (in sample units) the microphone
// model hears (§5.2).
func (s *Speaker) SetAmbient(rms float64) {
	s.mu.Lock()
	s.ambient = rms
	s.mu.Unlock()
}

// Group returns the currently tuned channel group.
func (s *Speaker) Group() lan.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.group
}

// Tune switches to a different channel source: leave (or unsubscribe),
// join (or subscribe), and wait for the new channel's control packet
// ("like a radio", §2.3). A multicast group is joined natively; a
// unicast address is subscribed to as a relay.
func (s *Speaker) Tune(group lan.Addr) error {
	s.mu.Lock()
	old := s.group
	s.mu.Unlock()
	if old == group {
		return nil
	}
	if old != "" {
		if err := s.tuneOut(old); err != nil {
			return err
		}
	}
	if err := s.tuneIn(group); err != nil {
		return err
	}
	s.mu.Lock()
	s.group = group
	s.haveCtl = false
	s.dec = nil
	s.pend = nil
	s.stats.Tunes++
	s.mu.Unlock()
	s.dev.Flush()
	return nil
}

// Stop shuts the speaker down; Run and the lease refresher return.
func (s *Speaker) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.sub.Close()
	s.conn.Close()
}

// Run receives and plays until Stop. Spawn it via clock.Go.
func (s *Speaker) Run() {
	defer func() {
		if s.dev.Playing() || s.dev.Buffered() > 0 {
			s.dev.Drain()
		}
		s.dev.Close()
	}()
	for {
		pkt, err := s.conn.Recv(s.cfg.ControlTimeout)
		if err == lan.ErrTimeout {
			s.mu.Lock()
			stopped := s.stopped
			s.mu.Unlock()
			if stopped {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		s.handlePacket(pkt)
	}
}

// handlePacket verifies, classifies and dispatches one datagram.
//
// SubAck is classified before the stream Verify hook runs: it answers
// the relay control plane, whose trust root is Config.RelayAuth (the
// relay's key), not the producer's stream key. Running it through the
// stream hook was the bug that made Verify + relay fallback unusable —
// the relay signs nothing with the producer's key, so an authenticated
// speaker dropped every SubAck as DroppedAuth and never learned its
// granted lease. The common 8-byte header is plaintext in both the
// wrapped and unwrapped forms (the auth trailer is appended), so the
// peek works before any verification.
func (s *Speaker) handlePacket(pkt lan.Packet) {
	data := pkt.Data
	if t, _, err := proto.PeekType(data); err == nil && t == proto.TypeSubAck {
		s.handleSubAck(pkt.From, data)
		return
	}
	if s.cfg.Verify != nil {
		inner, ok := s.cfg.Verify(data)
		if !ok {
			s.mu.Lock()
			s.stats.DroppedAuth++
			s.mu.Unlock()
			return
		}
		data = inner
	}
	t, _, err := proto.PeekType(data)
	if err != nil {
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		return
	}
	switch t {
	case proto.TypeControl:
		s.handleControl(data, pkt.Recv)
	case proto.TypeData:
		s.handleData(data)
	default:
		// Announce packets are the tuner UI's business, not playback's.
	}
}

// handleSubAck feeds the relay's raw reply to the lease layer, which
// drops acks not sent by the leased relay's own address (off-path
// forgeries and late replies from a previous target), verifies the
// rest (under Config.RelayAuth), rejects stale seqs, records the
// granted lease, and re-paces its refresh off it. A refusal (table
// full, wrong channel, loop) is counted but the periodic subscribe
// keeps going: leases are soft state, so a full table may drain and
// the refresh doubles as the retry — at one small packet per refresh
// interval.
func (s *Speaker) handleSubAck(from lan.Addr, data []byte) {
	if _, err := s.sub.HandleAckData(from, data); err != nil &&
		err != lease.ErrAuthFailed && err != lease.ErrRedirectLimit {
		// Verification failures and exhausted redirect chains are
		// already counted by the lease layer (surfaced as
		// RelayAuthDropped and RelayRefusals); only parse failures are
		// the speaker's malformed-traffic problem.
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
	}
}

// handleControl ingests a control packet: (re)configure on a new epoch
// and refresh the wall-clock mapping (§3.2). recvAt is the packet's
// delivery time — using it (rather than processing time) keeps the
// anchor exact even when the speaker was blocked in a device write when
// the packet landed.
func (s *Speaker) handleControl(data []byte, recvAt time.Time) {
	ctl, err := proto.UnmarshalControl(data)
	if err != nil {
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		return
	}
	now := recvAt
	if now.IsZero() {
		now = s.clock.Now()
	}
	s.mu.Lock()
	reconfig := !s.haveCtl || ctl.Epoch != s.ctl.Epoch || ctl.Channel != s.ctl.Channel
	s.stats.ControlPackets++
	s.ctl = *ctl
	s.haveCtl = true
	// Zero-transmission-delay assumption (§3.2): the producer's clock
	// read ctl.Producer at the instant we received this packet.
	s.baseLocal = now
	s.baseProducer = ctl.Producer
	s.mu.Unlock()

	if !reconfig {
		return
	}
	dec, err := codec.NewDecoder(ctl.Codec, ctl.Params)
	if err != nil {
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.haveCtl = false
		s.mu.Unlock()
		return
	}
	// Reconfigure the audio path for the new stream.
	s.dev.Close()
	if err := s.dev.Open(ctl.Params); err != nil {
		s.mu.Lock()
		s.haveCtl = false
		s.mu.Unlock()
		return
	}
	if s.cfg.BlockSize > 0 {
		s.dev.SetBlockSize(s.cfg.BlockSize)
	}
	s.mu.Lock()
	s.dec = dec
	s.pend = nil
	s.mu.Unlock()
}

// handleData buffers payload and runs the pipeline stage when enough has
// accumulated (§3.4).
func (s *Speaker) handleData(data []byte) {
	d, err := proto.UnmarshalData(data)
	if err != nil {
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	if !s.haveCtl || s.dec == nil {
		// The radio model: no playing before a control packet (§2.3).
		s.stats.DroppedNoConfig++
		s.mu.Unlock()
		return
	}
	if d.Epoch != s.ctl.Epoch || d.Channel != s.ctl.Channel {
		s.stats.DroppedEpoch++
		s.mu.Unlock()
		return
	}
	s.stats.DataPackets++
	if len(s.pend) == 0 {
		s.pendPlayAt = d.PlayAt
	}
	s.pend = append(s.pend, d.Payload...)
	ready := len(s.pend) >= s.cfg.RecvBuffer
	s.mu.Unlock()
	if ready {
		s.processPending()
	}
}

// processPending decodes the accumulated payload, applies the §3.2
// schedule (sleep if early, discard if late), applies volume, and writes
// to the audio device.
func (s *Speaker) processPending() {
	s.mu.Lock()
	pend := s.pend
	playAt := s.pendPlayAt
	s.pend = nil
	dec := s.dec
	params := s.ctl.Params
	baseLocal, baseProducer := s.baseLocal, s.baseProducer
	s.mu.Unlock()
	if len(pend) == 0 || dec == nil {
		return
	}

	raw, err := dec.Decode(pend)
	if err != nil {
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		dec.Reset()
		return
	}
	// Charge the decode to the simulated CPU (§3.4). This happens before
	// the schedule check, exactly like on the real slow box: by the time
	// a big batch is decoded its deadline may already be gone.
	if cost := s.cfg.CPU.Cost(len(raw)); cost > 0 {
		s.clock.Sleep(cost)
	}

	var lead []byte // silence prepended for alignment or gap filling
	if !s.cfg.NoSync {
		now := s.clock.Now()
		target := baseLocal.Add(time.Duration(playAt - baseProducer))

		// Where would this batch start playing? The device's play cursor
		// says: it is read off the DAC's own schedule, so a DAC whose
		// oscillator runs fast or slow shows up here as a growing error
		// and is corrected below like any other. Only before the engine's
		// first fetch is there no cursor, and the batch follows whatever
		// is queued; with nothing queued this is a fresh start.
		startPlay, playing := s.dev.PlayCursor()
		fresh := false
		if !playing {
			queued := s.dev.QueuedBytes()
			startPlay = now.Add(params.Duration(queued))
			fresh = queued == 0
		}
		diff := startPlay.Sub(target)
		if diff > s.cfg.Epsilon {
			// Too late to be worth playing: discard up to the wall
			// clock (§3.2).
			s.mu.Lock()
			s.stats.DroppedLate++
			s.mu.Unlock()
			dec.Reset()
			return
		}
		switch {
		case fresh:
			// Fresh start: the DAC only triggers once a full hardware
			// block is buffered, which would skew this speaker's phase
			// by up to a block relative to others. Pad the front with
			// silence so the trigger fires on this write and the first
			// real sample plays exactly at its target (§3.2), sleeping
			// until that moment.
			if need := s.dev.BlockSize() - len(raw); need > 0 {
				lead = make([]byte, need)
				audio.FillSilence(params.Encoding, lead)
			}
			writeAt := target.Add(-params.Duration(len(lead)))
			if d := writeAt.Sub(now); d > 0 {
				s.mu.Lock()
				s.stats.SleepsToSync++
				s.mu.Unlock()
				s.clock.Sleep(d)
			}
		case diff < -s.cfg.Epsilon:
			// The batch would play early: content between the cursor and
			// the target is missing (packet loss, a producer pause) or
			// the DAC has run ahead of the producer. Fill the hole with
			// silence so everything after it stays on schedule, bounding
			// pathological gaps.
			gap := -diff
			if gap > 2*time.Second {
				gap = 2 * time.Second
			}
			if n := params.BytesFor(gap); n > 0 {
				lead = make([]byte, n)
				audio.FillSilence(params.Encoding, lead)
				s.mu.Lock()
				s.stats.GapFills++
				s.mu.Unlock()
			}
		}
	}

	raw = s.applyVolume(params, raw)
	if len(lead) > 0 {
		s.dev.Write(lead)
	}
	if _, err := s.dev.Write(raw); err == nil {
		s.mu.Lock()
		s.stats.BytesPlayed += int64(len(raw))
		s.mu.Unlock()
	}
}

// applyVolume scales the decoded audio by the software gain and runs the
// auto-volume controller (§5.2).
func (s *Speaker) applyVolume(params audio.Params, raw []byte) []byte {
	s.mu.Lock()
	vol := s.volume
	ambient := s.ambient
	av := s.cfg.AutoVolume
	s.mu.Unlock()

	if av == nil && vol == 1.0 {
		return raw
	}
	samples := audio.Decode(params, raw)
	if vol != 1.0 {
		for i, v := range samples {
			samples[i] = audio.Saturate(int32(float64(v) * vol))
		}
	}
	if av != nil {
		// Microphone model: the mic hears our own output plus ambient
		// noise; the controller steers toward the target loudness ratio.
		out := audio.RMS(samples)
		newVol := av.Update(vol, out, ambient)
		if newVol != vol {
			s.mu.Lock()
			s.volume = newVol
			s.mu.Unlock()
		}
	}
	return audio.Encode(params, samples)
}
