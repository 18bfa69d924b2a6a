package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/speaker"
	"repro/internal/vad"
	"repro/internal/vclock"
)

// CatalogGroup is the well-known multicast group for channel
// announcements (§4.3).
const CatalogGroup = lan.Addr("239.72.0.1:5003")

// System is one Ethernet Speaker deployment on a LAN.
type System struct {
	Clock vclock.Clock
	Net   lan.Network
	// Seg is set when the system runs on a simulated segment, exposing
	// its traffic statistics.
	Seg *lan.Segment
	// Sim is set when the system runs on a simulated clock.
	Sim *vclock.Sim

	mu       sync.Mutex
	channels map[uint32]*Channel
	speakers []*speaker.Speaker
	relays   []*relay.Relay
	catalog  *rebroadcast.Catalog
	hostSeq  int
}

// Channel is one audio channel: an application-facing VAD whose master
// side feeds a rebroadcaster.
type Channel struct {
	Cfg rebroadcast.Config
	VAD *vad.VAD
	Reb *rebroadcast.Rebroadcaster

	sys *System
}

// NewSim builds a system on fresh simulated time and a simulated
// segment.
func NewSim(segCfg lan.SegmentConfig) *System {
	sim := vclock.NewSim(time.Time{})
	seg := lan.NewSegment(sim, segCfg)
	return &System{Clock: sim, Net: seg, Seg: seg, Sim: sim,
		channels: make(map[uint32]*Channel)}
}

// New builds a system on an arbitrary clock and network (e.g. the real
// clock and UDP multicast).
func New(clock vclock.Clock, network lan.Network) *System {
	s := &System{Clock: clock, Net: network, channels: make(map[uint32]*Channel)}
	if sim, ok := clock.(*vclock.Sim); ok {
		s.Sim = sim
	}
	if seg, ok := network.(*lan.Segment); ok {
		s.Seg = seg
	}
	return s
}

// nextHostAddr hands out unique unicast addresses on the simulated LAN.
func (s *System) nextHostAddr() lan.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hostSeq++
	return lan.Addr(fmt.Sprintf("10.0.%d.%d:5000", s.hostSeq/250, s.hostSeq%250+1))
}

// AddChannel creates a VAD + rebroadcaster pair for one channel and
// starts the producer. The returned Channel's VAD slave is where the
// audio application plays.
func (s *System) AddChannel(cfg rebroadcast.Config, vcfg vad.Config) (*Channel, error) {
	conn, err := s.Net.Attach(s.nextHostAddr())
	if err != nil {
		return nil, err
	}
	v := vad.New(s.Clock, vcfg)
	reb, err := rebroadcast.New(s.Clock, conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ch := &Channel{Cfg: cfg, VAD: v, Reb: reb, sys: s}
	s.mu.Lock()
	if _, dup := s.channels[cfg.ID]; dup {
		s.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("core: duplicate channel id %d", cfg.ID)
	}
	s.channels[cfg.ID] = ch
	cat := s.catalog
	s.mu.Unlock()
	s.Clock.Go(fmt.Sprintf("rebroadcast-%d", cfg.ID), func() {
		reb.Run(v.Master())
	})
	if cat != nil {
		cat.SetChannel(ch.Info())
	}
	return ch, nil
}

// Info returns the channel's catalog entry.
func (ch *Channel) Info() proto.ChannelInfo {
	return proto.ChannelInfo{
		ID:     ch.Cfg.ID,
		Name:   ch.Cfg.Name,
		Group:  string(ch.Cfg.Group),
		Codec:  ch.Cfg.Codec,
		Params: ch.VAD.Slave().Params(),
	}
}

// Channel returns a channel by id.
func (s *System) Channel(id uint32) *Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.channels[id]
}

// StartCatalog begins announcing the channel directory on CatalogGroup.
func (s *System) StartCatalog(interval time.Duration) error {
	conn, err := s.Net.Attach(s.nextHostAddr())
	if err != nil {
		return err
	}
	cat := rebroadcast.NewCatalog(s.Clock, conn, CatalogGroup, interval)
	s.mu.Lock()
	s.catalog = cat
	for _, ch := range s.channels {
		cat.SetChannel(ch.Info())
	}
	for _, r := range s.relays {
		// Live record provider: every announce cycle re-reads the
		// relay's load vector instead of freezing it at registration.
		cat.SetRelayFunc(r.Info)
	}
	s.mu.Unlock()
	s.Clock.Go("catalog", cat.Run)
	return nil
}

// Catalog returns the catalog announcer, if started.
func (s *System) Catalog() *rebroadcast.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog
}

// AddSpeaker creates and starts a speaker. Its Local address is
// assigned automatically when empty.
func (s *System) AddSpeaker(cfg speaker.Config) (*speaker.Speaker, error) {
	if cfg.Local == "" {
		a := s.nextHostAddr()
		cfg.Local = lan.Addr(fmt.Sprintf("%s:%d", a.Host(), 5004))
	}
	sp, err := speaker.New(s.Clock, s.Net, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.speakers = append(s.speakers, sp)
	s.mu.Unlock()
	s.Clock.Go("speaker-"+cfg.Name, sp.Run)
	return sp, nil
}

// Speakers returns all speakers added so far.
func (s *System) Speakers() []*speaker.Speaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*speaker.Speaker(nil), s.speakers...)
}

// AddRelay creates and starts a relay bridging cfg.Group (or, chained,
// cfg.Upstream) to unicast subscribers. Speakers beyond the multicast
// segment tune to the returned relay's Addr() instead of the group.
// With the catalog running, the relay is advertised there so off-LAN
// tuners and downstream relays can discover it.
func (s *System) AddRelay(cfg relay.Config) (*relay.Relay, error) {
	a := s.nextHostAddr()
	conn, err := s.Net.Attach(lan.Addr(fmt.Sprintf("%s:%d", a.Host(), 5006)))
	if err != nil {
		return nil, err
	}
	r, err := relay.New(s.Clock, conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.mu.Lock()
	s.relays = append(s.relays, r)
	cat := s.catalog
	s.mu.Unlock()
	if cat != nil {
		cat.SetRelayFunc(r.Info)
	}
	s.Clock.Go("relay-"+string(r.Addr()), r.Run)
	return r, nil
}

// Relays returns all relays added so far.
func (s *System) Relays() []*relay.Relay {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*relay.Relay(nil), s.relays...)
}

// Play runs an "off-the-shelf audio application" against the channel's
// VAD slave: it opens the device with the given parameters and writes
// the source for the given duration of audio, then drains and closes.
// Spawn via the system clock:
//
//	sys.Clock.Go("player", func() { ch.Play(p, src, 10*time.Second) })
func (ch *Channel) Play(p audio.Params, src audio.Source, dur time.Duration) error {
	slave := ch.VAD.Slave()
	if err := slave.Open(p); err != nil {
		return err
	}
	defer slave.Close()
	total := p.BytesFor(dur)
	buf := make([]int16, 4096*p.Channels)
	written := 0
	for written < total {
		n, err := src.ReadSamples(buf)
		if n == 0 {
			break
		}
		raw := audio.Encode(p, buf[:n])
		if written+len(raw) > total {
			raw = raw[:total-written]
		}
		if _, werr := slave.Write(raw); werr != nil {
			return werr
		}
		written += len(raw)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return slave.Drain()
}

// Shutdown stops all speakers and producers.
func (s *System) Shutdown() {
	s.mu.Lock()
	speakers := append([]*speaker.Speaker(nil), s.speakers...)
	relays := append([]*relay.Relay(nil), s.relays...)
	channels := make([]*Channel, 0, len(s.channels))
	for _, ch := range s.channels {
		channels = append(channels, ch)
	}
	cat := s.catalog
	s.mu.Unlock()
	for _, sp := range speakers {
		sp.Stop()
	}
	for _, r := range relays {
		r.Stop()
	}
	for _, ch := range channels {
		ch.Reb.Stop()
		ch.VAD.Close()
	}
	if cat != nil {
		cat.Stop()
	}
}
