package rebroadcast

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/vad"
	"repro/internal/vclock"
)

// QualityZero requests the explicit lowest codec quality (Config.Quality
// zero means "default", which is maximum quality).
const QualityZero = -1

// Defaults.
const (
	// DefaultControlInterval is the control-packet cadence (§2.3).
	DefaultControlInterval = time.Second
	// DefaultChunkBytes bounds a data packet's payload so the marshalled
	// packet fits a LAN datagram.
	DefaultChunkBytes = 1400
	// DefaultLead is how far ahead of real time the producer stamps
	// packets, giving speakers buffering room.
	DefaultLead = 200 * time.Millisecond
	// DefaultCompressThreshold: streams at or above this raw bitrate get
	// the transform codec; below it they ship raw (§2.2 — compression
	// latency and CPU are not worth it on low-rate channels).
	DefaultCompressThreshold = 256_000 // bits per second
)

// Config parameterizes one rebroadcast channel.
type Config struct {
	ID    uint32   // channel identifier in every packet
	Name  string   // human-readable channel name (catalog)
	Group lan.Addr // multicast group to transmit on

	// Codec forces a codec by name; empty selects automatically by the
	// stream's bitrate (CompressThreshold).
	Codec string
	// Quality is the transform-codec quality index; the paper runs at
	// maximum to limit multi-generation loss (§2.2). Zero selects the
	// default (maximum); pass QualityZero for an explicit lowest
	// quality.
	Quality int
	// CompressThreshold overrides DefaultCompressThreshold (bits/s).
	CompressThreshold int
	// ControlInterval overrides DefaultControlInterval.
	ControlInterval time.Duration
	// ChunkBytes overrides DefaultChunkBytes.
	ChunkBytes int
	// Lead overrides DefaultLead.
	Lead time.Duration
	// Preroll lets the producer run this far ahead of real time: at
	// stream start it bursts a Preroll's worth of audio so speaker
	// buffers fill, then settles to the paced rate. Must be below Lead
	// or timestamp-synced speakers would always run late. 0 means
	// Lead/2.
	Preroll time.Duration
	// DisableRateLimit turns the §3.1 rate limiter off, reproducing the
	// wire-speed blast that overruns speaker buffers.
	DisableRateLimit bool
	// Sign, when set, authenticates every outgoing packet (§5.1).
	Sign func(pkt []byte) []byte
}

func (c *Config) applyDefaults() {
	if c.ControlInterval <= 0 {
		c.ControlInterval = DefaultControlInterval
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.Lead <= 0 {
		c.Lead = DefaultLead
	}
	if c.CompressThreshold <= 0 {
		c.CompressThreshold = DefaultCompressThreshold
	}
	switch {
	case c.Quality == QualityZero:
		c.Quality = 0
	case c.Quality <= 0:
		c.Quality = codec.MaxQuality
	}
	if c.Preroll <= 0 {
		c.Preroll = c.Lead / 2
	}
	if c.Preroll > c.Lead {
		c.Preroll = c.Lead
	}
}

// Stats is the producer's cumulative accounting.
type Stats struct {
	ControlPackets int64
	DataPackets    int64
	PayloadBytes   int64 // encoded payload actually sent
	SourceBytes    int64 // raw bytes read from the VAD master
	Reconfigs      int64 // config events seen (epoch bumps)
	EncodeErrors   int64
	SendErrors     int64
}

// Rebroadcaster multicasts one channel.
type Rebroadcaster struct {
	clock vclock.Clock
	conn  lan.Conn
	cfg   Config
	start time.Time // producer clock epoch

	mu        sync.Mutex
	stats     Stats
	epoch     uint32
	params    audio.Params
	codecName string
	enc       codec.Encoder
	playhead  time.Time // stream position in producer local time
	stopped   bool
}

// New creates a rebroadcaster transmitting on cfg.Group via conn.
func New(clock vclock.Clock, conn lan.Conn, cfg Config) (*Rebroadcaster, error) {
	cfg.applyDefaults()
	if !cfg.Group.IsMulticast() {
		return nil, fmt.Errorf("rebroadcast: group %q is not multicast", cfg.Group)
	}
	return &Rebroadcaster{clock: clock, conn: conn, cfg: cfg, start: clock.Now()}, nil
}

// Stats returns a snapshot of the accounting.
func (r *Rebroadcaster) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Epoch returns the current stream generation.
func (r *Rebroadcaster) Epoch() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// producerNow returns the producer wall clock in nanoseconds (§3.2).
func (r *Rebroadcaster) producerNow() int64 { return int64(r.clock.Since(r.start)) }

// Run consumes the VAD master until it closes or Stop is called. It is
// the single-threaded collect-and-deliver loop of §2.3 plus a small
// control-cadence task.
func (r *Rebroadcaster) Run(master *vad.Master) {
	stopCtl := make(chan struct{})
	r.clock.Go("rebroadcast-control", func() {
		next := r.clock.Now()
		for {
			select {
			case <-stopCtl:
				return
			default:
			}
			r.sendControl()
			next = sleepToNext(r.clock, next, r.cfg.ControlInterval)
		}
	})
	defer close(stopCtl)

	for {
		blk, ok := master.ReadBlock()
		if !ok {
			r.flush()
			return
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			r.flush()
			return
		}
		r.mu.Unlock()
		if blk.Config {
			r.reconfigure(blk.Params)
			continue
		}
		r.handleData(blk)
	}
}

// sleepToNext paces a periodic task: it sleeps until interval after the
// previous deadline and returns the new one. Deadlines counted from the
// first turn keep the cadence from stretching by each turn's run time
// and each sleep's overshoot, as a relative Sleep(interval) would; a
// deadline missed outright restarts the count instead of bursting.
func sleepToNext(clock vclock.Clock, prev time.Time, interval time.Duration) time.Time {
	next := prev.Add(interval)
	now := clock.Now()
	if next.Before(now) {
		next = now
	}
	clock.Sleep(next.Sub(now))
	return next
}

// Stop makes Run return after the current block.
func (r *Rebroadcaster) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
}

// chooseCodec applies the §2.2 policy: compress only streams whose raw
// bitrate justifies the CPU and latency.
func (r *Rebroadcaster) chooseCodec(p audio.Params) string {
	if r.cfg.Codec != "" {
		return r.cfg.Codec
	}
	if p.BitsPerSecond() >= r.cfg.CompressThreshold &&
		p.Encoding.BytesPerSample() == 2 {
		return "ovl"
	}
	return "raw"
}

// reconfigure starts a new stream epoch for new parameters.
func (r *Rebroadcaster) reconfigure(p audio.Params) {
	name := r.chooseCodec(p)
	enc, err := codec.NewEncoder(name, p, r.cfg.Quality)
	if err != nil {
		// Fall back to raw rather than going silent.
		name = "raw"
		enc, _ = codec.NewEncoder(name, p, 0)
	}
	r.mu.Lock()
	r.epoch++
	r.params = p
	r.codecName = name
	r.enc = enc
	r.playhead = time.Time{}
	r.stats.Reconfigs++
	r.mu.Unlock()
	// Announce the new configuration immediately so speakers cut over
	// without waiting out the control interval.
	r.sendControl()
}

// sendControl multicasts one control packet (§2.3).
func (r *Rebroadcaster) sendControl() {
	r.mu.Lock()
	if r.params.Validate() != nil {
		// No configuration yet: nothing to announce.
		r.mu.Unlock()
		return
	}
	c := proto.Control{
		Channel:  r.cfg.ID,
		Epoch:    r.epoch,
		Seq:      uint64(r.stats.ControlPackets + 1),
		Producer: r.producerNow(),
		Params:   r.params,
		Codec:    r.codecName,
		Quality:  uint8(r.cfg.Quality),
		Interval: uint32(r.cfg.ControlInterval / time.Millisecond),
	}
	r.stats.ControlPackets++
	r.mu.Unlock()
	pkt, err := c.Marshal()
	if err != nil {
		return
	}
	r.send(pkt)
}

// handleData encodes, packetizes, rate-limits and transmits one VAD
// block.
func (r *Rebroadcaster) handleData(blk vad.Block) {
	r.mu.Lock()
	enc := r.enc
	params := r.params
	name := r.codecName
	epoch := r.epoch
	r.stats.SourceBytes += int64(len(blk.Data))
	r.mu.Unlock()
	if enc == nil {
		return // data before any configuration: undecodable, drop
	}

	stream, err := enc.Encode(blk.Data)
	if err != nil {
		r.mu.Lock()
		r.stats.EncodeErrors++
		r.mu.Unlock()
		return
	}
	if len(stream) == 0 {
		return // codec still buffering
	}
	chunks, err := codec.Split(name, params, stream, r.cfg.ChunkBytes)
	if err != nil {
		r.mu.Lock()
		r.stats.EncodeErrors++
		r.mu.Unlock()
		return
	}
	for _, chunk := range chunks {
		dur, err := codec.PayloadDuration(name, params, chunk)
		if err != nil {
			continue
		}
		r.transmitChunk(epoch, chunk, dur)
	}
}

// transmitChunk applies the rate limiter and sends one data packet. The
// playhead tracks where the stream is in producer time: each chunk is
// stamped to play at playhead+Lead, and the producer sleeps so it never
// runs ahead of real time (§3.1).
func (r *Rebroadcaster) transmitChunk(epoch uint32, payload []byte, dur time.Duration) {
	now := r.clock.Now()
	r.mu.Lock()
	if r.playhead.IsZero() || r.playhead.Before(now.Add(-time.Second)) {
		// Stream start (or a long gap, e.g. the app paused): restart the
		// playhead at real time.
		r.playhead = now
	}
	playAt := int64(r.playhead.Sub(r.start)) + int64(r.cfg.Lead)
	// The stream may run Preroll ahead of real time (initial burst to
	// fill speaker buffers); beyond that the limiter sleeps (§3.1).
	sleepFor := r.playhead.Sub(now) - r.cfg.Preroll
	r.playhead = r.playhead.Add(dur)
	seq := r.stats.DataPackets + 1
	r.stats.DataPackets++
	r.stats.PayloadBytes += int64(len(payload))
	r.mu.Unlock()

	if !r.cfg.DisableRateLimit && sleepFor > 0 {
		r.clock.Sleep(sleepFor)
	}
	d := proto.Data{
		Channel: r.cfg.ID,
		Epoch:   epoch,
		Seq:     uint64(seq),
		PlayAt:  playAt,
		Payload: payload,
	}
	pkt, err := d.Marshal()
	if err != nil {
		return
	}
	r.send(pkt)
}

// flush drains the encoder tail at end of stream.
func (r *Rebroadcaster) flush() {
	r.mu.Lock()
	enc := r.enc
	params := r.params
	name := r.codecName
	epoch := r.epoch
	r.mu.Unlock()
	if enc == nil {
		return
	}
	tail, err := enc.Flush()
	if err != nil || len(tail) == 0 {
		return
	}
	chunks, err := codec.Split(name, params, tail, r.cfg.ChunkBytes)
	if err != nil {
		return
	}
	for _, chunk := range chunks {
		dur, err := codec.PayloadDuration(name, params, chunk)
		if err != nil {
			continue
		}
		r.transmitChunk(epoch, chunk, dur)
	}
}

// send signs (if configured) and transmits a marshalled packet.
func (r *Rebroadcaster) send(pkt []byte) {
	if r.cfg.Sign != nil {
		pkt = r.cfg.Sign(pkt)
	}
	if err := r.conn.Send(r.cfg.Group, pkt); err != nil {
		r.mu.Lock()
		r.stats.SendErrors++
		r.mu.Unlock()
	}
}
