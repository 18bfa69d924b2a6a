package rebroadcast

import (
	"sort"
	"sync"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// DefaultCatalogInterval is the announce cadence on the catalog group.
const DefaultCatalogInterval = 2 * time.Second

// Catalog is the out-of-band channel directory (§4.3, after MFTP): a
// separate multicast group announces which channels exist and where, so
// a speaker can present a programme list without joining every audio
// group, and the server could suspend untuned channels.
type Catalog struct {
	clock    vclock.Clock
	conn     lan.Conn
	group    lan.Addr
	interval time.Duration

	mu       sync.Mutex
	channels map[uint32]proto.ChannelInfo
	relays   map[string]proto.RelayInfo        // by unicast address
	live     map[string]func() proto.RelayInfo // by the provider's initial Addr
	signer   func([]byte) ([]byte, error)
	seq      uint64
	stop     bool
	sent     int64
}

// SetSigner installs an announce signer (security.AnnounceSigner.Sign,
// typically): every marshaled announce is passed through it before the
// send, so verifying receivers can reject forged catalog records — the
// one steering input no control-plane authenticator covers. A cycle
// whose signing fails is skipped rather than sent unsigned: a verifying
// segment would reject it anyway, and a silently unsigned announce
// downgrades every non-verifying receiver too. Nil (the default)
// announces unsigned.
func (c *Catalog) SetSigner(sign func([]byte) ([]byte, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.signer = sign
}

// NewCatalog creates a catalog announcer on the given multicast group.
func NewCatalog(clock vclock.Clock, conn lan.Conn, group lan.Addr, interval time.Duration) *Catalog {
	if interval <= 0 {
		interval = DefaultCatalogInterval
	}
	return &Catalog{
		clock:    clock,
		conn:     conn,
		group:    group,
		interval: interval,
		channels: make(map[uint32]proto.ChannelInfo),
		relays:   make(map[string]proto.RelayInfo),
	}
}

// SetChannel adds or updates a catalog entry.
func (c *Catalog) SetChannel(info proto.ChannelInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.channels[info.ID] = info
}

// RemoveChannel deletes a catalog entry.
func (c *Catalog) RemoveChannel(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.channels, id)
}

// SetRelay adds or updates a relay record (§4.3 applied to bridges):
// off-LAN speakers and downstream relays learn where to lease a
// unicast copy without static configuration.
func (c *Catalog) SetRelay(info proto.RelayInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.relays[info.Addr] = info
}

// SetRelayFunc registers a live relay record provider, keyed by the
// address the provider reports at registration time. Run calls it on
// every announce cycle, so a record that changes between announces — a
// relay's load vector, above all — goes out fresh instead of frozen at
// whatever SetRelay last captured. The provider must be safe to call
// from the catalog's goroutine.
func (c *Catalog) SetRelayFunc(fn func() proto.RelayInfo) {
	addr := fn().Addr
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		c.live = make(map[string]func() proto.RelayInfo)
	}
	c.live[addr] = fn
}

// RemoveRelay deletes a relay record by its unicast address, whether it
// was registered statically or as a live provider.
func (c *Catalog) RemoveRelay(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.relays, addr)
	delete(c.live, addr)
}

// Announcements returns how many announce packets have been sent.
func (c *Catalog) Announcements() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Run announces periodically until Stop. Spawn it via clock.Go.
func (c *Catalog) Run() {
	next := c.clock.Now()
	for {
		c.mu.Lock()
		if c.stop {
			c.mu.Unlock()
			return
		}
		c.seq++
		a := proto.Announce{Seq: c.seq}
		ids := make([]uint32, 0, len(c.channels))
		for id := range c.channels {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			a.Channels = append(a.Channels, c.channels[id])
		}
		relays := make(map[string]proto.RelayInfo, len(c.relays)+len(c.live))
		for addr, ri := range c.relays {
			relays[addr] = ri
		}
		fns := make([]func() proto.RelayInfo, 0, len(c.live))
		for _, fn := range c.live {
			fns = append(fns, fn)
		}
		sign := c.signer
		c.sent++
		c.mu.Unlock()
		// Live providers run outside c.mu: they read the relay's own
		// state under its locks, and a live record (fresh load vector)
		// overrides any static one for the same address.
		for _, fn := range fns {
			ri := fn()
			relays[ri.Addr] = ri
		}
		addrs := make([]string, 0, len(relays))
		for addr := range relays {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			a.Relays = append(a.Relays, relays[addr])
		}
		if pkt, err := a.Marshal(); err == nil {
			if sign != nil {
				pkt, err = sign(pkt)
			}
			if err == nil {
				c.conn.Send(c.group, pkt)
			}
		}
		next = sleepToNext(c.clock, next, c.interval)
	}
}

// Stop makes Run return after the current cycle.
func (c *Catalog) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stop = true
}
