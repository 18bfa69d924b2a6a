package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/security"
)

// keys is the control-plane secret a run's daemons and subscribers
// share. The daemons get it as a key file and a flag; the harness signs
// with the same public constructors a real subscriber would use.
type keys struct {
	scheme string // "none", "hmac" or "ident"
	file   string // what the daemons read
	hmac   *security.HMACAuth
	ring   *security.Keyring
}

func newKeys(scheme, dir string, seed int64) (*keys, error) {
	k := &keys{scheme: scheme}
	if scheme == "none" {
		return k, nil
	}
	secret := fmt.Sprintf("esbench-%s-%d", scheme, seed)
	k.file = filepath.Join(dir, "control.key")
	if err := os.WriteFile(k.file, []byte(secret+"\n"), 0o600); err != nil {
		return nil, err
	}
	switch scheme {
	case "hmac":
		k.hmac = security.NewHMAC([]byte(secret))
	case "ident":
		k.ring = security.NewKeyring([]byte(secret))
	default:
		return nil, fmt.Errorf("unknown auth scheme %q", scheme)
	}
	return k, nil
}

// flags are the relayd arguments that select this scheme.
func (k *keys) flags() []string {
	if k.scheme == "none" {
		return nil
	}
	return []string{"-auth", k.scheme, "-key-file", k.file}
}

// signer returns what a subscriber with this identity, sending from
// source, signs its requests and opens its acks with. Shared-key HMAC
// ignores both; nil means the control plane is plaintext.
func (k *keys) signer(identity uint32, source string) security.Authenticator {
	switch k.scheme {
	case "hmac":
		return k.hmac
	case "ident":
		return k.ring.SignerAt(identity, source, 0)
	}
	return nil
}

// client is one subscriber's control-plane end: a loopback socket, the
// relay it talks to, and its signer.
type client struct {
	sc     *stampedConn
	relay  *net.UDPAddr
	signer security.Authenticator
	seq    uint32
	acks   chan ackEvent // probes only: filled by the goroutine that reads the socket
}

type ackEvent struct {
	ack *proto.SubAck
	ts  int64
}

// subReq is what a subscriber asks for.
type subReq struct {
	channel uint32
	leaseMs uint32 // 0 cancels
	profile uint8
	shiftMs uint32
}

func newClient(k *keys, identity uint32, relay *net.UDPAddr) (client, error) {
	c, err := listenLoopback()
	if err != nil {
		return client{}, err
	}
	sc, err := newStamped(c)
	if err != nil {
		c.Close()
		return client{}, err
	}
	return client{sc: sc, relay: relay, signer: k.signer(identity, c.LocalAddr().String())}, nil
}

func (c *client) port() int { return c.sc.c.LocalAddr().(*net.UDPAddr).Port }

// subscribe sends one Subscribe (a refresh when a lease is held, a
// cancel when leaseMs is 0) and returns the request seq the ack echoes.
func (c *client) subscribe(r subReq) (uint32, error) {
	c.seq++
	return c.seq, c.send(r, c.seq)
}

// send transmits r under request seq; sending a seq again is a
// retransmission (signed afresh, so a replay window lets it through).
func (c *client) send(r subReq, seq uint32) error {
	req := proto.Subscribe{Channel: r.channel, Seq: seq, LeaseMs: r.leaseMs, Profile: r.profile, ShiftMs: r.shiftMs}
	pkt, err := req.Marshal()
	if err != nil {
		return err
	}
	if c.signer != nil {
		pkt = c.signer.Sign(pkt)
	}
	_, err = c.sc.c.WriteToUDP(pkt, c.relay)
	return err
}

// openAck verifies and parses a SubAck datagram.
func (c *client) openAck(pkt []byte) (*proto.SubAck, bool) {
	if c.signer != nil {
		inner, ok := c.signer.Verify(pkt)
		if !ok {
			return nil, false
		}
		pkt = inner
	}
	ack, err := proto.UnmarshalSubAck(pkt)
	return ack, err == nil
}

// deliverAck is called by the goroutine that reads the socket.
func (c *client) deliverAck(pkt []byte, ts int64) {
	if ack, ok := c.openAck(pkt); ok {
		select {
		case c.acks <- ackEvent{ack, ts}:
		default:
		}
	}
}

// awaitAck waits for the ack to request seq. With direct set nobody
// else reads the socket (a mute sink before it goes mute), so the wait
// reads it itself.
func (c *client) awaitAck(seq uint32, timeout time.Duration, direct bool) (ackEvent, error) {
	deadline := time.Now().Add(timeout)
	if direct {
		buf := make([]byte, 256)
		c.sc.c.SetReadDeadline(deadline)
		defer c.sc.c.SetReadDeadline(time.Time{})
		for {
			n, ts, err := c.sc.read(buf)
			if err != nil {
				return ackEvent{}, err
			}
			if ack, ok := c.openAck(buf[:n]); ok && ack.Seq == seq {
				return ackEvent{ack, ts}, nil
			}
		}
	}
	for {
		select {
		case ev := <-c.acks:
			if ev.ack.Seq == seq {
				return ev, nil
			}
		case <-time.After(time.Until(deadline)):
			return ackEvent{}, os.ErrDeadlineExceeded
		}
	}
}

// request is subscribe plus awaitAck with retries; it is how everything
// outside the measured window talks to a relay (readiness, set-up).
func (c *client) request(r subReq, direct bool) (ackEvent, error) {
	var err error
	for try := 0; try < 5; try++ {
		var seq uint32
		if seq, err = c.subscribe(r); err != nil {
			return ackEvent{}, err
		}
		var ev ackEvent
		if ev, err = c.awaitAck(seq, 200*time.Millisecond, direct); err == nil {
			if ev.ack.Status != proto.SubOK {
				return ev, fmt.Errorf("relay %s refused subscribe: %s", c.relay, ev.ack.Status)
			}
			return ev, nil
		}
	}
	return ackEvent{}, fmt.Errorf("relay %s: no SubAck after 5 tries: %w", c.relay, err)
}

// awaitRelay blocks until the relay at addr answers a Subscribe — the
// daemon is then bound, verifying and admitting — and cancels the probe
// lease again. A sleep would either waste set-up time or race the bind.
func awaitRelay(k *keys, relay *net.UDPAddr, timeout time.Duration) error {
	cl, err := newClient(k, readinessIdentity, relay)
	if err != nil {
		return err
	}
	defer cl.sc.c.Close()
	deadline := time.Now().Add(timeout)
	for {
		seq, err := cl.subscribe(subReq{channel: idleChannel, leaseMs: 1000})
		if err == nil {
			if _, err = cl.awaitAck(seq, 5*time.Millisecond, true); err == nil {
				cl.subscribe(subReq{channel: idleChannel})
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("relay %s not answering after %v: %w", relay, timeout, err)
		}
	}
}

// Channels and reserved identities.
const (
	streamChannel     = 1 // what rebroadcastd transmits
	idleChannel       = 2 // leased by churners; carries no stream
	readinessIdentity = 90
	speakerIdentity   = 91 // +index
	relayBIdentity    = 100
	subscriberBase    = 1000   // +index: probes and mute sinks
	churnerBase       = 100000 // +seeded index
)

// churner is one socket of the control-plane load: it leases the idle
// channel, refreshes, cancels, and starts over.
type churner struct {
	client
	step   int  // next op: 0 subscribe, 1 refresh, 2 cancel
	leased bool // a lease was asked for and not yet cancelled

	mu      sync.Mutex
	pending uint32 // request seq awaiting its ack; 0 = none
	due     int64  // when that request was due to be sent, Unix ns
	rtts    []float64
	refused int // acks that refused the lease
	done    chan struct{}
}

func (c *churner) loop() {
	defer close(c.done)
	buf := make([]byte, 256)
	for {
		n, ts, err := c.sc.read(buf)
		if err != nil {
			return
		}
		ack, ok := c.openAck(buf[:n])
		if !ok {
			continue
		}
		c.mu.Lock()
		if ack.Status != proto.SubOK {
			c.refused++ // and the request stays pending: a refusal is a failure
		}
		if ack.Seq == c.pending && ack.Status == proto.SubOK {
			c.rtts = append(c.rtts, float64(ts-c.due)/1e3)
			c.pending = 0
		}
		c.mu.Unlock()
	}
}

// churn is the open-loop control-plane generator: ops are due at a fixed
// rate whether or not the relay keeps up, go round-robin over a seeded
// order of churners, and are timed from their due time, so a stall in
// the relay (or in this generator) shows up as latency instead of as
// lower load. A request still unanswered after retryEvery is sent again,
// up to maxRetries times, as a lease client's refresh timer would: UDP
// may lose a datagram, and a relay whose vCPU is stalled for a moment
// drops what overflows its receive queue. Only a request that draws no
// ack to any copy has failed.
type churn struct {
	pool []*churner
	rate float64 // ops/s

	// Results, valid after run returns.
	requests, cancels int // ops sent: ack-expecting (subscribe, refresh) and silent
	creates, removes  int // of those, how many should have made or ended a lease
	retransmits       int // further copies sent
	retryEvery        time.Duration
	watch             []awaiting // requests not yet due a second copy when run stopped
	unanswered        int        // joins and refreshes whose ack never came
	refused           int        // acks that refused a lease (table full, wrong channel)
	late              []float64  // µs behind schedule per op
}

// awaiting is a request whose ack is watched for.
type awaiting struct {
	c     *churner
	req   subReq
	seq   uint32
	at    time.Time // when to send it again
	tries int       // copies sent after the first
}

const maxRetries = 2

func newChurn(k *keys, relay *net.UDPAddr, order []int, rate float64) (*churn, error) {
	g := &churn{rate: rate}
	for _, id := range order {
		cl, err := newClient(k, churnerBase+uint32(id), relay)
		if err != nil {
			g.close()
			return nil, err
		}
		// Churners start at different points of the cycle, so the op mix
		// is even over time instead of 2,000 joins, then 2,000 refreshes,
		// then 2,000 cancels. (A refresh without a lease is granted as a
		// new one; a cancel without a lease is a no-op.)
		c := &churner{client: cl, step: len(g.pool) % 3, done: make(chan struct{})}
		go c.loop()
		g.pool = append(g.pool, c)
	}
	return g, nil
}

// run issues ops until stop closes.
func (g *churn) run(stop <-chan struct{}) {
	if len(g.pool) == 0 {
		<-stop
		return
	}
	period := time.Duration(float64(time.Second) / g.rate)
	// A churner's next op comes one round later; both retransmissions go
	// out before it.
	g.retryEvery = min(250*time.Millisecond, period*time.Duration(len(g.pool))/(maxRetries+1))
	var watch []awaiting // in deadline order: every deadline is retryEvery after its send
	defer func() { g.watch = watch }()
	// A generator that fell behind (its vCPU was taken away for a moment)
	// catches up at twice the rate in bursts of at most catchUpBurst, not
	// all at once: the relay tail-drops what overflows its 256-packet
	// receive queue, stream packets included, and a real population of
	// subscribers does not synchronise its requests.
	const catchUpBurst = 16
	pause := func(d time.Duration) (stopped bool) {
		if d <= 0 {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		select {
		case <-stop:
			return true
		case <-time.After(d):
			return false
		}
	}
	start := time.Now()
	tokens, refilled := float64(catchUpBurst), start
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if pause(time.Until(due)) {
			return
		}
		for {
			now := time.Now()
			tokens = min(catchUpBurst, tokens+now.Sub(refilled).Seconds()*2*g.rate)
			refilled = now
			if tokens >= 1 {
				break
			}
			if pause(time.Duration((1 - tokens) / (2 * g.rate) * float64(time.Second))) {
				return
			}
		}
		tokens--
		now := time.Now()
		for len(watch) > 0 && !watch[0].at.After(now) {
			if w, again := g.retry(watch[0]); again {
				watch = append(watch, w)
			}
			watch = watch[1:]
		}
		g.late = append(g.late, float64(now.Sub(due))/1e3)
		c := g.pool[k%len(g.pool)]
		req := subReq{channel: idleChannel, leaseMs: 60_000}
		if c.step == 2 {
			req.leaseMs = 0
		}
		c.mu.Lock()
		if c.pending != 0 {
			g.unanswered++
		}
		seq, err := c.subscribe(req)
		c.pending, c.due = 0, due.UnixNano()
		if err == nil && req.leaseMs != 0 {
			c.pending = seq // cancels are silent by design: nothing to wait for
			watch = append(watch, awaiting{c: c, req: req, seq: seq, at: now.Add(g.retryEvery)})
		}
		c.mu.Unlock()
		if req.leaseMs != 0 {
			g.requests++
			if !c.leased {
				g.creates++
			}
		} else {
			g.cancels++
			if c.leased {
				g.removes++
			}
		}
		c.leased = req.leaseMs != 0
		c.step = (c.step + 1) % 3
	}
}

// retry sends w's request again if its ack has not come, and reports
// whether it should be watched for another round.
func (g *churn) retry(w awaiting) (awaiting, bool) {
	w.c.mu.Lock()
	lost := w.c.pending == w.seq
	w.c.mu.Unlock()
	if !lost || w.c.send(w.req, w.seq) != nil {
		return w, false
	}
	g.retransmits++
	w.tries++
	w.at = time.Now().Add(g.retryEvery)
	return w, w.tries < maxRetries
}

// sent is every op issued, cancels included.
func (g *churn) sent() int { return g.requests + g.cancels }

// settle gives the last acks a moment to arrive, then counts what never
// was answered and collects the round-trip times.
func (g *churn) settle() (rtts []float64) {
	for len(g.watch) > 0 {
		time.Sleep(time.Until(g.watch[0].at))
		if w, again := g.retry(g.watch[0]); again {
			g.watch = append(g.watch, w)
		}
		g.watch = g.watch[1:]
	}
	time.Sleep(100 * time.Millisecond)
	for _, c := range g.pool {
		c.mu.Lock()
		if c.pending != 0 {
			g.unanswered++
		}
		rtts = append(rtts, c.rtts...)
		g.refused += c.refused
		c.mu.Unlock()
	}
	return rtts
}

func (g *churn) close() {
	for _, c := range g.pool {
		c.sc.c.Close()
		<-c.done
	}
}
