// Package relay bridges a multicast channel to off-LAN listeners: a
// Relay joins the channel's multicast group as an ordinary receiver —
// indistinguishable from a speaker, so the producer stays
// listener-stateless (§2.3) — and fans the control + data packet stream
// out to dynamically subscribed unicast destinations.
//
// Subscriptions are TURN-style leases (cf. RFC 5766 allocations): a
// subscriber sends a proto.Subscribe naming the lease it wants and must
// re-send before expiry; the relay acknowledges with a proto.SubAck
// carrying the granted lease and silently expires subscribers that stop
// refreshing. All per-listener state therefore lives in the relay, is
// soft, and is bounded.
//
// Delivery is one arrival sequence and many cursors (delivery.go): the
// relay numbers every accepted upstream packet once and keeps the last
// Config.QueueLen of them by reference, and a subscriber is a position
// in that numbering plus a channel filter, a tier, and a pacing bucket
// — the per-listener object is the lease, never a copy of the stream.
// The receive loop appends, sends at most one batch of chained-lessee
// copies per shard holding one, encodes the packet once per active
// quality tier, and wakes the shards; a subscriber on a tier other than
// the source waits for its encode, and nobody else does. A UDP send has no
// per-destination back-pressure, so only a full local send buffer can
// block that send, and such a buffer blocks every worker alike. A live
// subscriber is a cursor with zero lag; one that falls more than
// QueueLen behind is clamped forward and the jump counted as queue-full
// drops. With Config.DVR the same indexes address a deep ring
// (internal/dvr): a time-shifted join places the cursor in the past, a
// pause stops it, and both are fed at a bounded burst rate until the
// cursor reaches the head again. Subscribers hash onto shards, each
// with its own worker task and lock; the workers walk their cursors
// round-robin into lan.Datagram batches and flush them with one
// WriteBatch call (sendmmsg on Linux) when the batch fills or the
// moment a pass takes nothing more — a live packet never waits on a
// timer. Subtree feeds go first: the chained lessees (Hops ≥ 1) lead
// their shard's order, and the receive loop sends their source-tier
// copies itself before it encodes any tier or wakes any worker, so a
// downstream relay's copy waits for no transcode and no scheduler
// wake-up. A worker with more to send yields after each full
// batch, so the shards interleave batch by batch. Whichever goroutine
// gathers, a subscriber's datagrams sit in at most one unflushed batch
// at a time, which keeps each subscriber's stream FIFO on the wire.
// Every sender writes to the relay's one socket, in parallel
// (lan.WriteBatch takes no lock there), so all data leaves from the
// address subscribers leased at. Replay is paced without a timer on the
// data path too: every catching-up cursor earns its tokens at instants
// the whole relay shares, so a worker's one timed wait wakes with the
// whole cohort due and the pass fills a batch.
//
// Relays chain: a Relay configured with an Upstream address is itself
// a subscriber — it leases the stream from another relay (through the
// shared lease package) and fans it out to its own subscribers, so
// bridges compose across network segments. Subscribe packets carry a
// hop count and a path identity for loop detection: a relay refuses
// with proto.SubLoop any subscription path that would revisit it or
// exceed MaxHops. Relays advertise themselves in the §4.3 catalog
// (proto.Announce relay records; see Discover) so off-LAN speakers and
// downstream relays find a bridge without static configuration.
//
// The control plane is one pipeline (admission.go): every request that
// can change the lease table — a Subscribe, whose lifetime and path
// fields pick grant, refresh, cancel or loop refusal, and a Pause —
// waits in one bounded queue; a gather pass is verified with one call,
// applied per shard in arrival order through one lease-holder check,
// and answered with one signing call and one WriteBatch. It
// authenticates (§5.1 applied to the packets that create forwarding
// state): with Config.Auth set — the one relay-side interface,
// security.RelayAuthenticator — a request must verify before it can
// touch the lease table. Failures drop silently, with no SubAck, so a
// request forged from a spoofed source reflects nothing at the victim
// and the relay cannot be grown into a TURN-style amplifier, and every
// SubAck is signed so subscribers adopt only leases their real relay
// granted. See docs/RELAY-OPS.md ("Securing a relay") for the operator
// view.
package relay
