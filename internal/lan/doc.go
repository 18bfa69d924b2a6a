// Package lan provides the network substrate: an abstract datagram
// interface with two implementations — a simulated Ethernet segment
// (multicast, bandwidth, latency, jitter, loss) used by tests and
// experiments, and a real UDP-multicast backend for actual deployment.
//
// The paper's protocol design leans on LAN properties (§2.3): low error
// rates, ample bandwidth, well-behaved arrival, and native multicast.
// The simulated segment makes each of those properties a knob.
//
// For high-fan-out senders (the relay pushing one packet to thousands
// of unicast subscribers) the package offers a batched send path:
// WriteBatch transmits a []Datagram through a Conn's BatchWriter fast
// path when it has one — one sendmmsg(2) syscall on the UDP backend,
// one lock acquisition and one scheduler event per delivery wave on the
// simulated segment — and falls back to a portable per-datagram Send
// loop otherwise. GetBatch/PutBatch recycle batch slices so the steady
// state does not allocate. Batches have prefix semantics (datagrams
// before the first error were sent) and never reorder datagrams bound
// for the same destination.
//
// WriteBatch may be called from any number of goroutines on one Conn at
// once. On the UDP backend the concurrent calls run in parallel: the
// sendmmsg call holds the descriptor open but takes no lock, so a
// relay's shard workers all send from its one listen address without
// queueing behind each other. Order is kept per call, not across calls:
// a caller that needs a destination's datagrams in order sends them all
// from one goroutine (a relay does — each subscriber lives in exactly
// one shard).
package lan
