package lan

// UDP GSO (UDP_SEGMENT) and recvmmsg support seams. Both are
// Linux-only fast paths behind portable interfaces: a backend that
// has them advertises via the interfaces below, every other Conn —
// the simulated segment included — simply doesn't implement them and
// callers fall back.

// GSOCapable is implemented by conns whose BatchWriter fast path can
// coalesce same-destination runs of a batch into single UDP_SEGMENT
// sends — the kernel splits one send into many datagrams, so a relay
// fanning one payload to many subscribers pays even fewer crossings
// than sendmmsg alone. SetGSO turns the mode on or off and reports
// whether the backend supports it at all; support is optimistic (the
// kernel is probed by the first coalesced send, which falls back to
// plain batching — permanently — if it refuses).
type GSOCapable interface {
	SetGSO(on bool) bool
}

// EnableGSO turns on GSO batching for c when its backend supports it
// and reports whether it did. Safe to call on any Conn.
func EnableGSO(c Conn) bool {
	if g, ok := c.(GSOCapable); ok {
		return g.SetGSO(true)
	}
	return false
}

// RecvBatchStats counts a conn's batched-receive activity: how many
// recvmmsg gather passes ran and how many packets they carried.
// Packets/Batches is the achieved receive batch size. Dropped counts
// received packets the conn discarded because its inbox was full (the
// reader outran Recv); it is counted on every receive path, batched or
// not.
type RecvBatchStats struct {
	Batches int64 // batched receive passes
	Packets int64 // packets delivered by those passes
	Dropped int64 // packets tail-dropped at a full inbox
}

// RecvBatcher is implemented by conns that ingest with batched
// receives (recvmmsg); the simulated segment and non-Linux backends
// do not, and report nothing.
type RecvBatcher interface {
	RecvBatchStats() RecvBatchStats
}
