package lan

// The recvmmsg support seam, plus the one GSO entry point the
// benchmark's lan walk still calls. Batched receive is a Linux-only
// fast path behind a portable interface: a backend that has it
// advertises via RecvBatcher, every other Conn — the simulated
// segment included — simply doesn't implement it and reports nothing.

// EnableGSO reports whether c can coalesce same-destination runs into
// UDP_SEGMENT sends. No backend can; the function stays, always false,
// because the benchmark's lan walk calls it to label its gso row.
func EnableGSO(c Conn) bool { return false }

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
