// Package dvr is the relay's time-shift store: a bounded ring of
// recent stream generations that turns the per-subscriber lease state
// the relay already keeps into a DVR (the §3.3 time-shifting
// application). A relay has one ring: it appends every packet it
// relays, whatever its channel, so a ring index is the packet's index
// in the relay's arrival sequence, and every subscriber is a cursor
// into that sequence. One joining with a time shift ("from T seconds
// ago", proto.Subscribe.ShiftMs) has its cursor placed in the ring and
// is fed the backlog at faster than realtime until it converges on
// live. Pause/resume rides the same cursor.
//
// The ring is bounded twice: by a packet capacity (absolute memory
// bound) and by a depth in seconds (entries older than the depth are
// trimmed even when the ring is not full). Slot buffers are reused
// across generations, so steady-state recording does not allocate per
// packet.
package dvr
