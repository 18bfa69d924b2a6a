// Package speaker implements the Ethernet Speaker (§2.4): a receive-only
// device that joins a channel's multicast group, waits for a control
// packet, decodes the stream, and plays it against the producer's wall
// clock with an epsilon of leeway (§3.2). Every batch is scheduled against
// the audio device's play cursor — what the DAC really did, not what its
// nominal rate predicts — so a speaker holds ±ε on whatever oscillator
// it was built with: a fast DAC is put back by a gap-fill and a slow one
// by a discard each time the error reaches ε. It also carries the paper's
// future-work features: software volume with an ambient-noise automatic
// controller (§5.2) and a management surface (internal/mgmt).
package speaker
