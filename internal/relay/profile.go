package relay

import (
	"time"

	"repro/internal/codec"
	"repro/internal/proto"
)

// Per-profile delivery: the relay serves one upstream stream at
// several quality tiers (codec.Profile). Subscribers request a tier at
// subscribe time; the adaptive ladder (sweep) may step a congested
// subscriber further down and back up. The fan-out path encodes the
// upstream payload once per *active* profile — never per subscriber —
// after the source-tier copies of the chained lessees have left, and
// writes the variants into the packet's entry in the arrival sequence,
// where each subscriber's worker picks its tier's bytes once they are
// all there (entry.tiered).

// Ladder defaults.
const (
	// DefaultLadderDwell is how long a subscriber must stay drop-free
	// at its current tier before the ladder steps it back up.
	DefaultLadderDwell = 10 * time.Second
	// DefaultLadderDownDrops is the queue-drop delta per sweep that
	// triggers a one-tier downgrade. Distinct from the upgrade
	// condition (a fully clean dwell) so the ladder cannot flap.
	DefaultLadderDownDrops = 4
)

// stream is the relay's learned view of one channel's upstream
// encoding, built from the Control packets flowing through fanout. It
// owns the per-profile transcoders (rebuilt on reconfiguration); a nil
// transcoder means the tier cannot serve this stream (e.g. µ-law needs
// a 16-bit source) and its subscribers fall back to passthrough.
// Guarded by r.txMu: transcoders are not safe for concurrent use.
type stream struct {
	ctl proto.Control
	tx  [codec.NumProfiles]*codec.Transcoder
}

// profilePayloads is one upstream packet's wire variants, indexed by
// profile. Index ProfileSource is always the original packet; a nil
// entry means that tier falls back to the source payload.
type profilePayloads [codec.NumProfiles][]byte

// profileEpoch derives the epoch a tier's rewritten stream carries.
// Transcoded packets must not share the source epoch: a speaker only
// reconfigures its decoder on an epoch change, so a subscriber moving
// between tiers mid-stream has to see the tier transition as a
// reconfiguration — new epoch in the rewritten Control, matching epoch
// in every transcoded Data packet. The speaker's radio model does the
// rest: data from the new tier is dropped as a foreign epoch until the
// next rewritten Control arrives, then decoding resumes at the new
// quality with no speaker-side changes at all.
func profileEpoch(epoch uint32, p codec.Profile) uint32 {
	if p == codec.ProfileSource {
		return epoch
	}
	return epoch<<2 | uint32(p)
}

// tierControl rewrites a Control packet for tier p: the tier's codec
// and quality under its derived epoch. nil means it could not be
// marshaled.
func tierControl(ctl *proto.Control, p codec.Profile) []byte {
	name, quality := p.CodecSpec()
	nc := *ctl
	nc.Epoch, nc.Codec, nc.Quality = profileEpoch(ctl.Epoch, p), name, uint8(quality)
	b, err := nc.Marshal()
	if err != nil {
		return nil
	}
	return b
}

// tierData transcodes a Data packet for tier p through tx, re-marshaled
// under the tier's derived epoch with seq and play deadline preserved,
// so relative timing survives the quality change 1:1. nil means the
// payload could not be transcoded. Caller holds r.txMu.
func tierData(tx *codec.Transcoder, d *proto.Data, p codec.Profile) []byte {
	payload, err := tx.Transcode(d.Payload)
	if err != nil {
		return nil
	}
	nd := *d
	nd.Epoch, nd.Payload = profileEpoch(d.Epoch, p), payload
	b, err := nd.Marshal()
	if err != nil {
		return nil
	}
	return b
}

// learnStream ingests one upstream Control packet: it records the
// channel's encoding and (re)builds the per-profile transcoders when
// the configuration changed. Caller holds r.txMu.
func (r *Relay) learnStream(ch uint32, ctl *proto.Control) *stream {
	st := r.streams[ch]
	if st != nil && st.ctl.Epoch == ctl.Epoch && st.ctl.Codec == ctl.Codec &&
		st.ctl.Params == ctl.Params && st.ctl.Quality == ctl.Quality {
		st.ctl = *ctl // refresh the clock/interval fields only
		return st
	}
	if st == nil {
		st = &stream{}
		r.streams[ch] = st
	}
	st.ctl = *ctl
	for p := codec.ProfileULaw; p.Valid(); p++ {
		tx, err := codec.NewTranscoder(ctl.Codec, ctl.Params, p)
		if err != nil {
			// This stream cannot carry the tier; its subscribers get
			// the source payload until a reconfiguration changes that.
			st.tx[p] = nil
			continue
		}
		st.tx[p] = tx
	}
	return st
}

// buildProfilePayloads writes the per-tier variants of one upstream
// packet into out, encoding once per active profile regardless of how
// many subscribers hold each tier. out is a published entry's payloads:
// fanout calls it after the source-tier copies have left, and it never
// touches out's source slot, which readers may be reading meanwhile. It
// runs outside every lock but txMu — transcoding must never stall
// delivery to subscribers on other tiers. Control packets are always
// learned (so transcoders are ready before the first tiered subscriber
// needs them) and rewritten per tier (tierControl); Data packets are
// transcoded (tierData).
func (r *Relay) buildProfilePayloads(ch uint32, data []byte, out *profilePayloads) {
	// Active-tier snapshot from the lock-free refcounts: with every
	// subscriber on the source tier this is the whole fast path.
	var want [codec.NumProfiles]bool
	active := false
	for p := codec.ProfileULaw; p.Valid(); p++ {
		if r.profCount[p].Load() > 0 {
			want[p], active = true, true
		}
	}
	t, _, err := proto.PeekType(data)
	if err != nil {
		return
	}
	switch t {
	case proto.TypeControl:
		ctl, err := proto.UnmarshalControl(data)
		if err != nil {
			return
		}
		// The stream learnStream returns is the one read below:
		// r.streams[ch] is the sweep's to delete (trimChannels).
		r.txMu.Lock()
		defer r.txMu.Unlock()
		st := r.learnStream(ch, ctl)
		for p := codec.ProfileULaw; p.Valid(); p++ {
			// A tier the stream cannot carry falls back to source, and
			// its Control stays the source's.
			if want[p] && st.tx[p] != nil {
				out[p] = tierControl(ctl, p)
			}
		}
	case proto.TypeData:
		if !active {
			return
		}
		r.txMu.Lock()
		defer r.txMu.Unlock()
		st := r.streams[ch]
		if st == nil {
			return // no Control seen yet: passthrough for everyone
		}
		d, err := proto.UnmarshalData(data)
		if err != nil {
			return
		}
		var encodes, errs int64
		for p := codec.ProfileULaw; p.Valid(); p++ {
			if !want[p] || st.tx[p] == nil {
				continue
			}
			t0 := time.Now()
			if out[p] = tierData(st.tx[p], d, p); out[p] == nil {
				errs++
				continue
			}
			r.transcodeLatency.Observe(time.Since(t0))
			encodes++
		}
		if encodes+errs > 0 {
			r.count(func(s *Stats) {
				s.TranscodeEncodes += encodes
				s.TranscodeErrors += errs
			})
		}
	}
}

// ladderStep evaluates the adaptive ladder for one shard's subscribers
// (called from sweep, under sh.mu): a subscriber clamped past at
// least cfg.LadderDownDrops packets since the last sweep steps one tier
// down; one that stayed completely drop-free for cfg.LadderDwell steps
// one tier back up, never past its requested profile. The asymmetric
// thresholds plus the dwell are the hysteresis: pressure reacts within
// a sweep, recovery is earned slowly, and a flap costs at least one
// full dwell. Any drop at all restarts the dwell clock.
func (r *Relay) ladderStep(sh *shard, now time.Time) (down, up int64) {
	for _, sub := range sh.order {
		delta := sub.dropped - sub.ladderDrops
		sub.ladderDrops = sub.dropped
		switch {
		case delta >= int64(r.cfg.LadderDownDrops) && sub.profile < codec.ProfileOVLLow:
			r.profCount[sub.profile].Add(-1)
			sub.profile = sub.profile.Down()
			r.profCount[sub.profile].Add(1)
			sub.ladderAt = now
			if r.cfg.ShedTier && sub.profile == codec.ProfileOVLLow {
				// The ladder just hit its floor: the relay already serves
				// this subscriber the cheapest tier there is and its queue
				// still drops. Mark it for steering — its next refresh is
				// answered with a redirect to a less-loaded sibling (see
				// admitBatch) instead of a lease.
				sub.shedPending = true
			}
			down++
		case delta == 0 && sub.profile > sub.reqProfile &&
			now.Sub(sub.ladderAt) >= r.cfg.LadderDwell:
			r.profCount[sub.profile].Add(-1)
			sub.profile--
			r.profCount[sub.profile].Add(1)
			sub.ladderAt = now
			up++
		case delta > 0:
			sub.ladderAt = now // drops, even below threshold, reset the dwell
		}
	}
	return down, up
}

// requestedProfile extracts a Subscribe's delivery tier, mapping an
// invalid byte (a future ladder this relay does not know) to source
// passthrough rather than refusing the lease.
func requestedProfile(req *proto.Subscribe) codec.Profile {
	if p := codec.Profile(req.Profile); p.Valid() {
		return p
	}
	return codec.ProfileSource
}
