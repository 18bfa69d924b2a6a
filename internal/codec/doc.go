// Package codec implements the audio transports the rebroadcaster can
// choose between (§2.2 of the paper): raw PCM passthrough, µ-law
// transcoding for cheap 2:1 compression, and OVL — a lossy MDCT transform
// codec with a 0..10 quality index standing in for Ogg Vorbis.
//
// Every encoder consumes raw audio bytes in the stream's wire encoding
// (exactly what the rebroadcaster reads from the VAD master) and yields
// self-contained packets; every decoder returns raw audio bytes in the
// same wire encoding, ready to be written to the speaker's audio device.
// Packets are independently decodable so that a receive-only speaker can
// tune in mid-stream (§2.3).
//
// The same codecs back the relay's delivery tiers (Profile, Transcoder):
// a relay re-encodes each upstream packet once per tier somebody holds,
// on its receive path, so what a Transcode costs is time every lessee's
// packet spends inside the relay. The OVL hop is therefore O(N log N)
// and allocation-free in steady state; BenchmarkTranscode,
// BenchmarkOVLEncodeHop and BenchmarkOVLDecodeFrame price it, and
// TestOVLSteadyStateAllocs pins the allocations.
package codec
