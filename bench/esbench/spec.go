package main

// metricSpec names a metric and its unit. These tables are the single
// list of what the harness reports; BENCHMARK.json repeats them (a test
// holds the two together) and bench/README.md says what each should move.
type metricSpec struct {
	name, unit string
}

// endToEnd are the gated metrics, lower is better for all. Every one is
// reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},                 // daemons spawned → ready → subscribers admitted → stream at every probe → first sound at the far speaker
	{"relay_peak_rss_mb", "MB"},      // relay A VmHWM
	{"transit_p50_us", "us"},         // tap receive → receive of the same packet at the probe behind relay B
	{"playout_latency_p50_ms", "ms"}, // frame due at the producer → played by the speaker behind relay B, audio due in the window's first half
}

// perLayer are reported by the traced pass and never gated. Layer names
// are the repo's packages.
var perLayer = []metricSpec{
	{"proto.peek_ns", "ns"},
	{"proto.data_unmarshal_ns", "ns"},
	{"proto.data_marshal_ns", "ns"},
	{"proto.data_unmarshal_allocs", "count"},
	{"proto.subscribe_unmarshal_ns", "ns"},
	{"proto.suback_marshal_ns", "ns"},

	{"codec.transcode_ns.ulaw", "ns"},
	{"codec.transcode_ns.ovl-high", "ns"},
	{"codec.transcode_ns.ovl-low", "ns"},
	{"codec.transcode_allocs.ovl-low", "count"},
	{"codec.encode_ns.ovl", "ns"},
	{"codec.decode_ns.ovl", "ns"},

	{"security.ident_verify_ns", "ns"},
	{"security.ident_verify_batch_ns", "ns"},
	{"security.ident_sign_ns", "ns"},
	{"security.ident_verify_allocs", "count"},
	{"security.hmac_verify_ns", "ns"},
	{"security.hmac_sign_ns", "ns"},

	{"dvr.append_ns", "ns"},
	{"dvr.append_allocs", "count"},
	{"dvr.read_ns", "ns"},
	{"dvr.read_allocs", "count"},
	{"dvr.catchup_s", "s"},
	{"dvr.first_replay_ms", "ms"},

	{"lan.writebatch_ns_per_pkt.sendmmsg", "ns"},
	{"lan.writebatch_ns_per_pkt.loop", "ns"},
	{"lan.writebatch_ns_per_pkt.gso", "ns"},
	{"lan.writebatch_allocs_per_pkt", "count"},
	{"lan.send_ns", "ns"},
	{"lan.recv_ns_per_pkt", "ns"},
	{"lan.recv_batch_fill", "pkt"},

	{"relay.inject_ns_per_sub", "ns"},
	{"relay.writebatch_share", "ratio"},
	{"relay.batch_fill", "pkt"},
	{"relay.flush_deadline_share", "ratio"},
	{"relay.queue_residency_p50_us", "us"},
	{"relay.queue_residency_p99_us", "us"},
	{"relay.flush_latency_p99_us", "us"},
	{"relay.transit_p50_us", "us"},
	{"relay.transit_p99_us", "us"},
	{"relay.cpu_ns_per_pkt", "ns"},
	{"relay.cpu_sys_share", "ratio"},
	{"relay.ctxsw_per_kpkt", "count"},
	{"relay.rss_kb_per_sub", "KB"},
	{"relay.fanout_dropped", "count"},
	{"relay.send_errors", "count"},
	{"relay.duplicates", "count"},
	{"relay.transcode_encodes_per_pkt", "count"},
	{"relay.admit_batch_fill", "count"},
	{"relay.admit_overflow", "count"},
	{"relay.cpu_us_per_ctl_op", "us"},

	{"lease.rtt_p50_us", "us"},
	{"lease.rtt_p99_us", "us"},
	{"lease.unanswered", "count"},
	{"lease.retransmits", "count"},

	{"rebroadcast.cpu_ms_per_audio_s", "ms"},
	{"rebroadcast.emit_jitter_p99_us", "us"},
	{"rebroadcast.control_gap_p99_ms", "ms"},
	{"vad.write_to_wire_p50_ms", "ms"},

	{"speaker.skew_p95_ms", "ms"},
	{"speaker.skew_mean_ms", "ms"},
	{"speaker.latency_drift_ms_per_s", "ms/s"},
	{"speaker.first_sound_ms", "ms"},
	{"speaker.dropped_late", "count"},
	{"speaker.gap_fills", "count"},
	{"audiodev.underruns", "count"},

	{"obs.scrape_ms_p50", "ms"},
	{"obs.overhead_pct", "%"},

	{"harness.gen_late_p99_us", "us"},
	{"harness.cpu_share", "ratio"},
	{"harness.probe_rcvbuf_drops", "count"},
	{"harness.build_s", "s"},
	{"harness.trace_spans", "count"},
	{"harness.steal_pct", "%"},
}

func unitOf(table []metricSpec, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	panic("esbench: metric " + name + " is not declared in spec.go")
}
