package main

// metricSpec names one metric. BENCHMARK.json carries the same names,
// units and directions (plus the regression bound of each end-to-end
// metric); bench_test.go keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// An op is one peer-tick on the four simulator workloads and one
// answered good query on live-12.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Per-layer metrics, layer = package name. A workload that bypasses a
// layer reports 0 for it (no samples), which is the prediction the
// interaction table in README.md makes.
var perLayerSpecs = []metricSpec{
	// Set-up: one call each per sim.Run.
	{"topology.ba_build_ms", "ms", "lower"},
	{"overlay.new_ms", "ms", "lower"},
	{"workload.catalog_build_ms", "ms", "lower"},
	{"attack.fleet_build_ms", "ms", "lower"},
	{"police.new_ms", "ms", "lower"},
	{"police.notify_join_us", "us", "lower"},

	{"overlay.churn_tick_us", "us", "lower"},
	{"overlay.churn_flips_per_tick", "count", "lower"},
	{"overlay.append_online_us", "us", "lower"},
	{"overlay.roll_minute_us", "us", "lower"},

	{"workload.querygen_tick_us", "us", "lower"},
	{"workload.queries_per_tick", "count", "higher"},

	{"attack.tick_sliced_us", "us", "lower"},
	{"attack.msgs_per_tick", "count", "higher"},

	{"flood.query_hit_us", "us", "lower"},
	{"flood.query_build_us", "us", "lower"},
	{"flood.query_fallback_us", "us", "lower"},
	{"flood.query_live_us", "us", "lower"},
	{"flood.batch_hit_us", "us", "lower"},
	{"flood.batch_build_us", "us", "lower"},
	{"flood.batch_live_us", "us", "lower"},
	{"flood.budget_refill_us", "us", "lower"},
	{"flood.visits_per_query", "count", "lower"},
	{"flood.alloc_bytes_per_query", "B", "lower"},
	{"flood.cache_hit_ratio", "ratio", "higher"},
	{"flood.cache_builds", "count", "lower"},
	{"flood.cache_fallbacks", "count", "lower"},
	{"flood.cache_flushes", "count", "lower"},
	{"flood.cache_trees", "count", "higher"},
	{"flood.prewarm_ms_shards1", "ms", "lower"},
	{"flood.prewarm_ms_shards2", "ms", "lower"},
	{"flood.prewarm_speedup", "ratio", "higher"},

	{"police.tick_us", "us", "lower"},
	{"police.evaluate_minute_ms", "ms", "lower"},
	{"police.evaluate_minute_r2_ms", "ms", "lower"},
	{"police.msgs_list", "count", "lower"},
	{"police.msgs_nt", "count", "lower"},
	{"police.detections", "count", "higher"},
	{"police.alloc_bytes_per_minute", "B", "lower"},

	{"metrics.record_query_ns", "ns", "lower"},
	{"metrics.close_minute_us", "us", "lower"},

	{"sim.stage_churn_s", "s", "lower"},
	{"sim.stage_attack_s", "s", "lower"},
	{"sim.stage_querygen_s", "s", "lower"},
	{"sim.stage_flood_s", "s", "lower"},
	{"sim.stage_police_s", "s", "lower"},
	{"sim.stage_metrics_s", "s", "lower"},
	{"sim.stage_proposal_s", "s", "lower"},
	{"sim.unstaged_s", "s", "lower"},
	{"sim.telemetry_overhead", "ratio", "lower"},
	{"sim.driver_vs_run", "ratio", "lower"},
	{"sim.peer_ticks_per_s", "1/s", "higher"},
	{"sim.run_2k_s", "s", "lower"},
	{"sim.replica_speedup", "ratio", "higher"},

	{"exp.fig9_11_s", "s", "lower"},
	{"exp.fig12_s", "s", "lower"},
	{"exp.runs", "count", "lower"},

	{"protocol.encode_query_ns", "ns", "lower"},
	{"protocol.decode_query_ns", "ns", "lower"},
	{"protocol.encode_nt_ns", "ns", "lower"},
	{"protocol.decode_nt_ns", "ns", "lower"},
	{"protocol.encode_list_ns", "ns", "lower"},
	{"protocol.decode_list_ns", "ns", "lower"},
	{"protocol.decode_allocs_per_msg", "count", "lower"},
	{"capacity.try_process_ns", "ns", "lower"},

	{"gnet.connect_ms", "ms", "lower"},
	{"gnet.queries_per_s", "1/s", "higher"},
	{"gnet.query_p50_ms", "ms", "lower"},
	{"gnet.query_p99_ms", "ms", "lower"},
	{"gnet.query_max_ms", "ms", "lower"},
	{"gnet.frames_per_s", "1/s", "higher"},
	{"gnet.forwarded_per_query", "count", "lower"},
	{"gnet.dup_drop_share", "ratio", "lower"},
	{"gnet.bytes_out_per_query", "B", "lower"},
	{"gnet.inbox_hwm", "count", "lower"},
	{"gnet.send_queue_stalls", "count", "lower"},
	{"gnet.capacity_drops", "count", "lower"},
	{"gnet.lost_hits", "count", "lower"},
	{"gnet.nt_round_p50_ms", "ms", "lower"},
	{"gnet.warn_to_cut_p50_ms", "ms", "lower"},
	{"gnet.attack_to_cut_p50_ms", "ms", "lower"},
	{"gnet.post_cut_answered_share", "ratio", "higher"},
	{"gnet.good_peer_cuts", "count", "lower"},

	{"journal.record_ns", "ns", "lower"},
	{"journal.events", "count", "lower"},
	{"journal.dropped", "count", "lower"},
	{"trace.span_ns", "ns", "lower"},
	{"trace.dropped", "count", "lower"},

	{"bench.span_overhead_ns", "ns", "lower"},
	{"bench.loadgen_lag_ms", "ms", "lower"},
	{"bench.box_slowdown", "ratio", "lower"},
}
