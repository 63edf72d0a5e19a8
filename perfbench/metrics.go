package main

// A metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names, units and
// directions (TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Simulated outcomes whose spread across seeds is wider
// than any usable regression bound (failure ratio, latency percentiles,
// false hits, energy) are reported per layer instead; see README.md.
var endToEnd = []metricDef{
	{"wall_s_per_sim_s", "s/s", "lower"},
	{"completed_req_per_wall_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"allocs_per_event", "1", "lower"},
	{"byte_hit_ratio", "1", "higher"},
	{"msgs_per_req", "1", "lower"},
}

// cpuLayers are the modules a CPU-profile sample can be attributed to,
// in the order their *.cpu_share metrics are listed. "other" collects
// the internal modules no run should reach (analysis, checkpoint,
// invariant, stats); "runtime" collects samples with no simulator frame.
var cpuLayers = []string{
	"sim", "radio", "region", "routing", "mobility", "node", "cache",
	"consistency", "metrics", "workload", "energy", "pool", "trace",
	"runtime", "other",
}

// perLayer are the traced run's metrics. Counts repeat exactly for a
// seed; *.cpu_share comes from the CPU profile, *_ns from the probes.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.events_per_completed_req", "1", "lower"},
	{"sim.cpu_share", "1", "lower"},
	{"sim.schedule_run_ns", "ns", "lower"},
	{"sim.cancel_ns", "ns", "lower"},

	{"radio.frames", "count", "lower"},
	{"radio.deliveries", "count", "lower"},
	{"radio.deliveries_per_frame", "1", "lower"},
	{"radio.bytes_on_air", "B", "lower"},
	{"radio.drops", "count", "lower"},
	{"radio.cpu_share", "1", "lower"},
	{"radio.neighbors_ns", "ns", "lower"},
	{"radio.broadcast_ns", "ns", "lower"},

	{"region.cpu_share", "1", "lower"},
	{"region.locate_ns", "ns", "lower"},
	{"region.home_region_ns", "ns", "lower"},
	{"region.replica_region_ns", "ns", "lower"},

	{"routing.cpu_share", "1", "lower"},
	{"routing.next_hop_ns", "ns", "lower"},
	{"routing.failures", "count", "lower"},

	{"mobility.cpu_share", "1", "lower"},
	{"mobility.position_ns", "ns", "lower"},

	{"node.cpu_share", "1", "lower"},
	{"node.search_msgs_per_req", "1", "lower"},
	{"node.control_msgs_per_req", "1", "lower"},
	{"node.maintenance_msgs", "count", "lower"},
	{"node.handoffs", "count", "lower"},
	{"node.stranded_keys", "count", "lower"},
	{"node.lost_keys", "count", "lower"},
	{"node.served_local_share", "1", "higher"},
	{"node.served_regional_share", "1", "higher"},
	{"node.served_enroute_share", "1", "higher"},
	{"node.served_remote_share", "1", "lower"},
	{"node.remote_latency_p99_sim_ms", "ms", "lower"},
	{"node.request_fail_ratio", "1", "lower"},
	{"node.req_latency_p50_sim_ms", "ms", "lower"},
	{"node.req_latency_p95_sim_ms", "ms", "lower"},

	{"cache.cpu_share", "1", "lower"},
	{"cache.get_ns", "ns", "lower"},
	{"cache.put_ns", "ns", "lower"},
	{"cache.evictions_per_put", "1", "lower"},

	{"consistency.cpu_share", "1", "lower"},
	{"consistency.updates_issued", "count", "lower"},
	{"consistency.polls_issued", "count", "lower"},
	{"consistency.updates_applied", "count", "higher"},
	{"consistency.lost_updates", "count", "lower"},
	{"consistency.false_hits", "count", "lower"},
	{"consistency.false_hit_ratio", "1", "lower"},

	{"metrics.cpu_share", "1", "lower"},
	{"metrics.request_ns", "ns", "lower"},

	{"workload.cpu_share", "1", "lower"},
	{"workload.pick_key_ns", "ns", "lower"},

	{"energy.cpu_share", "1", "lower"},
	{"energy.mj_per_req", "mJ", "lower"},

	{"pool.cpu_share", "1", "lower"},
	{"pool.worker_busy_share", "1", "higher"},
	{"pool.tail_idle_s", "s", "lower"},

	{"trace.cpu_share", "1", "lower"},
	{"trace.overhead_ratio", "1", "lower"},

	{"runtime.cpu_share", "1", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_peak_mib", "MiB", "lower"},

	{"other.cpu_share", "1", "lower"},
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
