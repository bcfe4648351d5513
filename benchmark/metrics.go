package main

// The metric tables. BENCHMARK.json repeats them for the driver; a unit
// test keeps the two in step.

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// Timings are in reference units (see yardstick.go) unless the name starts
// with host. or edge. A bound is about three times the spread (IQR ÷ median)
// measured between runs on the 2-vCPU sandbox, see REPEATABILITY.md.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "KB", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// Set-up layers, timed once per traced pass.
	{name: "xmltree.parse_ms", unit: "ms", better: "lower"},
	{name: "core.analyze_ms", unit: "ms", better: "lower"},
	{name: "shard.build_ms", unit: "ms", better: "lower"},
	{name: "index.build_ms", unit: "ms", better: "lower"},
	{name: "index.builds", unit: "count", better: "lower"},
	{name: "persist.save_ms", unit: "ms", better: "lower"},
	{name: "persist.load_ms", unit: "ms", better: "lower"},
	{name: "persist.image_mb", unit: "MB", better: "lower"},
	{name: "ingest.snapshot_ms", unit: "ms", better: "lower"},
	{name: "ingest.load_ms", unit: "ms", better: "lower"},
	{name: "remote.connect_ms", unit: "ms", better: "lower"},
	// Query layers, mean per traced request.
	{name: "index.lookup_us", unit: "us", better: "lower"},
	{name: "search.eval_us", unit: "us", better: "lower"},
	{name: "search.eval_calls_per_req", unit: "count", better: "lower"},
	{name: "shard.search_us", unit: "us", better: "lower"},
	{name: "shard.self_us", unit: "us", better: "lower"},
	{name: "shard.skipped_ratio", unit: "ratio", better: "higher"},
	{name: "core.snippet_us", unit: "us", better: "lower"},
	{name: "core.snippets_per_req", unit: "count", better: "lower"},
	{name: "features.collect_us", unit: "us", better: "lower"},
	{name: "ilist.build_us", unit: "us", better: "lower"},
	{name: "selector.greedy_us", unit: "us", better: "lower"},
	{name: "rank.sort_us", unit: "us", better: "lower"},
	{name: "serve.miss_us", unit: "us", better: "lower"},
	{name: "serve.self_us", unit: "us", better: "lower"},
	{name: "serve.hit_us", unit: "us", better: "lower"},
	{name: "facade.self_us", unit: "us", better: "lower"},
	{name: "facade.render_us", unit: "us", better: "lower"},
	{name: "facade.unaccounted_us", unit: "us", better: "lower"},
	{name: "remote.backend_us", unit: "us", better: "lower"},
	{name: "remote.tax_us", unit: "us", better: "lower"},
	{name: "remote.rounds_per_req", unit: "count", better: "lower"},
	{name: "remote.wire_kb_per_req", unit: "KB", better: "lower"},
	{name: "remote.server_eval_us", unit: "us", better: "lower"},
	{name: "remote.server_codec_us", unit: "us", better: "lower"},
	{name: "facade.reload_delta_ms", unit: "ms", better: "lower"},
	{name: "ingest.shards_rebuilt", unit: "count", better: "lower"},
	{name: "ingest.shards_reused", unit: "count", better: "higher"},
	// Counters over the measured phase.
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.cache_evictions_per_kreq", unit: "count", better: "lower"},
	{name: "serve.cache_rejected_per_kreq", unit: "count", better: "lower"},
	{name: "serve.cache_entry_kb", unit: "KB", better: "lower"},
	{name: "runtime.allocs_per_req", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	// The un-normalised view of the same run: how noisy the host was.
	{name: "host.yardstick_ms", unit: "ms", better: "lower"},
	{name: "host.yardstick_cv", unit: "ratio", better: "lower"},
	{name: "host.raw_throughput_rps", unit: "req/s", better: "higher"},
	{name: "host.raw_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "host.trace_overhead_frac", unit: "ratio", better: "lower"},
	// The HTTP edge, raw milliseconds.
	{name: "edge.http_p50_ms", unit: "ms", better: "lower"},
	{name: "edge.http_overhead_ms", unit: "ms", better: "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name, taking the unit from the tables above.
type metricSet map[string]value

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = value{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}
