package main

// metricDef names one metric the benchmark prints. The gated end-to-end
// set and the per-layer set are mirrored in ../BENCHMARK.json (a test
// keeps the two in step); the workload-specific end-to-end metrics exist
// only in this program's own reports and its -compare.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher" | "" (informational)
	Bound  float64 // share of the baseline median a workload's median may worsen
	// Floor is an absolute slack added to Bound×median, for metrics whose
	// baseline can be a few milliseconds (setup_s: +25 % or +0.05 s).
	Floor float64
	// Count marks per-layer metrics that are pure functions of (seed, op
	// sequence, configuration): two replays must print identical values.
	Count bool
	// On lists the workloads a workload-specific metric applies to; nil
	// means all.
	On []string
}

// gatedEndToEnd is what every workload reports with -trace 0 and what a
// later change is held to. The bounds are three times the run-to-run
// quartile spread measured on the 2-core box this benchmark was sized on
// (3 to 9 % for the timings, see README.md), capped at the driver's 0.25.
var gatedEndToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// specificEndToEnd exist on some workloads only, or can be zero, so the
// driver's contract (every metric on every workload, never 0) cannot
// carry them; -all prints them and -compare gates them.
var specificEndToEnd = []metricDef{
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"hot_serve"}},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"append_mix"}},
	{Name: "append_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"append_mix"}},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0},
}

var perLayer = []metricDef{
	{Name: "client.roundtrip_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.transport_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "server.resp_bytes_per_op", Unit: "bytes", Better: "lower"}, // not exact: an answer carries its own duration_ms
	{Name: "session.compile_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "analyzer.analyze_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_us", Unit: "us", Better: "lower"},
	{Name: "physical.plan_us", Unit: "us", Better: "lower"},
	{Name: "session.execute_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.stage_first_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.stage_mid_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.stage_last_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.stages", Unit: "count", Better: "lower", Count: true},
	{Name: "skyline.dominance_tests", Unit: "count", Better: "lower", Count: true},
	{Name: "skyline.kernel_ns_per_test", Unit: "ns", Better: "lower"},
	{Name: "skyline.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "skyline.batches_decoded", Unit: "count", Better: "lower", Count: true},
	{Name: "cluster.morsels", Unit: "count", Better: "lower", Count: true},
	{Name: "cluster.rows_shuffled", Unit: "count", Better: "lower", Count: true},
	{Name: "cluster.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cluster.parallelism", Unit: "x", Better: "higher"},
	{Name: "cluster.steals", Unit: "count", Better: "lower"},
	{Name: "expr.filter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "expr.vectorized_batches", Unit: "count", Better: "higher", Count: true},
	{Name: "storage.segments_pruned", Unit: "count", Better: "higher", Count: true},
	{Name: "storage.segments_scanned", Unit: "count", Better: "lower", Count: true},
	{Name: "storage.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.write_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "storage.bytes_per_row", Unit: "bytes", Better: "lower", Count: true},
	{Name: "resultcache.hits", Unit: "count", Better: "higher", Count: true},
	{Name: "resultcache.misses", Unit: "count", Better: "lower", Count: true},
	{Name: "resultcache.upgrades", Unit: "count", Better: "higher", Count: true},
	{Name: "resultcache.invalidations", Unit: "count", Better: "lower", Count: true},
	{Name: "resultcache.used_bytes", Unit: "bytes", Better: "lower", Count: true},
	{Name: "resultcache.hit_us", Unit: "us", Better: "lower"},
	{Name: "resultcache.upgrade_ms_per_append", Unit: "ms", Better: "lower"},
	{Name: "catalog.append_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "loadgen.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func (d metricDef) appliesTo(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// value is one printed measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile; 0 for
	// metrics that are not percentiles.
	Samples int `json:"samples,omitempty"`
}

// metricSet is a run's metrics by name.
type metricSet map[string]value

func (m metricSet) put(name string, v float64, samples int) {
	m[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{gatedEndToEnd, specificEndToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " has no definition")
}
