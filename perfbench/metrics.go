package main

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by
// untraced runs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"closed_ops_per_s", "ops/s", "higher"},
	{"open_p50_ms", "ms", "lower"},
	{"open_slo_frac", "fraction", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"heap_mib", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricSpec{
	{"open_p99_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"client.fail_frac", "fraction", "lower"},
	{"client.retries_per_op", "count", "lower"},
	{"device.respond_us_p50", "us", "lower"},
	{"wire.writes_per_op", "count", "lower"},
	{"wire.bytes_per_op", "bytes", "lower"},
	{"node.begin_us_p50", "us", "lower"},
	{"node.begin_us_p99", "us", "lower"},
	{"node.finish_us_p50", "us", "lower"},
	{"node.remap_us_p50", "us", "lower"},
	{"journal.us_p50", "us", "lower"},
	{"auth.issue_self_us_p50", "us", "lower"},
	{"wal.syncs_per_op", "count", "lower"},
	{"wal.sync_us_p50", "us", "lower"},
	{"wal.sync_us_p99", "us", "lower"},
	{"wal.bytes_per_op", "bytes", "lower"},
	{"repl.bytes_per_op", "bytes", "lower"},
	{"repl.writes_per_op", "count", "lower"},
	{"repl.lag_max", "records", "lower"},
	{"auth.issued_per_op", "ratio", "lower"},
	{"crp.heap_bytes_per_op", "bytes", "lower"},
	{"tracing.overhead", "ratio", "lower"},
	{"split.client_mean_us", "us", "lower"},
	{"split.steps_mean_us", "us", "lower"},
	{"split.transport_queue_us", "us", "lower"},
}

// selectMetrics keeps the metrics named in specs.
func selectMetrics(all map[string]metric, specs []metricSpec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		if m, ok := all[s.name]; ok {
			out[s.name] = m
		}
	}
	return out
}
