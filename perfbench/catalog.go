package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesCatalog keeps the two
// in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a client of the replicated server sees,
// measured with the lifecycle tracer off. failed_ratio is not among them:
// a run with any failed request fails the correctness check and reports
// no metrics, so on every accepted run it would read 0; the top-level
// attempted/failed counts and the traced run's loadgen.failed_ratio carry
// it instead.
//
// The bounds sit at the 0.25 ceiling (rss aside) because the shared
// 2-vCPU host the benchmark was sized on drifts: medians of ten runs moved
// by up to 26% (cpu_ms_per_req on httpd-php) between quiet and busy hours,
// while ten runs in a row spread (IQR/median) by 9% at most.
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// layerDef is one row of the layer table: the module a group of per-layer
// metrics observes, the end-to-end metrics it should move, and the
// workloads where that layer does most of the work and where it should
// not move.
type layerDef struct {
	layer, module   string
	moves           string
	mostWork, quiet string
	metrics         []metricDef
}

// layers is the per-layer catalogue reported by a traced run (--trace 1).
// Counts are deltas over the measured phase, read from the program's own
// exported instruments (Replica.Obs, SeqStats, SpecStats, Metrics) and the
// lifecycle tracer; "_per_req" means per correct reply. A layer that does
// not run on a workload (wal off, speculation off) reports 0.
var layers = []layerDef{
	{"loadgen", "perfbench", "validity of the run; p50_ms on sysbench-rw when late", "-", "-", []metricDef{
		{name: "loadgen.dial_p50_ms", unit: "ms", better: "lower"},
		{name: "loadgen.write_p50_ms", unit: "ms", better: "lower"},
		{name: "loadgen.reply_wait_p50_ms", unit: "ms", better: "lower"},
		{name: "loadgen.close_p50_ms", unit: "ms", better: "lower"},
		{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
		{name: "loadgen.failed_ratio", unit: "ratio", better: "lower"},
		{name: "loadgen.trace_overhead_pct", unit: "%", better: "lower"},
		{name: "loadgen.trace_overhead_over_ceiling", unit: "count", better: "lower"},
	}},
	{"proxy", "internal/crane", "p50_ms, cpu_ms_per_req, failed_ratio", "sysbench-rw", "mediatomb-transcode", []metricDef{
		{name: "proxy.admit_to_proposed_p50_ms", unit: "ms", better: "lower"},
		{name: "proxy.admit_to_proposed_p95_ms", unit: "ms", better: "lower"},
		{name: "proxy.calls_per_req", unit: "count/req", better: "lower"},
		{name: "proxy.burst_entries_mean", unit: "count", better: "higher"},
		{name: "proxy.rejected", unit: "count", better: "lower"},
	}},
	{"consensus", "internal/paxos", "p50_ms, p90_ms, cpu_ms_per_req", "sysbench-rw", "mediatomb-transcode", []metricDef{
		{name: "paxos.propose_to_commit_p50_ms", unit: "ms", better: "lower"},
		{name: "paxos.propose_to_commit_p95_ms", unit: "ms", better: "lower"},
		{name: "paxos.batch_entries_mean", unit: "count", better: "higher"},
		{name: "paxos.msgs_per_commit", unit: "count", better: "lower"},
		{name: "paxos.bytes_per_commit", unit: "B", better: "lower"},
		{name: "paxos.view_changes", unit: "count", better: "lower"},
	}},
	{"log", "internal/wal", "p90_ms; the fsync metrics read 0 while WALSync is off", "sysbench-rw", "httpd-php, mediatomb-transcode (no WAL)", []metricDef{
		{name: "wal.fsync_p50_ms", unit: "ms", better: "lower"},
		{name: "wal.fsync_p95_ms", unit: "ms", better: "lower"},
		{name: "wal.fsyncs_per_commit", unit: "count", better: "lower"},
		{name: "wal.batch_records_mean", unit: "count", better: "higher"},
	}},
	{"admission", "internal/seq", "p50_ms", "sysbench-rw, httpd-php", "mediatomb-transcode", []metricDef{
		{name: "seq.commit_to_consume_p50_ms", unit: "ms", better: "lower"},
		{name: "seq.commit_to_consume_p95_ms", unit: "ms", better: "lower"},
		{name: "seq.bubble_ratio", unit: "ratio", better: "lower"},
		{name: "seq.bubbles_per_req", unit: "count/req", better: "lower"},
		{name: "seq.bubble_clocks_per_req", unit: "count/req", better: "lower"},
	}},
	{"execution", "internal/dmt", "p50_ms, p90_ms, throughput_rps", "httpd-php, mediatomb-transcode", "sysbench-rw", []metricDef{
		{name: "dmt.consume_to_output_p50_ms", unit: "ms", better: "lower"},
		{name: "dmt.consume_to_output_p95_ms", unit: "ms", better: "lower"},
		{name: "dmt.turn_wait_p50_ms", unit: "ms", better: "lower"},
		{name: "dmt.turn_wait_p95_ms", unit: "ms", better: "lower"},
		{name: "dmt.turn_waits_per_req", unit: "count/req", better: "lower"},
		{name: "dmt.token_passes_per_req", unit: "count/req", better: "lower"},
		{name: "dmt.waits_per_req", unit: "count/req", better: "lower"},
		{name: "dmt.signals_per_req", unit: "count/req", better: "lower"},
		{name: "dmt.logical_clocks_per_req", unit: "count/req", better: "lower"},
	}},
	{"speculation gate", "internal/crane", "p50_ms on sysbench-rw if turned on by default; zero today", "-", "-", []metricDef{
		{name: "spec.windows", unit: "count", better: "higher"},
		{name: "spec.hit_ratio", unit: "ratio", better: "higher"},
		{name: "spec.rollbacks", unit: "count", better: "lower"},
	}},
	{"audit", "internal/crane, internal/obs/flight", "none; alarms must be 0", "all", "all", []metricDef{
		{name: "audit.checked", unit: "count", better: "higher"},
		{name: "audit.divergence_alarms", unit: "count", better: "lower"},
	}},
	{"process", "Go runtime", "cpu_ms_per_req, throughput_rps", "httpd-php", "-", []metricDef{
		{name: "process.alloc_kb_per_req", unit: "KiB", better: "lower"},
		{name: "process.gc_per_kreq", unit: "count", better: "lower"},
	}},
	{"baseline", "ModeNondet, same traffic", "none; context for Fig 14", "moves only with apps/papi/simnet changes", "-", []metricDef{
		{name: "baseline.p50_ms", unit: "ms", better: "lower"},
		{name: "baseline.crane_x", unit: "ratio", better: "lower"},
	}},
}

// perLayer flattens the layer table in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, l.metrics...)
	}
	return out
}
