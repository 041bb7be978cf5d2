package main

// The metric names below are the benchmark's contract: later issues and
// BENCHMARK.json cite them, and bench_test.go checks that the two lists
// in BENCHMARK.json equal endToEnd and perLayer.

type metricDef struct {
	name, unit string
	// bound is the share by which an end-to-end metric may worsen before
	// it counts as a regression; lower says which direction is better.
	bound float64
	lower bool
}

// endToEnd are the metrics every workload reports, which is what lets
// BENCHMARK.json put a regression bound on each of them per workload.
// The timing bounds are the widest BENCHMARK.json allows: whole runs on
// this sandbox drift by 10-15% over minutes (README.md has the numbers),
// and a bound below the ruler's own noise would reject unchanged code.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25, true},
	{"ops_per_s", "1/s", 0.25, false},
	{"query_p50_ms", "ms", 0.25, true},
	{"query_p90_ms", "ms", 0.25, true},
	{"live_heap_mb", "MB", 0.15, true},
	{"alloc_kb_per_op", "kB", 0.15, true},
}

// workloadEndToEnd are the end-to-end metrics only some workloads have
// (README.md says which). They are printed by name with the others but
// cannot be in BENCHMARK.json, whose every end-to-end metric must be
// reported, non-zero, by every workload.
var workloadEndToEnd = []metricDef{
	{"write_p50_ms", "ms", 0.25, true},
	{"write_p90_ms", "ms", 0.25, true},
	{"first_row_p50_ms", "ms", 0.25, true},
	{"delta_p50_ms", "ms", 0.25, true},
	// No bound: about one delta in ten waits out a garbage-collection
	// cycle, so the 90th percentile sits on the edge between the two
	// modes and flips between 0.2 ms and 1+ ms from run to run.
	{"delta_p90_ms", "ms", 0, true},
	{"recover_s", "s", 0.25, true},
	{"disk_bytes_per_user_byte", "ratio", 0.05, true},
	{"failed_ops_share", "ratio", 0, true}, // must stay 0
}

// perLayer are the traced run's metrics, layer = package name. A layer
// a workload does not exercise reports 0 there. They carry no bound;
// README.md pairs each with the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "parser.parse_us", unit: "us", lower: true},
	{name: "plan.plan_us", unit: "us", lower: true},
	{name: "preference.compile_us", unit: "us", lower: true},
	{name: "core.plan_reuse_rate", unit: "ratio"},
	{name: "server.stmt_cache_hit_rate", unit: "ratio"},
	{name: "server.roundtrip_overhead_us", unit: "us", lower: true},
	{name: "wire.encode_us_per_row", unit: "us", lower: true},
	{name: "wire.decode_us_per_row", unit: "us", lower: true},
	{name: "wire.bytes_per_row", unit: "B", lower: true},
	{name: "exec.exec_us", unit: "us", lower: true},
	{name: "exec.rows_examined_per_result", unit: "count", lower: true},
	{name: "exec.index_probe_share_reads", unit: "ratio"},
	{name: "exec.index_probe_share_dml", unit: "ratio"},
	{name: "bmo.eval_us", unit: "us", lower: true},
	{name: "bmo.rows_in", unit: "count", lower: true},
	{name: "bmo.rows_out", unit: "count", lower: true},
	{name: "bmo.comparisons_per_row", unit: "count", lower: true},
	{name: "bmo.vec_block_prune_rate", unit: "ratio"},
	{name: "storage.insert_us", unit: "us", lower: true},
	{name: "storage.update_us", unit: "us", lower: true},
	{name: "storage.delete_us", unit: "us", lower: true},
	{name: "storage.alloc_kb_per_write", unit: "kB", lower: true},
	{name: "storage.snapshot_us", unit: "us", lower: true},
	{name: "storage.probe_us", unit: "us", lower: true},
	{name: "storage.columnar_build_ms", unit: "ms", lower: true},
	{name: "disk.log_insert_us", unit: "us", lower: true},
	{name: "wal.append_us", unit: "us", lower: true},
	{name: "wal.records_per_sync", unit: "count"},
	{name: "wal.bytes_per_record", unit: "B", lower: true},
	{name: "disk.checkpoint_ms", unit: "ms", lower: true},
	{name: "disk.recover_wal_records", unit: "count", lower: true},
	{name: "disk.recover_heap_rows", unit: "count", lower: true},
	{name: "disk.pool_hit_rate", unit: "ratio"},
	{name: "live.compares_per_write", unit: "count", lower: true},
	{name: "live.requalified_per_delete", unit: "count", lower: true},
	{name: "live.deltas_per_write", unit: "count", lower: true},
	{name: "live.evictions", unit: "count", lower: true},
	{name: "live.maintain_share", unit: "ratio", lower: true},
	{name: "dist.shard_stream_ms", unit: "ms", lower: true},
	{name: "dist.first_shard_row_ms", unit: "ms", lower: true},
	{name: "dist.rows_shipped_per_result", unit: "count", lower: true},
	{name: "dist.merge_us", unit: "us", lower: true},
	{name: "dist.route_overhead_us", unit: "us", lower: true},
	{name: "trace.unattributed_share", unit: "ratio", lower: true},
	{name: "trace.overhead_share", unit: "ratio", lower: true},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, workloadEndToEnd, perLayer} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()
