package main

// metric is one declared metric: BENCHMARK.json lists the same names and
// units (bench_test.go holds the two lists together).
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
// All durations are reference seconds (speed.go).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_s_per_kjob", "s"},
	{"decision_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"node_usage_pct", "%"},
	{"bb_usage_pct", "%"},
}

// perLayer is what the traced run attributes to single layers. A layer a
// workload never enters reads 0 there.
var perLayer = []metric{
	{"trace.next_calls", "count"},
	{"trace.next_s", "s"},
	{"trace.decode_jobs_per_s", "1/s"},
	{"trace.file_mb", "MB"},
	{"queue.depth_p50", "count"},
	{"queue.depth_max", "count"},
	{"queue.window_full_us_at_p50", "us"},
	{"queue.window_full_us_at_max", "us"},
	{"queue.window_top_us_at_p50", "us"},
	{"queue.window_top_us_at_max", "us"},
	{"backfill.running_p50", "count"},
	{"backfill.plan_us_at_p50", "us"},
	{"backfill.plan_us_at_max", "us"},
	{"sched.select_calls", "count"},
	{"sched.select_s", "s"},
	{"sched.select_self_s", "s"},
	{"solver.solve_calls", "count"},
	{"solver.solve_s", "s"},
	{"solver.solve_p50_ms", "ms"},
	{"solver.solve_p99_ms", "ms"},
	{"solver.window_dim_mean", "count"},
	{"solver.front_size_mean", "count"},
	{"lp.cold_iters_p50", "count"},
	{"lp.cold_iter_us", "us"},
	{"sim.steps", "count"},
	{"sim.schedule_calls", "count"},
	{"sim.schedule_s", "s"},
	{"sim.schedule_self_s", "s"},
	{"sim.engine_self_s", "s"},
	{"sim.new_s", "s"},
	{"sim.decision_p99_ms", "ms"},
	{"sim.allocs_per_job", "count"},
	{"sim.gc_cycles", "count"},
	{"sim.sweep_jobs_per_s", "1/s"},
	{"sim.runsweep_serial_s", "s"},
	{"sim.runsweep_speedup", "x"},
	{"metrics.report_s", "s"},
	{"metrics.avg_wait_s", "s"},
	{"checkpoint.snapshot_mb", "MB"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"checkpoint.restore_allocs", "count"},
	{"farm.cells", "count"},
	{"farm.leases", "count"},
	{"farm.checkpoints", "count"},
	{"farm.steals", "count"},
	{"farm.retries", "count"},
	{"farm.expired", "count"},
	{"farm.upload_mb", "MB"},
	{"farm.download_mb", "MB"},
	{"farm.wire_mb_per_cell", "MB"},
	{"farm.handler_lease_s", "s"},
	{"farm.handler_checkpoint_s", "s"},
	{"farm.handler_result_s", "s"},
	{"farm.rtt_checkpoint_p50_ms", "ms"},
	{"farm.rtt_checkpoint_p99_ms", "ms"},
	{"farm.overhead_frac", "frac"},
	{"trace.wall_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.residual_frac", "frac"},
	{"bench.speed_factor", "x"},
}

// layerValues holds one traced round's per-layer metrics by name.
type layerValues map[string]float64

// workload is one named benchmark workload: a replay or the grid.
type workload struct {
	name   string
	replay *replaySpec
	grid   *gridSpec
}

// workloads returns the five workloads at their benchmark sizes: the
// issue's, scaled until one round — one pass over every trace of the
// workload — takes 4–6 reference seconds on the two-core sandbox, because
// the run-time cap leaves ~25 s per run, set-ups and build included.
//
// Two things had to change with the scale. Traces this short only reach
// the regime each workload exists for (a full GA window, a queue deeper
// than 1 024, a queue over a thousand deep) when jobs arrive faster than
// the generator's default load of 1.1 lets them, so the three queue-bound
// replays are loaded until the queue builds within the first few hundred
// arrivals. And a single short trace makes every metric swing with the
// seed — by ±10% for throughput, more for the schedule's quality — so each
// workload replays several independent traces per round (the stream, at a
// million jobs, averages over itself; at the issue's load of 0.95 its
// queue episodes still moved throughput by a third from seed to seed,
// hence 0.8).
func workloads() []workload {
	return []workload{
		{name: "replay-ga", replay: &replaySpec{
			name: "replay-ga", traces: 6, jobs: 100, load: 4, variant: "S4",
			method: "BBSched", window: 20, input: csvFile}},
		{name: "replay-lp-w1024", replay: &replaySpec{
			name: "replay-lp-w1024", traces: 4, jobs: 1600, load: 50, variant: "S4",
			method: "Weighted_LP", window: 1024, input: inMemory}},
		{name: "replay-deep-queue", replay: &replaySpec{
			name: "replay-deep-queue", traces: 16, jobs: 2500, load: 4, variant: "S4",
			method: "Baseline", window: 20, input: inMemory}},
		{name: "stream-1m", replay: &replaySpec{
			name: "stream-1m", traces: 1, jobs: 1_000_000, load: 0.8,
			method: "Baseline", window: 20, input: gzStream}},
		{name: "farm-grid", grid: &gridSpec{
			name: "farm-grid", traces: 12, jobs: 1000, load: 2,
			methods: []string{"Baseline", "Bin_Packing", "Weighted_LP"},
			seeds:   2, checkpointEvents: 500}},
	}
}
