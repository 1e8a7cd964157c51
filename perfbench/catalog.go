package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names and units (a self-test keeps them in
// step).
type metricDef struct {
	Name, Unit, Better string
	// Moves names the end-to-end metric, and the workloads, a change in this
	// layer metric should show up in. Empty for end-to-end metrics.
	Moves string
	// Obs is the obs.Default() exposition name the value is read from
	// (counters, and histogram _sum for span seconds); empty when the
	// benchmark times the layer's public call itself.
	Obs string
}

// endToEnd are the metrics printed with --trace 0. Each is defined on every
// workload. "op" is the workload's unit of work: for op_p50_ms one 3-DC
// pipeline pass, one whole replay, one POST /v1/instances (admit-churn) or
// one POST /v1/plan (plan-mixed); for cpu_ms_per_op and alloc_mb_per_op a
// pass, a replay, or one HTTP request of either client.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ok_pct", Unit: "%", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "heap_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics printed with --trace 1. Counts and span seconds
// read from obs are per op of the workload (see endToEnd); a layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	{Name: "workload.build_dc_ms", Unit: "ms", Better: "lower", Moves: "setup_s (all)"},
	{Name: "workload.averaged_itraces_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},

	{Name: "core.optimize_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "core.optimize_steps_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "core.reshape_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "core.ingest_week_ms", Unit: "ms", Better: "lower", Moves: "replay_s (replay); setup_s (admit-churn, plan-mixed)"},
	{Name: "core.bootstrap_ms", Unit: "ms", Better: "lower", Moves: "replay_s (replay); setup_s (admit-churn, plan-mixed)"},
	{Name: "core.tick_ms", Unit: "ms", Better: "lower", Moves: "tick_ms, replay_s (replay)"},
	{Name: "core.admit_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "core.retire_us", Unit: "us", Better: "lower", Moves: "retire_p50_us (admit-churn)"},
	{Name: "core.admit_self_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "core.plan_snapshot_us", Unit: "us", Better: "lower", Moves: "plan_p50_ms (plan-mixed)"},
	{Name: "core.frag_delta_refreshes", Unit: "count", Better: "higher", Moves: "admit_p50_us (admit-churn)", Obs: "smoothop_runtime_frag_delta_refreshes_total"},
	{Name: "core.frag_full_refreshes", Unit: "count", Better: "lower", Moves: "admit_p50_us (admit-churn)", Obs: "smoothop_runtime_frag_full_refreshes_total"},
	{Name: "core.online_drops", Unit: "count", Better: "lower", Moves: "admit_p50_us (admit-churn)", Obs: "smoothop_runtime_online_drops_total"},
	{Name: "core.fallback_traces", Unit: "count", Better: "lower", Moves: "admit_p50_us (admit-churn)", Obs: "smoothop_runtime_fallback_traces_total"},
	{Name: "core.ingest_samples", Unit: "count", Better: "lower", Moves: "replay_s (replay)", Obs: "smoothop_runtime_ingest_samples_total"},
	{Name: "core.ingest_retries", Unit: "count", Better: "lower", Moves: "replay_s (replay)", Obs: "smoothop_runtime_ingest_retries_total"},

	{Name: "http.admit_self_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "http.retire_self_us", Unit: "us", Better: "lower", Moves: "retire_p50_us (admit-churn)"},
	{Name: "http.plan_self_us", Unit: "us", Better: "lower", Moves: "plan_p50_ms (plan-mixed)"},

	{Name: "tracestore.averaged_itrace_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},

	{Name: "placement.online_admit_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "placement.online_retire_us", Unit: "us", Better: "lower", Moves: "retire_p50_us (admit-churn)"},
	{Name: "placement.workload_aware_place_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "placement.oblivious_place_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "placement.level_asynchrony_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "placement.remap_s", Unit: "s", Better: "lower", Moves: "tick_ms (replay)", Obs: "smoothop_placement_remap_seconds_sum"},
	{Name: "placement.swaps_applied", Unit: "count", Better: "higher", Moves: "tick_ms (replay)", Obs: "smoothop_placement_swaps_applied_total"},
	{Name: "placement.swaps_attempted", Unit: "count", Better: "lower", Moves: "tick_ms (replay)", Obs: "smoothop_placement_swaps_attempted_total"},
	{Name: "placement.admission_rejections", Unit: "count", Better: "lower", Moves: "fail_pct (admit-churn, plan-mixed)", Obs: "smoothop_placement_admission_rejections_total"},

	{Name: "score.differential_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "score.batch_s", Unit: "s", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_score_batch_seconds_sum"},
	{Name: "score.vectors", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_score_vectors_total"},

	{Name: "cluster.kmeans_runs", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_cluster_kmeans_runs_total"},
	{Name: "cluster.kmeans_restarts", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_cluster_kmeans_restarts_total"},
	{Name: "cluster.kmeans_iterations", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_cluster_kmeans_iterations_total"},

	{Name: "powertree.aggregate_s", Unit: "s", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_powertree_aggregate_seconds_sum"},
	{Name: "powertree.nodes_aggregated", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_powertree_nodes_aggregated_total"},
	{Name: "powertree.delta_s", Unit: "s", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)", Obs: "smoothop_powertree_delta_seconds_sum"},
	{Name: "powertree.delta_updates", Unit: "count", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)", Obs: "smoothop_powertree_delta_updates_total"},
	{Name: "powertree.delta_rebuilds", Unit: "count", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)", Obs: "smoothop_powertree_delta_rebuilds_total"},
	{Name: "powertree.delta_update_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},
	{Name: "powertree.breaker_checks", Unit: "count", Better: "lower", Moves: "tick_ms (replay)", Obs: "smoothop_powertree_breaker_checks_total"},

	{Name: "metrics.peak_reduction_ms", Unit: "ms", Better: "lower", Moves: "pipeline_s (pipeline)"},
	{Name: "metrics.fragmentation_rates_from_us", Unit: "us", Better: "lower", Moves: "admit_p50_us (admit-churn, plan-mixed)"},

	{Name: "sim.runs", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_sim_runs_total"},
	{Name: "sim.steps", Unit: "count", Better: "lower", Moves: "pipeline_s (pipeline)", Obs: "smoothop_sim_steps_total"},

	{Name: "plan.replace_service_ms", Unit: "ms", Better: "lower", Moves: "plan_p50_ms, plan_p99_ms (plan-mixed)"},
	{Name: "plan.add_instances_ms", Unit: "ms", Better: "lower", Moves: "plan_p50_ms, plan_p99_ms (plan-mixed)"},
	{Name: "plan.trip_breaker_ms", Unit: "ms", Better: "lower", Moves: "plan_p50_ms, plan_p99_ms (plan-mixed)"},
	{Name: "plan.queries", Unit: "count", Better: "higher", Moves: "plan_p50_ms (plan-mixed)", Obs: "smoothop_plan_queries_total"},
	{Name: "plan.snapshots", Unit: "count", Better: "lower", Moves: "plan_p50_ms (plan-mixed)", Obs: "smoothop_plan_snapshots_total"},
	{Name: "plan.shed", Unit: "count", Better: "lower", Moves: "fail_pct (plan-mixed)", Obs: "smoothop_plan_shed_total"},

	{Name: "faults.dropped", Unit: "count", Better: "lower", Moves: "replay_s (replay)", Obs: "smoothop_faults_dropped_total"},
	{Name: "faults.reordered", Unit: "count", Better: "lower", Moves: "replay_s (replay)", Obs: "smoothop_faults_reordered_total"},
	{Name: "faults.transient_errors", Unit: "count", Better: "lower", Moves: "replay_s (replay)", Obs: "smoothop_faults_transient_errors_total"},

	{Name: "capping.steps", Unit: "count", Better: "lower", Moves: "tick_ms (replay)", Obs: "smoothop_capping_steps_total"},
	{Name: "capping.throttles_issued", Unit: "count", Better: "lower", Moves: "tick_ms (replay)", Obs: "smoothop_capping_throttles_issued_total"},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: "op_p50_ms and heap_mb (all)"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower", Moves: "op_p50_ms and alloc_mb_per_op (all)"},

	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced minus untraced op_p50_ms, over untraced"},
}
