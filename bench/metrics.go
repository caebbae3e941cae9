package main

// metricDef names one metric the harness emits. BENCHMARK.json lists the
// same names; a test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool    // larger is better
	bound      float64 // end-to-end only: allowed relative worsening
}

// endToEnd are the metrics every workload reports on an untraced run. Bounds
// come from the A/A calibration in README.md: at least twice the spread the
// same build showed against itself.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"items_per_s", "items/s", true, 0.15},
	{"op_p50_ms", "ms", false, 0.12},
	{"cpu_ms_per_op", "ms", false, 0.20},
	{"alloc_kb_per_op", "KB", false, 0.02},
}

// perLayer are the metrics of a traced run, grouped by the module they
// measure. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// The tail latency of the whole op. It was meant to be end-to-end, but
	// the same build disagreed with itself by up to 16 % on it (README,
	// "op_p99_ms"), so it is reported, not gated.
	{name: "op_p99_ms", unit: "ms"},
	{name: "minipy.parse_ms", unit: "ms"},
	{name: "minipy.imperative_op_ms", unit: "ms"},
	{name: "profile.iters", unit: "count"},
	{name: "convert.convert_ms", unit: "ms"},
	{name: "convert.graph_nodes", unit: "count"},
	{name: "passes.run_ms", unit: "ms"},
	{name: "passes.rewrites", unit: "count", higher: true},
	{name: "passes.nodes_after", unit: "count"},
	{name: "graph.memplan_ms", unit: "ms"},
	{name: "graph.plan_inplace_frac", unit: "ratio", higher: true},
	{name: "convert.sighash_ns", unit: "ns"},
	{name: "core.call_overhead_us", unit: "us"},
	{name: "janus.call_overhead_us", unit: "us"},
	{name: "core.cache_hit_rate", unit: "ratio", higher: true},
	{name: "core.conversions", unit: "count"},
	{name: "core.fallbacks", unit: "count"},
	{name: "core.assert_failures", unit: "count"},
	{name: "exec.run_ms", unit: "ms"},
	{name: "exec.nodes_per_op", unit: "count"},
	{name: "exec.dispatch_ns_per_node", unit: "ns"},
	{name: "exec.pool_hit_rate", unit: "ratio", higher: true},
	{name: "tensor.kernel_ms_per_op", unit: "ms"},
	{name: "tensor.kernel_share", unit: "ratio", higher: true},
	{name: "tensor.conv2d_ms", unit: "ms"},
	{name: "tensor.matmul_ms", unit: "ms"},
	{name: "tensor.flops_per_op", unit: "count"},
	{name: "autodiff.tape_ms_per_op", unit: "ms"},
	{name: "autodiff.opt_apply_ms", unit: "ms"},
	{name: "serve.http_json_ms", unit: "ms"},
	{name: "serve.batch_wait_ms", unit: "ms"},
	{name: "serve.json_decode_us", unit: "us"},
	{name: "serve.json_encode_us", unit: "us"},
	{name: "serve.avg_batch", unit: "count", higher: true},
	{name: "serve.flush_timer_frac", unit: "ratio"},
	{name: "serve.rejects", unit: "count"},
	{name: "ps.pull_ms", unit: "ms"},
	{name: "ps.push_ms", unit: "ms"},
	{name: "ps.pulls_per_op", unit: "count"},
	{name: "ps.pushes_per_op", unit: "count"},
	{name: "ps.bytes_pulled_per_op", unit: "count"},
	{name: "ps.bytes_pushed_per_op", unit: "count"},
	{name: "ps.stale_drops", unit: "count"},
	{name: "ps.retries", unit: "count"},
	{name: "ps.overhead_frac", unit: "ratio"},
	{name: "obs.trace_overhead_frac", unit: "ratio"},
	{name: "bench.unattributed_frac", unit: "ratio"},
}
