package main

// metricDef names one reported metric. Bound is the share of the baseline
// median an end-to-end metric may worsen by before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the library sees, measured with tracing
// off. BENCHMARK.json repeats this table; TestBenchmarkJSONMatches keeps
// the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"build_ms", "ms", "lower", 0.25},
	{"infer_ms", "ms", "lower", 0.25},
	{"infer_parallel_ms", "ms", "lower", 0.25},
	{"served_rps", "req/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Units of model output: virtual-clock quantities are computed by the device
// models, not measured, and repeat exactly from run to run.
const (
	virtMS  = "virt_ms"
	virtRPS = "virt_req/s"
)

// perLayer lists the traced pass's metrics; the prefix is the package of the
// program the number is attributed to.
var perLayer = []metricDef{
	{"models.graph_build_ms", "ms", "lower", 0},

	{"partition.build_ms", "ms", "lower", 0},
	{"partition.subgraphs", "count", "higher", 0},
	{"partition.phases", "count", "higher", 0},

	{"compiler.compile_ms", "ms", "lower", 0},
	{"compiler.kernels", "count", "lower", 0},
	{"compiler.launches", "count", "lower", 0},
	{"compiler.fused_groups", "count", "higher", 0},
	{"compiler.exec_ms", "ms", "lower", 0},
	{"compiler.fusion_arena_gain", "ratio", "higher", 0},

	{"runtime.new_ms", "ms", "lower", 0},
	{"runtime.timing_walk_us", "us", "lower", 0},
	{"runtime.overhead_ms", "ms", "lower", 0},
	{"runtime.parallel_speedup", "ratio", "higher", 0},
	{"runtime.parallel_bound", "ratio", "higher", 0},
	{"runtime.infer_tail_ms", "ms", "lower", 0},
	{"runtime.infer_tail_pct", "%", "higher", 0},

	{"profile.profile_all_ms", "ms", "lower", 0},
	{"profile.microbenchmarks", "count", "lower", 0},

	{"schedule.greedy_correction_ms", "ms", "lower", 0},
	{"schedule.measure_calls", "count", "lower", 0},
	{"schedule.virt_latency", virtMS, "lower", 0},
	{"schedule.virt_speedup", "ratio", "higher", 0},
	{"schedule.fell_back", "count", "lower", 0},

	{"verify.all_ms", "ms", "lower", 0},
	{"verify.passes", "count", "higher", 0},
	{"verify.findings", "count", "lower", 0},

	{"tensor.share.conv", "ratio", "lower", 0},
	{"tensor.share.gemm", "ratio", "lower", 0},
	{"tensor.share.rnn", "ratio", "lower", 0},
	{"tensor.share.attention", "ratio", "lower", 0},
	{"tensor.share.elementwise", "ratio", "lower", 0},
	{"tensor.share.other", "ratio", "lower", 0},
	{"tensor.gflops", "GFLOP/s", "higher", 0},
	{"tensor.arena_hit_rate", "ratio", "higher", 0},
	{"tensor.alloc_mb_per_infer", "MB", "lower", 0},
	{"tensor.pack_cache_mb", "MB", "lower", 0},
	{"tensor.pack_cache_hit_rate", "ratio", "higher", 0},

	{"queue.push_pop_ns", "ns", "lower", 0},

	{"device.cpu_wall_over_virtual", "ratio", "lower", 0},

	{"serve.new_ms", "ms", "lower", 0},
	{"serve.first_run_s", "s", "lower", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.mean_batch_rows", "rows", "higher", 0},
	{"serve.virt_rps", virtRPS, "higher", 0},
	{"serve.virt_p99", virtMS, "lower", 0},
	{"serve.rps_unbatched", "req/s", "higher", 0},
	{"serve.batch_gain", "ratio", "higher", 0},
	{"serve.infer_equiv_rps", "req/s", "higher", 0},
	{"serve.efficiency", "ratio", "higher", 0},
	{"serve.batch_infer_ms", "ms", "lower", 0},
	{"serve.batch_row_cost", "ratio", "lower", 0},

	{"bench.trace_overhead", "ratio", "lower", 0},
}

// kernelClasses are the tensor.share.* buckets, in report order.
var kernelClasses = []string{"conv", "gemm", "rnn", "attention", "elementwise", "other"}

// opClass maps every registered operator kind to its kernel class. It is
// spelled out, not defaulted, so a new operator fails TestOpClassCoversOps
// instead of vanishing into "other".
var opClass = map[string]string{
	"conv2d": "conv",

	"dense": "gemm", "matmul": "gemm", "batch_matmul": "gemm",

	"lstm": "rnn", "gru": "rnn",

	"mha": "attention",

	"add": "elementwise", "sub": "elementwise", "mul": "elementwise", "div": "elementwise",
	"exp": "elementwise", "gelu": "elementwise", "maximum": "elementwise", "relu": "elementwise",
	"sigmoid": "elementwise", "sqrt": "elementwise", "tanh": "elementwise",

	"avgpool2d": "other", "batchnorm2d": "other", "concat": "other", "cosine_similarity": "other",
	"embedding": "other", "flatten": "other", "global_avg_pool": "other", "layernorm": "other",
	"maxpool2d": "other", "reshape": "other", "reverse_time": "other", "softmax": "other",
	"transpose": "other",
}
