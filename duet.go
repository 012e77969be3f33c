// Package duet is a DNN inference engine that co-executes a single model on
// a coupled CPU-GPU architecture, reproducing "DUET: A Compiler-Runtime
// Subgraph Scheduling Approach for Tensor Programs on a Coupled CPU-GPU
// Architecture" (IPDPS 2021).
//
// A model is a dataflow graph of tensor operators (built directly with
// NewGraph or parsed from the Relay-like text IR with ParseRelay). Build
// runs DUET's pipeline over it:
//
//  1. coarse-grained multi-phase partitioning into sequential and
//     multi-path phases of subgraphs,
//  2. compiler-aware profiling of every subgraph (compiled through the full
//     graph-optimization pipeline) on both device models, and
//  3. greedy-correction scheduling that maps subgraphs to CPU and GPU,
//     falling back to the best single device when co-execution loses.
//
// Because Go has no GPU backend, devices are calibrated analytic models
// advancing a virtual clock (see DESIGN.md); tensor values are computed for
// real on the host, so Engine.Infer returns numerically correct outputs
// while latencies are deterministic under a seed.
//
// Quickstart:
//
//	g := duet.NewGraph("two-branch")
//	x := g.AddInput("x", 1, 512)
//	...
//	engine, err := duet.Build(g, duet.DefaultConfig(42))
//	res, err := engine.Infer(map[string]*duet.Tensor{"x": input})
package duet

import (
	"io"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/obs"
	"duet/internal/relay"
	"duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/serve"
	"duet/internal/stats"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// Graph is a dataflow DAG of tensor operators.
type Graph = graph.Graph

// Attrs carries operator attributes (stride, axis, hidden size, ...).
type Attrs = graph.Attrs

// Tensor is a dense row-major float32 tensor.
type Tensor = tensor.Tensor

// Engine is a built DUET engine: partitioned, profiled, and scheduled.
type Engine = core.Engine

// Config controls engine construction; see DefaultConfig.
type Config = core.Config

// Result is the outcome of one inference: outputs, virtual latency, and the
// execution timeline.
type Result = runtime.Result

// Placement maps subgraphs to devices ('C'/'G' in its String form).
type Placement = runtime.Placement

// DeviceKind distinguishes the CPU and GPU device models.
type DeviceKind = device.Kind

// Device kinds.
const (
	CPU = device.CPU
	GPU = device.GPU
)

// Seconds is a virtual-clock duration.
type Seconds = vclock.Seconds

// LatencySummary is the percentile summary of a latency sample set
// (mean, min/max, P50/P99/P99.9).
type LatencySummary = stats.Summary

// Summarize computes the latency summary of samples; it panics on an empty
// slice (use TrySummarize in serving paths). The input is never mutated.
func Summarize(samples []Seconds) LatencySummary { return stats.Summarize(samples) }

// TrySummarize is the non-panicking Summarize: ok is false (and the
// summary zero) for an empty sample set.
func TrySummarize(samples []Seconds) (LatencySummary, bool) { return stats.TrySummarize(samples) }

// Metrics is a concurrency-safe metrics registry (counters, gauges,
// exact-quantile latency histograms). Attach one to a built engine with
// Engine.Instrument, then export it with Metrics.WritePrometheus (text
// exposition format), Metrics.WriteJSON, or Metrics.Snapshot.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time JSON-marshalable view of a Metrics
// registry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// TraceSpan is one interval on a named track in a request trace.
type TraceSpan = obs.Span

// RequestTrace is a concurrency-safe span recorder for one request; export
// with RequestTrace.ChromeTrace.
type RequestTrace = obs.Trace

// NewRequestTrace returns an empty request trace.
func NewRequestTrace() *RequestTrace { return obs.NewTrace() }

// ScheduleAudit is the structured decision trail of one greedy-correction
// scheduling run; obtain one from Engine.ScheduleAudit.
type ScheduleAudit = schedule.Audit

// NewGraph returns an empty model graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Build constructs a DUET engine for the graph: validate, partition,
// profile, schedule, and apply the single-device fallback.
func Build(g *Graph, cfg Config) (*Engine, error) { return core.Build(g, cfg) }

// DefaultConfig returns the paper's engine configuration under the given
// noise seed (0 = noiseless, fully deterministic timing).
func DefaultConfig(seed int64) Config { return core.DefaultConfig(seed) }

// CompilerOptions selects graph-level optimizations (all enabled by
// default); see Config.Compiler.
type CompilerOptions = compiler.Options

// ParseRelay parses a model written in the package's Relay-like text IR and
// lowers it to a graph, resolving @name weight references from weights.
func ParseRelay(src, name string, weights map[string]*Tensor) (*Graph, error) {
	m, err := relay.Parse(src)
	if err != nil {
		return nil, err
	}
	return relay.ToGraph(m, name, weights)
}

// FormatRelay raises a graph back to its Relay-like textual form, returning
// the program text and the weight environment.
func FormatRelay(g *Graph) (string, map[string]*Tensor, error) {
	m, w, err := relay.FromGraph(g)
	if err != nil {
		return "", nil, err
	}
	return m.String(), w, nil
}

// SaveModel writes a graph with its weights to w: the text FormatRelay
// prints, then one raw little-endian float32 section per weight (format in
// internal/relay's package doc). LoadModel reads it back. The round trip
// preserves names, ops, edges, attributes and every weight bit; node IDs
// may be renumbered.
func SaveModel(g *Graph, w io.Writer) error { return relay.WriteModel(g, w) }

// LoadModel reads a graph written by SaveModel.
func LoadModel(r io.Reader) (*Graph, error) { return relay.ReadModel(r) }

// Tensor constructors, re-exported for building inputs and weights.
var (
	// NewTensor returns a zero tensor of the given shape.
	NewTensor = tensor.New
	// TensorFromSlice wraps a []float32 in a tensor of the given shape.
	TensorFromSlice = tensor.FromSlice
	// TensorFull returns a constant-filled tensor.
	TensorFull = tensor.Full
	// RandTensor returns a uniform random tensor drawn from any rand.Source;
	// a tensor.RNG is the fast path; both yield math/rand's Float32 stream.
	RandTensor = tensor.Rand
)

// Serving layer: a concurrent inference server over a built engine with
// replica workers, dynamic micro-batching, deadline-aware admission, and
// pipelined cross-device execution. See package duet/internal/serve.

// ServeConfig assembles a Server (engine, replicas, batching policy,
// admission control, instrumentation).
type ServeConfig = serve.Config

// Server schedules concurrent inference over a replica pool; construct
// with NewServer, drive with Server.Run, release with Server.Close.
type Server = serve.Server

// ServeRequest is one inference request in a served stream.
type ServeRequest = serve.Request

// ServeResponse is the terminal disposition of one served request.
type ServeResponse = serve.Response

// ServeReport aggregates one Server.Run (throughput, tail latency,
// batching, per-replica utilization).
type ServeReport = serve.Report

// ServeLoadSpec parameterises the open-loop load generator.
type ServeLoadSpec = serve.LoadSpec

// ServeOutcome classifies how a served request terminated.
type ServeOutcome = serve.Outcome

// Served-request outcomes.
const (
	ServeOK       = serve.OK
	ServeRejected = serve.Rejected
	ServeExpired  = serve.Expired
	ServeFailed   = serve.Failed
)

// NewServer validates the configuration and starts the replica device
// workers.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// ServeOpenLoop materialises a deterministic request stream: Poisson
// arrivals at QPS or an all-at-once burst.
func ServeOpenLoop(spec ServeLoadSpec) []ServeRequest { return serve.OpenLoop(spec) }
