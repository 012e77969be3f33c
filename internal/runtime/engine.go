// Package runtime is DUET's heterogeneous execution engine (§IV-D). One
// worker per device consumes subgraphs from its synchronization queue,
// executes their compiled kernels, and triggers dependents; values crossing
// devices pay the interconnect cost. Time advances on the virtual clock of
// the device models while tensor values are (optionally) computed for real,
// so co-executed results can be checked bit-for-bit against single-device
// execution.
package runtime

import (
	"fmt"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/ops"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// Placement maps each flat subgraph index (partition.Subgraphs() order) to
// the device kind that executes it.
type Placement []device.Kind

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement {
	return append(Placement(nil), p...)
}

// String renders the placement compactly, e.g. "CGGC". Unknown device kinds
// render as '?' so corrupted placements are visible in logs instead of
// silently reading as GPU.
func (p Placement) String() string {
	b := make([]byte, len(p))
	for i, k := range p {
		switch k {
		case device.CPU:
			b[i] = 'C'
		case device.GPU:
			b[i] = 'G'
		default:
			b[i] = '?'
		}
	}
	return string(b)
}

// validatePlacement delegates to the static verification layer's placement
// pass, so every engine entry point fails a corrupted placement with a typed
// *verify.PlacementError naming the subgraph, phase, and offending device —
// instead of an index panic deep in the engine.
func (e *Engine) validatePlacement(place Placement) error {
	if e.Partition == nil {
		return verify.CheckPlacementN([]device.Kind(place), len(e.subgraphs))
	}
	return verify.CheckPlacement([]device.Kind(place), e.Partition)
}

// Uniform returns a placement assigning every one of n subgraphs to kind.
func Uniform(n int, kind device.Kind) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = kind
	}
	return p
}

// Span records one executed subgraph or transfer on the timeline.
type Span struct {
	Label  string
	Device string
	Start  vclock.Seconds
	End    vclock.Seconds
}

// Result is the outcome of one engine run.
type Result struct {
	// Outputs holds the declared graph outputs (nil when values were not
	// materialised).
	Outputs []*tensor.Tensor
	// Latency is the virtual end-to-end time of the run.
	Latency vclock.Seconds
	// Timeline lists executed subgraphs and transfers in start order.
	Timeline []Span
}

// Engine executes a partitioned model on the coupled CPU-GPU platform.
type Engine struct {
	Parent    *graph.Graph
	Partition *partition.Partition
	Platform  *device.Platform
	// Skeleton is the dataflow every walk and executor of the engine reads.
	Skeleton *Skeleton

	subgraphs []*graph.Subgraph
	modules   []*compiler.Module
	// tuned holds per-subgraph, per-device-kind kernel costs after
	// low-level schedule selection (the target-dependent back-end step).
	tuned [][2][]ops.Cost
	// m holds the resolved observability instruments (all nil until
	// Instrument attaches a registry; recording through nil is a no-op).
	m engineMetrics
	// arena recycles activation buffers across value-carrying runs; New and
	// WithPlatform each give an engine its own.
	arena *tensor.Arena
}

// New compiles every subgraph of the partition under opt and returns an
// engine ready to execute placements.
func New(p *partition.Partition, plat *device.Platform, opt compiler.Options) (*Engine, error) {
	e := &Engine{Parent: p.Parent, Partition: p, Platform: plat, subgraphs: p.Subgraphs(), arena: tensor.NewArena()}
	var err error
	if e.Skeleton, err = NewSkeleton(p.Parent, e.subgraphs); err != nil {
		return nil, err
	}
	for _, sub := range e.subgraphs {
		m, err := compiler.Compile(sub.Graph, opt)
		if err != nil {
			return nil, fmt.Errorf("runtime: compiling subgraph %s: %w", sub.Graph.Name, err)
		}
		e.modules = append(e.modules, m)
		e.tuned = append(e.tuned, [2][]ops.Cost{
			device.CPU: compiler.TunedCosts(m, plat.CPU),
			device.GPU: compiler.TunedCosts(m, plat.GPU),
		})
	}
	return e, nil
}

// WithPlatform returns an engine over the same compiled modules, tuned costs
// and skeleton that executes on plat, with its own arena and no metrics
// attached. plat must have e.Platform's device constants (the tuned costs
// were selected against them); only its noise seed may differ.
func (e *Engine) WithPlatform(plat *device.Platform) *Engine {
	twin := *e
	twin.Platform = plat
	twin.m = engineMetrics{}
	twin.arena = tensor.NewArena()
	return &twin
}

// NumSubgraphs returns the number of schedulable subgraphs.
func (e *Engine) NumSubgraphs() int { return len(e.subgraphs) }

// Subgraphs exposes the flat subgraph list (partition order).
func (e *Engine) Subgraphs() []*graph.Subgraph { return e.subgraphs }

// Module returns the compiled module of subgraph i.
func (e *Engine) Module(i int) *compiler.Module { return e.modules[i] }

// Arena returns the engine's activation arena.
func (e *Engine) Arena() *tensor.Arena { return e.arena }

// Run executes the model under the given placement. inputs are keyed by the
// parent graph's input names; pass withValues=false for timing-only runs
// (inputs may then be nil).
func (e *Engine) Run(inputs map[string]*tensor.Tensor, place Placement, withValues bool) (*Result, error) {
	res, err := e.run(inputs, place, withValues)
	if err != nil {
		e.m.runErrors.Inc()
		return nil, err
	}
	e.recordRun(res.Latency)
	return res, nil
}

func (e *Engine) run(inputs map[string]*tensor.Tensor, place Placement, withValues bool) (*Result, error) {
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}
	res := &Result{}
	if withValues {
		d, err := e.NewDataflow(inputs, e.arena)
		if err != nil {
			return nil, err
		}
		if res.Outputs, err = e.execute(d); err != nil {
			return nil, err
		}
	}
	w := NewWalk(e.Skeleton, e.Sampler(e.Platform, false), &recorder{e: e, res: res})
	w.Begin(make([]vclock.Seconds, Lanes), 0)
	res.Latency = w.Latency(place)
	return res, nil
}

// recordRun counts one completed Run and its latency.
func (e *Engine) recordRun(latency vclock.Seconds) {
	e.m.runs.Inc()
	e.m.latency.Observe(latency)
	e.m.recordMemory(e.arena)
}

// recorder is the engine's walk sink: busy seconds into the metrics registry
// and, when res is non-nil, spans onto its timeline.
type recorder struct {
	e   *Engine
	res *Result
}

func (r *recorder) Transferred(v, src, dst int, start, dur vclock.Seconds) {
	r.e.m.linkBusy.Add(dur)
	if r.res == nil {
		return
	}
	label := fmt.Sprintf("xfer:%s→%s:%s", device.Kind(src), device.Kind(dst), r.e.Skeleton.names[v])
	r.res.Timeline = append(r.res.Timeline, Span{Label: label, Device: r.e.Platform.Link.Name, Start: start, End: start + dur})
}

func (r *recorder) Dispatched(i, lane int, start, dur vclock.Seconds) {
	r.e.m.deviceBusy[lane].Add(dur)
	if r.res == nil {
		return
	}
	r.res.Timeline = append(r.res.Timeline, Span{
		Label: r.e.Skeleton.labels[i], Device: r.e.Platform.Device(device.Kind(lane)).Name, Start: start, End: start + dur,
	})
}

// execute is the serial value executor behind Run: the
// dataflow's subgraphs fired in partition order on the calling goroutine,
// stopping at the first failure. Timing never depends on values and is not
// computed here.
func (e *Engine) execute(d *Dataflow) ([]*tensor.Tensor, error) {
	for i := range e.subgraphs {
		d.Fire(i)
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return d.Outputs(), nil
}

// MeasureLatency performs runs timing-only executions and returns every
// sample — the engine-level analogue of the paper's 5000-run measurement.
// Each sample counts as a Run; no timeline is recorded.
func (e *Engine) MeasureLatency(place Placement, runs int) ([]vclock.Seconds, error) {
	if err := e.validatePlacement(place); err != nil {
		e.m.runErrors.Inc()
		return nil, err
	}
	w := NewWalk(e.Skeleton, e.Sampler(e.Platform, false), &recorder{e: e})
	clocks := make([]vclock.Seconds, Lanes)
	samples := make([]vclock.Seconds, runs)
	for r := range samples {
		clear(clocks)
		w.Begin(clocks, 0)
		samples[r] = w.Latency(place)
		e.recordRun(samples[r])
	}
	return samples, nil
}
