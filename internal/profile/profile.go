// Package profile implements DUET's compiler-aware profiler (§IV-B). Each
// partitioned subgraph is treated as a standalone model, compiled through
// the full DL-compiler pipeline (so fusion and the other graph-level passes
// are reflected in its kernel plan), and micro-benchmarked on every device
// for a fixed number of runs. The recorded execution time and I/O tensor
// volumes drive the subgraph scheduler. Profiling is an offline, one-time
// cost.
package profile

import (
	"fmt"
	"strings"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/vclock"
)

// Record holds the profiled statistics of one subgraph.
type Record struct {
	// Index is the subgraph's flat index in partition order.
	Index int
	// Summary describes the operators inside (e.g. "conv2d×20,relu×17").
	Summary string
	// Time holds the mean micro-benchmark time per device kind, indexed by
	// device.CPU / device.GPU.
	Time [2]vclock.Seconds
	// InBytes / OutBytes are the boundary tensor volumes, used to reason
	// about CPU↔GPU communication cost.
	InBytes  int
	OutBytes int
	// Kernels is the number of compiled kernels after fusion.
	Kernels int
	// Fused names the plan's fused kernels as comma-joined "name+N" tags
	// (lead node plus absorbed chain-op count), so downstream consumers —
	// the scheduler's audit in particular — can say which fused kernels a
	// placement decision weighed. Empty when fusion produced no groups.
	Fused string `json:",omitempty"`
}

// Faster returns the device kind with the lower profiled time.
//
// Ties break CPU-first, deliberately: when both devices profile equal (the
// comparison is <=), the subgraph stays on the CPU, which keeps the GPU —
// the scarcer, launch-overhead-dominated resource — free for subgraphs
// that genuinely need it, and makes the decision deterministic. The
// scheduler's audit flags placements that rested on a tie or a
// sub-threshold margin (see Record.Margin and schedule.TieMarginFrac).
func (r *Record) Faster() device.Kind {
	if r.Time[device.CPU] <= r.Time[device.GPU] {
		return device.CPU
	}
	return device.GPU
}

// Best returns the lower of the two profiled times. Like Faster, an exact
// tie resolves to the CPU time (the two are equal, so the value is the
// same either way).
func (r *Record) Best() vclock.Seconds {
	if r.Time[device.CPU] <= r.Time[device.GPU] {
		return r.Time[device.CPU]
	}
	return r.Time[device.GPU]
}

// Margin returns the relative CPU/GPU cost separation,
// |cpu - gpu| / max(cpu, gpu), in [0, 1]. A margin of 0 is an exact tie —
// the CPU-first tie-break decided the device, not the profile — and small
// margins mean the placement is sensitive to profiling error.
func (r *Record) Margin() float64 {
	c, g := float64(r.Time[device.CPU]), float64(r.Time[device.GPU])
	hi := c
	if g > hi {
		hi = g
	}
	if hi <= 0 {
		return 0
	}
	d := c - g
	if d < 0 {
		d = -d
	}
	return d / hi
}

// TimeOn returns the profiled time on the given device kind.
func (r *Record) TimeOn(k device.Kind) vclock.Seconds { return r.Time[k] }

// Profiler micro-benchmarks compiled subgraphs on a platform.
type Profiler struct {
	// Platform supplies the device models (profiling uses its noise
	// sources; a seed-0 platform profiles noiselessly).
	Platform *device.Platform
	// Options is the compiler configuration used to build each
	// micro-benchmark; DUET always profiles compiler-optimized code.
	Options compiler.Options
	// Runs is the number of measured repetitions per device (the paper uses
	// a fixed small number, e.g. 500, for statistically stable means).
	Runs int
	// Benchmarks counts micro-benchmark executions performed (one per
	// device per repetition).
	Benchmarks int
}

// New returns a profiler with the paper's defaults: full optimization
// pipeline, 500 runs.
func New(plat *device.Platform) *Profiler {
	return &Profiler{Platform: plat, Options: compiler.DefaultOptions(), Runs: 500}
}

// ProfileSubgraph compiles one subgraph and measures it on both devices.
// The graph-level compile happens once; only the target-dependent
// low-level schedule selection (TunedCosts) runs per device, so both
// devices benchmark the same compiled module.
func (p *Profiler) ProfileSubgraph(parent *graph.Graph, sub *graph.Subgraph, index int) (Record, error) {
	m, err := compiler.Compile(sub.Graph, p.Options)
	if err != nil {
		return Record{}, fmt.Errorf("profile: compiling %s: %w", sub.Graph.Name, err)
	}
	return p.ProfileModule(parent, sub, m, index), nil
}

// ProfileModule micro-benchmarks an already-compiled module on both
// devices. Callers that hold compiled modules (the engine compiles every
// subgraph anyway) use this to avoid recompiling for profiling.
func (p *Profiler) ProfileModule(parent *graph.Graph, sub *graph.Subgraph, m *compiler.Module, index int) Record {
	runs := p.Runs
	if runs <= 0 {
		runs = 1
	}
	rec := Record{
		Index:    index,
		Summary:  sub.Summary(),
		InBytes:  sub.InputBytes(parent),
		OutBytes: sub.OutputBytes(parent),
		Kernels:  m.KernelCount(),
		Fused:    strings.Join(m.FusedKernelNames(), ","),
	}
	for _, kind := range []device.Kind{device.CPU, device.GPU} {
		dev := p.Platform.Device(kind)
		// Lower through the target-dependent back-end: low-level schedule
		// selection happens per device, so the profiled code is what the
		// device would actually run (§IV-B's end-to-end pipeline).
		costs := compiler.TunedCosts(m, dev)
		var sum vclock.Seconds
		for r := 0; r < runs; r++ {
			var t vclock.Seconds
			for _, c := range costs {
				t += dev.SampleKernelTime(c)
			}
			sum += t
		}
		p.Benchmarks += runs
		rec.Time[kind] = sum / vclock.Seconds(runs)
	}
	return rec
}

// ProfileAll profiles every subgraph of a partition, in flat order.
func (p *Profiler) ProfileAll(parent *graph.Graph, subs []*graph.Subgraph) ([]Record, error) {
	records := make([]Record, 0, len(subs))
	for i, sub := range subs {
		rec, err := p.ProfileSubgraph(parent, sub, i)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return records, nil
}
