package experiments

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"duet/internal/compiler"
	"duet/internal/graph"
	"duet/internal/tensor"
)

// FusionBench is one fusion-ablation workload: a chain-heavy graph compiled
// with fusion off and on, executed warm through the arena. Launch counts are
// structural (deterministic per setting); the ns columns are wall-clock and
// carry the usual host noise.
type FusionBench struct {
	Workload              string  `json:"workload"`
	LaunchesOff           int     `json:"launches_off"`
	LaunchesUnconstrained int     `json:"launches_unconstrained"`
	FusedGroups           int     `json:"fused_groups"`
	NsOff                 float64 `json:"ns_off"`
	NsUnconstrained       float64 `json:"ns_unconstrained"`
	// Speedup is NsOff / NsUnconstrained — how much faster the fused plan
	// runs the same graph than one kernel per node.
	Speedup float64 `json:"speedup"`
}

// KernelsReport is the committed BENCH_kernels.json artifact: the fusion
// ablation plus the host context it was measured on. Kernel throughput
// per tier lives in the tensor package's go test benchmarks.
type KernelsReport struct {
	GoMaxProcs int  `json:"gomaxprocs"`
	Quick      bool `json:"quick"`
	// Fusion is the fused-vs-unfused ablation; the geomean of the
	// per-workload speedups is the headline the bench-diff gate holds at
	// ≥ FusionSpeedupBar.
	Fusion                []FusionBench `json:"fusion"`
	FusionSpeedupGeomean  float64       `json:"fusion_speedup_geomean"`
	FusionLaunchReduction float64       `json:"fusion_launch_reduction"`
}

// benchBudget is the per-workload sampling budget at paper scale; quick
// mode samples once.
const benchBudget = 300 * time.Millisecond

// FusionSpeedupBar is the wall-clock bar fused execution must clear over
// one kernel per node on the fusion-ablation workloads: the geomean of the
// per-workload speedups must stay at or above this ratio. The bench-diff
// gate (kernels/fusion/gate/speedup_ok) re-derives the 0/1 verdict from
// the recorded geomean on both the committed baseline and every fresh run.
const FusionSpeedupBar = 1.10

// timeKernel samples f until the budget is spent (at least once) and
// returns the mean ns/op.
func timeKernel(quick bool, f func()) float64 {
	f() // warm up: pack caches, arena pools, worker pool spin-up
	iters := 0
	var elapsed time.Duration
	for elapsed < benchBudget && iters < 50 {
		start := time.Now()
		f()
		elapsed += time.Since(start)
		iters++
		if quick {
			break
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(iters)
}

// BuildKernelsReport runs the fusion ablation. cfg.Runs below the Default
// scale (i.e. Quick) switches to single-iteration sampling.
func BuildKernelsReport(cfg Config) (*KernelsReport, error) {
	quick := cfg.Runs < Default().Runs
	rep := &KernelsReport{GoMaxProcs: goruntime.GOMAXPROCS(0), Quick: quick}
	if err := measureFusion(rep, quick, rand.New(rand.NewSource(cfg.Seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// fusionWorkload is one graph in the fusion ablation. Workloads are sized
// like batch-1 serving activations — small tensors, long elementwise
// chains — where per-op dispatch (an allocation, a shape check, a
// parallel-for setup per op) dominates the arithmetic. Unfused, every op
// dispatches on its own; fused, each chain runs as a single tape launch,
// which is exactly the overhead the paper's launch-count argument is about.
type fusionWorkload struct {
	name   string
	build  func(rng *rand.Rand) *graph.Graph
	inputs func(rng *rand.Rand) map[string]*tensor.Tensor
}

func fusionWorkloads() []fusionWorkload {
	const cols = 64
	return []fusionWorkload{
		{
			// A standalone elementwise chain: 30 cheap ops over a batch-1
			// activation row.
			name: "elementwise_chain",
			build: func(rng *rand.Rand) *graph.Graph {
				g := graph.New("fusion-chain")
				x := g.AddInput("x", 1, cols)
				row := g.AddConst("row", tensor.Rand(rng, 1, cols))
				cur := x
				for i := 0; i < 10; i++ {
					cur = g.Add("relu", fmt.Sprintf("c%d.relu", i), nil, cur)
					cur = g.Add("mul", fmt.Sprintf("c%d.mul", i), nil, cur, row)
					cur = g.Add("add", fmt.Sprintf("c%d.add", i), nil, cur, row)
				}
				g.SetOutputs(cur)
				return g
			},
			inputs: func(rng *rand.Rand) map[string]*tensor.Tensor {
				return map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, cols)}
			},
		},
		{
			// A small dense lead with a 16-op epilogue of bias adds,
			// activations, scales and clips.
			name: "dense_epilogue",
			build: func(rng *rand.Rand) *graph.Graph {
				g := graph.New("fusion-dense")
				x := g.AddInput("x", 1, 48)
				w := g.AddConst("w", tensor.Rand(rng, 1, 96, 48))
				row := g.AddConst("row", tensor.Rand(rng, 1, 96))
				cur := g.Add("dense", "lead", nil, x, w)
				for i := 0; i < 4; i++ {
					cur = g.Add("add", fmt.Sprintf("e%d.bias", i), nil, cur, row)
					cur = g.Add("relu", fmt.Sprintf("e%d.act", i), nil, cur)
					cur = g.Add("mul", fmt.Sprintf("e%d.scale", i), nil, cur, row)
					cur = g.Add("maximum", fmt.Sprintf("e%d.clip", i), nil, cur, row)
				}
				g.SetOutputs(cur)
				return g
			},
			inputs: func(rng *rand.Rand) map[string]*tensor.Tensor {
				return map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, 48)}
			},
		},
		{
			// A multi-consumer residual ladder: the forks exercise the
			// fusion pass's register saves.
			name: "residual_fanout",
			build: func(rng *rand.Rand) *graph.Graph {
				g := graph.New("fusion-residual")
				x := g.AddInput("x", 1, cols)
				row := g.AddConst("row", tensor.Rand(rng, 1, cols))
				cur := g.Add("add", "pre", nil, x, row)
				for i := 0; i < 8; i++ {
					act := g.Add("relu", fmt.Sprintf("r%d.act", i), nil, cur)
					scaled := g.Add("mul", fmt.Sprintf("r%d.scaled", i), nil, act, row)
					cur = g.Add("add", fmt.Sprintf("r%d.res", i), nil, scaled, cur)
				}
				g.SetOutputs(g.Add("maximum", "out", nil, cur, row))
				return g
			},
			inputs: func(rng *rand.Rand) map[string]*tensor.Tensor {
				return map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, cols)}
			},
		},
	}
}

// measureFusion fills the report's fusion ablation: per-workload launch
// counts and warm-arena wall time with fusion off and on, and the aggregate
// geomean speedup / launch reduction.
func measureFusion(rep *KernelsReport, quick bool, rng *rand.Rand) error {
	logSum := 0.0
	offLaunches, uncLaunches := 0, 0
	for _, w := range fusionWorkloads() {
		g := w.build(rng)
		if err := compiler.InferShapes(g); err != nil {
			return fmt.Errorf("fusion workload %s: %w", w.name, err)
		}
		var mods [2]*compiler.Module
		for i, on := range []bool{false, true} {
			opts := compiler.DefaultOptions()
			opts.Fuse = on
			m, err := compiler.Compile(g, opts)
			if err != nil {
				return fmt.Errorf("fusion workload %s: %w", w.name, err)
			}
			mods[i] = m
		}
		inputs := w.inputs(rng)
		// One module run is ~10µs — below timer noise — so each timed
		// sample aggregates a block of runs and reports the per-run mean.
		const block = 64
		timeModule := func(m *compiler.Module) (float64, error) {
			ar := tensor.NewArena()
			var runErr error
			ns := timeKernel(quick, func() {
				for b := 0; b < block; b++ {
					outs, err := m.ExecuteArena(inputs, ar)
					if err != nil && runErr == nil {
						runErr = err
					}
					// Recycle the outputs so repeated runs measure the warm
					// steady state the engine sustains.
					for _, o := range outs {
						ar.Release(o)
					}
				}
			})
			return ns / block, runErr
		}
		nsOff, err := timeModule(mods[0])
		if err != nil {
			return fmt.Errorf("fusion workload %s: %w", w.name, err)
		}
		nsUnc, err := timeModule(mods[1])
		if err != nil {
			return fmt.Errorf("fusion workload %s: %w", w.name, err)
		}
		b := FusionBench{
			Workload:              w.name,
			LaunchesOff:           mods[0].LaunchCount(),
			LaunchesUnconstrained: mods[1].LaunchCount(),
			FusedGroups:           mods[1].FusionStats().Groups,
			NsOff:                 nsOff,
			NsUnconstrained:       nsUnc,
			Speedup:               nsOff / nsUnc,
		}
		rep.Fusion = append(rep.Fusion, b)
		logSum += math.Log(b.Speedup)
		offLaunches += b.LaunchesOff
		uncLaunches += b.LaunchesUnconstrained
	}
	rep.FusionSpeedupGeomean = math.Exp(logSum / float64(len(rep.Fusion)))
	rep.FusionLaunchReduction = 1 - float64(uncLaunches)/float64(offLaunches)
	return nil
}
