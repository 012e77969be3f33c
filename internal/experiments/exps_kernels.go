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

// KernelsReport is the fusion ablation plus the host context it was
// measured on; BENCH_kernels.json is the committed quick-scale record.
// Kernel throughput per tier lives in the tensor package's go test
// benchmarks.
type KernelsReport struct {
	GoMaxProcs int  `json:"gomaxprocs"`
	Quick      bool `json:"quick"`
	// Fusion is the fused-vs-unfused ablation; the geomean of the
	// per-workload speedups is the headline TestFusionSpeedupBar holds at
	// ≥ FusionSpeedupBar.
	Fusion                []FusionBench `json:"fusion"`
	FusionSpeedupGeomean  float64       `json:"fusion_speedup_geomean"`
	FusionLaunchReduction float64       `json:"fusion_launch_reduction"`
}

// fusionPairs is the number of interleaved (unfused, fused) samples a
// fusion workload takes at paper scale; quick mode takes four.
const fusionPairs = 32

// FusionSpeedupBar is the wall-clock bar fused execution must clear over
// one kernel per node on the fusion-ablation workloads: the geomean of the
// per-workload speedups must stay at or above this ratio. TestFusionSpeedupBar
// holds the median of three quick runs (seeds 42–44) to it, and to 0.75× the
// value recorded in BENCH_kernels.json.
const FusionSpeedupBar = 1.10

// BuildKernelsReport runs the fusion ablation. cfg.Runs below the Default
// scale (i.e. Quick) takes four sample pairs per workload instead of
// fusionPairs.
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
		// sample aggregates a block of runs into a warm arena of its own
		// module. The samples alternate between the modules, and which one
		// goes first alternates from pair to pair, so warm-up, drift and
		// order fall on both sides alike.
		const block = 64
		ars := [2]*tensor.Arena{tensor.NewArena(), tensor.NewArena()}
		var runErr error
		run := func(i int) {
			for b := 0; b < block; b++ {
				outs, err := mods[i].ExecuteArena(inputs, ars[i])
				if err != nil && runErr == nil {
					runErr = err
				}
				// Recycle the outputs so repeated runs measure the warm
				// steady state the engine sustains.
				for _, o := range outs {
					ars[i].Release(o)
				}
			}
		}
		run(0) // warm up: weight panels, arena free lists, worker pool spin-up
		run(1)
		pairs := fusionPairs
		if quick {
			pairs = 4
		}
		var spent [2]time.Duration
		for p := 0; p < pairs; p++ {
			for j := 0; j < 2; j++ {
				i := (p + j) % 2
				start := time.Now()
				run(i)
				spent[i] += time.Since(start)
			}
		}
		if runErr != nil {
			return fmt.Errorf("fusion workload %s: %w", w.name, runErr)
		}
		nsOff := float64(spent[0].Nanoseconds()) / float64(pairs*block)
		nsUnc := float64(spent[1].Nanoseconds()) / float64(pairs*block)
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
