package runtime

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// poisonArena overwrites every buffer on the arena's free lists with NaN: a
// tensor that is still in use but was released anyway shows up as NaN in
// its holder's hands, and a kernel that reads a recycled buffer before
// writing it computes NaN.
func poisonArena(ar *tensor.Arena) {
	nan := float32(math.NaN())
	var held []*tensor.Tensor
	for n, k := range ar.Held() {
		for range k {
			t := ar.NewNoZero(n)
			// Filled by doubling copies: the race detector checks a copy once,
			// an element loop once per element.
			t.Data()[0] = nan
			for filled := 1; filled < n; filled *= 2 {
				copy(t.Data()[filled:], t.Data()[:filled])
			}
			held = append(held, t)
		}
	}
	for _, t := range held {
		ar.Release(t)
	}
}

// assertArenaCutsAllocs measures a warm end-to-end Run with and without the
// arena and fails unless the arena at least halves the steady-state
// allocation count.
func assertArenaCutsAllocs(t *testing.T, e *Engine, inputs map[string]*tensor.Tensor) {
	t.Helper()
	place := Uniform(e.NumSubgraphs(), device.CPU)
	run := func() {
		if _, err := e.Run(inputs, place, true); err != nil {
			t.Fatal(err)
		}
	}

	// Warm both substrates: arena free lists fill, weights pack, the worker
	// pool spins up. Only steady state is guarded.
	run()
	run()
	withArena := testing.AllocsPerRun(5, run)

	e.arena = nil
	run()
	withoutArena := testing.AllocsPerRun(5, run)
	e.arena = tensor.NewArena()

	if withoutArena == 0 {
		t.Fatal("baseline run reports zero allocations; guard is measuring nothing")
	}
	if withArena > withoutArena/2 {
		t.Fatalf("warm run allocates %.0f objects with the arena, want ≤ half of the %.0f without it",
			withArena, withoutArena)
	}
}

// TestArenaSurvivesGC holds the arena to keeping its buffers through
// collections: after two GCs a Run allocates no more bytes than a warm Run,
// where an arena the collector drains re-allocates every activation buffer.
// The kernels run serially: a pooled kernel's helpers draw scratch only when
// they join in time, so a warm run can still meet its first concurrent draw
// of a size and allocate it.
func TestArenaSurvivesGC(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)
	for _, ze := range zooEngines(t) {
		place := ze.places["cpu"]
		runBytes := func() uint64 {
			var m0, m1 goruntime.MemStats
			goruntime.ReadMemStats(&m0)
			if _, err := ze.e.Run(ze.inputs, place, true); err != nil {
				t.Fatal(err)
			}
			goruntime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		runBytes()
		warm := max(runBytes(), runBytes())
		goruntime.GC()
		goruntime.GC()
		if after := runBytes(); after > warm {
			t.Errorf("%s: a Run after two collections allocated %d bytes, a warm Run %d", ze.name, after, warm)
		}
	}
}

// TestArenaCutsSteadyStateAllocs is the allocation regression guard for the
// arena executor. Where allocations are per op — the chain case: fused
// elementwise-chain kernels, whose epilogue tapes draw emit buffers and
// scratch registers from the arena instead of the heap — a warm end-to-end Run
// must allocate at most half of what the same run costs with the arena
// disabled. The siamese case covers the GEMM-heavy recurrent zoo path, whose
// warm cost must not grow with the sequence. Both run under `make check`, so
// a change that silently stops recycling activation buffers fails the gate
// rather than just showing up in benchmarks.
func TestArenaCutsSteadyStateAllocs(t *testing.T) {
	t.Run("siamese", func(t *testing.T) {
		// The recurrent layers run as one sequence kernel whose time loop
		// allocates nothing with or without an arena, so "half of the
		// no-arena count" no longer describes this model. What the arena
		// owes it: a warm Run costs the same few objects whatever the
		// sequence length — no per-step buffer, header or closure — and
		// the run's buffers do come back (Recycled advances).
		warm := func(seqLen int) (allocs float64, recycled int64) {
			cfg := models.SiameseConfig{
				Batch: 1, SeqLen: seqLen, Vocab: 500, EmbedDim: 64,
				Hidden: 96, Layers: 2, ProjDim: 48, Seed: 11,
			}
			g, err := models.Siamese(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := compiler.InferShapes(g); err != nil {
				t.Fatal(err)
			}
			p, err := partition.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(t, p, 0)
			inputs := workload.SiameseInputs(cfg, 7)
			place := Uniform(e.NumSubgraphs(), device.CPU)
			run := func() {
				if _, err := e.Run(inputs, place, true); err != nil {
					t.Fatal(err)
				}
			}
			run()
			run()
			before := e.Arena().Stats().Recycled
			allocs = testing.AllocsPerRun(5, run)
			return allocs, e.Arena().Stats().Recycled - before
		}
		short, recycled := warm(32)
		long, _ := warm(64)
		t.Logf("warm Run: %.0f objects at T=32, %.0f at T=64, %d buffers recycled", short, long, recycled)
		if short != long {
			t.Fatalf("warm run allocates %.0f objects at SeqLen 32 but %.0f at SeqLen 64: something allocates per step", short, long)
		}
		if recycled == 0 {
			t.Fatal("the arena recycled no buffer over six warm runs")
		}
	})

	t.Run("conv_bn_add_relu", func(t *testing.T) {
		// A ResNet basic block's tail: the batch-norm leads a fused
		// [batchnorm2d add relu] group and streams the tape sub-chunk by
		// sub-chunk. Nothing in that stream — nor in the convolution or
		// the arena — allocates per plane or per sub-chunk, so a warm Run
		// costs the same few objects at 32² as at 64² (4× the planes'
		// elements, 4× the sub-chunks).
		warm := func(hw int) float64 {
			const c = 8
			rng := rand.New(rand.NewSource(5))
			g := graph.New("conv-bn-add-relu")
			x := g.AddInput("x", 1, c, hw, hw)
			w := g.AddConst("w", tensor.Rand(rng, 0.2, c, c, 3, 3))
			conv := g.Add("conv2d", "conv", graph.Attrs{"stride": 1, "pad": 1}, x, w)
			variance := tensor.Rand(rng, 1, c)
			for i, v := range variance.Data() {
				variance.Data()[i] = v*v + 0.5
			}
			bn := g.Add("batchnorm2d", "bn", graph.Attrs{"eps_micro": 10}, conv,
				g.AddConst("gamma", tensor.Rand(rng, 1, c)), g.AddConst("beta", tensor.Rand(rng, 1, c)),
				g.AddConst("mean", tensor.Rand(rng, 1, c)), g.AddConst("var", variance))
			sum := g.Add("add", "res", nil, bn, x)
			g.SetOutputs(g.Add("relu", "act", nil, sum))
			if err := compiler.InferShapes(g); err != nil {
				t.Fatal(err)
			}
			p, err := partition.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(t, p, 0)
			streamed := false
			for i := 0; i < e.NumSubgraphs(); i++ {
				m := e.Module(i)
				for _, k := range m.Kernels {
					streamed = streamed || k.Fused != nil && m.Graph.Node(k.Fused.Lead).Op == "batchnorm2d"
				}
			}
			if !streamed {
				t.Fatal("no fused group is led by the batch-norm; the case is not exercising the streamed lead")
			}
			inputs := map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, c, hw, hw)}
			place := Uniform(e.NumSubgraphs(), device.CPU)
			run := func() {
				if _, err := e.Run(inputs, place, true); err != nil {
					t.Fatal(err)
				}
			}
			run()
			run()
			return testing.AllocsPerRun(5, run)
		}
		small, large := warm(32), warm(64)
		t.Logf("warm Run: %.0f objects at 32², %.0f at 64²", small, large)
		if small != large {
			t.Fatalf("warm run allocates %.0f objects at 32² but %.0f at 64²: something allocates per plane or per sub-chunk", small, large)
		}
	})

	t.Run("parallel_recycles_like_run", func(t *testing.T) {
		// RunParallel's workers return each cross-subgraph intermediate
		// once its last consumer has finished, as Run's executor does — it
		// once left every boundary tensor to the GC. Same count whichever
		// lanes the subgraphs run on, and never a buffer the caller holds:
		// with everything the arena holds overwritten by NaN after the
		// run, the outputs still equal Run's.
		p, inputs := branchy(t)
		e := newEngine(t, p, 0)
		recycled := func(run func() (*Result, error)) (*Result, int64) {
			before := e.Arena().Stats().Recycled
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			return res, e.Arena().Stats().Recycled - before
		}
		for _, place := range []Placement{
			Uniform(e.NumSubgraphs(), device.CPU),
			{device.CPU, device.GPU, device.CPU},
		} {
			run := func() (*Result, error) { return e.Run(inputs, place, true) }
			parallel := func() (*Result, error) { return e.RunParallel(inputs, place) }
			recycled(run) // warm
			recycled(parallel)
			_, plain := recycled(run)
			par, got := recycled(parallel)
			if plain == 0 || got != plain {
				t.Fatalf("placement %s: RunParallel recycled %d buffers, Run %d", place, got, plain)
			}
			poisonArena(e.Arena())
			want, _ := recycled(run)
			for oi := range want.Outputs {
				if !tensor.AllClose(par.Outputs[oi], want.Outputs[oi], 0, 0) {
					t.Fatalf("placement %s: output %d of RunParallel changed after the arena's buffers were overwritten: it aliases a recycled buffer", place, oi)
				}
			}
		}
	})

	t.Run("elementwise_chain", func(t *testing.T) {
		// A chain-heavy graph with residual forks: unconstrained fusion
		// lowers it to tape launches whose emitted intermediates must
		// come from (and return to) the arena for the warm run to stay
		// allocation-free.
		rng := rand.New(rand.NewSource(3))
		g := graph.New("chain-heavy")
		x := g.AddInput("x", 1, 64)
		row := g.AddConst("row", tensor.Rand(rng, 1, 64))
		cur := x
		for i := 0; i < 6; i++ {
			act := g.Add("relu", fmt.Sprintf("c%d.act", i), nil, cur)
			scaled := g.Add("mul", fmt.Sprintf("c%d.scaled", i), nil, act, row)
			cur = g.Add("add", fmt.Sprintf("c%d.res", i), nil, scaled, cur)
		}
		g.SetOutputs(cur)
		if err := compiler.InferShapes(g); err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, p, 0)
		fused := 0
		for i := 0; i < e.NumSubgraphs(); i++ {
			fused += e.Module(i).FusionStats().Groups
		}
		if fused == 0 {
			t.Fatal("chain-heavy graph compiled with no fused groups; the case is not exercising the tape path")
		}
		inputs := map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, 64)}
		assertArenaCutsAllocs(t, e, inputs)
	})
}

// TestMTDNNWarmRunPacksNothing is the engine-level guard for the packed
// weight panels: the full MT-DNN carries 82 MB of them — more than the
// 64 MiB cache that used to hold them, which therefore re-packed the whole
// weight set (86 MB of fresh heap) on every inference. A warm Run must read
// the panels the first run left on the weights: the engine's panel bytes do
// not move, and only the run's few non-arena objects reach the heap (a
// re-pack would allocate the panels afresh).
func TestMTDNNWarmRunPacksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size MT-DNN")
	}
	if raceEnabled {
		t.Skip("builds the full-size MT-DNN, too slow and memory-hungry under the race detector")
	}
	cfg := models.DefaultMTDNN()
	g, err := models.MTDNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, p, 0)
	inputs := workload.MTDNNInputs(cfg, 7)
	place := Uniform(e.NumSubgraphs(), device.CPU)
	run := func() {
		if _, err := e.Run(inputs, place, true); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	var m0, m1 goruntime.MemStats
	p0 := e.PanelBytes()
	goruntime.ReadMemStats(&m0)
	run()
	goruntime.ReadMemStats(&m1)
	p1 := e.PanelBytes()
	allocMB := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("warm Run: %.1f MB allocated, %.1f MB of panels on the engine's weights", allocMB, float64(p1)/(1<<20))
	if p0 == 0 || p1 != p0 {
		t.Fatalf("engine's panels went from %d to %d bytes over a warm run, want the cold runs' panels unchanged", p0, p1)
	}
	if allocMB >= 5 {
		t.Fatalf("warm run allocated %.1f MB, want < 5", allocMB)
	}
}
