// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkXXX corresponds to one artifact (see DESIGN.md §5); the op
// being measured is one end-to-end virtual-clock inference (or one schedule
// search / profile pass), and the custom metric virt-ms/op reports the
// modelled latency the paper's plots show. `go run ./cmd/duet-bench`
// renders the full tables.
package duet_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"duet"
	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/experiments"
	"duet/internal/graph"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/vclock"
)

// buildEngine constructs a DUET engine with reduced profiling for bench
// setup speed (timing results are unaffected: profiling is offline).
func buildEngine(b *testing.B, g *graph.Graph, err error) *core.Engine {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(42)
	cfg.ProfileRuns = 10
	e, err := core.Build(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// measureLoop runs b.N timing-only inferences under place and reports the
// mean virtual latency.
func measureLoop(b *testing.B, e *core.Engine, place runtime.Placement) {
	b.Helper()
	b.ResetTimer()
	var total vclock.Seconds
	for i := 0; i < b.N; i++ {
		res, err := e.Runtime.Run(nil, place, false)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Latency
	}
	b.ReportMetric(total/float64(b.N)*1e3, "virt-ms/op")
}

// uniformOf returns a uniform placement sized for the engine.
func uniformOf(e *core.Engine, k device.Kind) runtime.Placement {
	return runtime.Uniform(e.Runtime.NumSubgraphs(), k)
}

// BenchmarkFig04Timeline regenerates Fig. 4: one Wide&Deep execution
// producing the full per-device timeline.
func BenchmarkFig04Timeline(b *testing.B) {
	g, err := duet.WideDeep(duet.DefaultWideDeep())
	e := buildEngine(b, g, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Runtime.Run(nil, e.Placement, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Timeline) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// BenchmarkFig05Communication regenerates Fig. 5: CPU↔GPU bulk transfers
// across the message-size sweep.
func BenchmarkFig05Communication(b *testing.B) {
	for size := 1 << 10; size <= 16<<20; size <<= 4 {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			plat := device.NewPlatform(42)
			var total vclock.Seconds
			for i := 0; i < b.N; i++ {
				total += plat.Link.SampleTransferTime(size)
			}
			b.ReportMetric(total/float64(b.N)*1e3, "virt-ms/op")
		})
	}
}

// BenchmarkFig11EndToEnd regenerates Fig. 11: end-to-end latency of TVM-CPU,
// TVM-GPU and DUET on the three heterogeneous models.
func BenchmarkFig11EndToEnd(b *testing.B) {
	models := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"WideDeep", func() (*graph.Graph, error) { return duet.WideDeep(duet.DefaultWideDeep()) }},
		{"Siamese", func() (*graph.Graph, error) { return duet.Siamese(duet.DefaultSiamese()) }},
		{"MTDNN", func() (*graph.Graph, error) { return duet.MTDNN(duet.DefaultMTDNN()) }},
	}
	for _, m := range models {
		g, err := m.build()
		e := buildEngine(b, g, err)
		b.Run(m.name+"/TVM-CPU", func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.CPU)) })
		b.Run(m.name+"/TVM-GPU", func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.GPU)) })
		b.Run(m.name+"/DUET", func(b *testing.B) { measureLoop(b, e, e.Placement) })
	}
}

// BenchmarkTab02Profile regenerates Table II: one compiler-aware profiling
// pass over every Wide&Deep subgraph on both devices.
func BenchmarkTab02Profile(b *testing.B) {
	g, err := duet.WideDeep(duet.DefaultWideDeep())
	e := buildEngine(b, g, err)
	prof := &profile.Profiler{Platform: device.NewPlatform(0), Options: duet.DefaultConfig(0).Compiler, Runs: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.ProfileAll(e.Graph, e.Partition.Subgraphs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12TailLatency regenerates Fig. 12: noisy latency sampling of
// TVM-GPU vs DUET on Wide&Deep (tails come from the same samples).
func BenchmarkFig12TailLatency(b *testing.B) {
	g, err := duet.WideDeep(duet.DefaultWideDeep())
	e := buildEngine(b, g, err)
	b.Run("TVM-GPU", func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.GPU)) })
	b.Run("DUET", func(b *testing.B) { measureLoop(b, e, e.Placement) })
}

// BenchmarkFig13Schedulers regenerates Fig. 13: one schedule search per
// iteration for each algorithm.
func BenchmarkFig13Schedulers(b *testing.B) {
	g, err := duet.WideDeep(duet.DefaultWideDeep())
	e := buildEngine(b, g, err)
	s := e.Scheduler
	b.Run("Random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := s.Measure(s.Random(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RoundRobin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Measure(s.RoundRobin()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RandomCorrection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.RandomCorrection(rand.New(rand.NewSource(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GreedyCorrection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.GreedyCorrection(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Ideal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Ideal(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepBench benches DUET vs TVM-GPU for each point of a Fig. 14-17 sweep.
func sweepBench(b *testing.B, xs []int, label string, vary func(duet.WideDeepConfig, int) duet.WideDeepConfig) {
	for _, x := range xs {
		cfg := vary(duet.DefaultWideDeep(), x)
		g, err := duet.WideDeep(cfg)
		e := buildEngine(b, g, err)
		b.Run(fmt.Sprintf("%s=%d/DUET", label, x), func(b *testing.B) { measureLoop(b, e, e.Placement) })
		b.Run(fmt.Sprintf("%s=%d/TVM-GPU", label, x), func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.GPU)) })
	}
}

// BenchmarkFig14RNNLayers regenerates Fig. 14 (stacked RNN depth sweep).
func BenchmarkFig14RNNLayers(b *testing.B) {
	sweepBench(b, []int{1, 2, 4, 8}, "layers", func(c duet.WideDeepConfig, x int) duet.WideDeepConfig {
		c.RNNLayers = x
		return c
	})
}

// BenchmarkFig15CNNDepth regenerates Fig. 15 (ResNet depth sweep).
func BenchmarkFig15CNNDepth(b *testing.B) {
	sweepBench(b, []int{18, 34, 50, 101}, "depth", func(c duet.WideDeepConfig, x int) duet.WideDeepConfig {
		c.CNNDepth = x
		return c
	})
}

// BenchmarkFig16FFNDepth regenerates Fig. 16 (FFN hidden-layer sweep).
func BenchmarkFig16FFNDepth(b *testing.B) {
	sweepBench(b, []int{1, 2, 4, 8}, "hidden", func(c duet.WideDeepConfig, x int) duet.WideDeepConfig {
		c.FFNHidden = x
		return c
	})
}

// BenchmarkFig17BatchSize regenerates Fig. 17 (batch-size sweep).
func BenchmarkFig17BatchSize(b *testing.B) {
	sweepBench(b, []int{2, 4, 8, 16, 32}, "batch", func(c duet.WideDeepConfig, x int) duet.WideDeepConfig {
		c.Batch = x
		return c
	})
}

// BenchmarkTab03ResNetFallback regenerates Table III: DUET vs TVM-GPU on a
// traditional sequential model.
func BenchmarkTab03ResNetFallback(b *testing.B) {
	g, err := duet.ResNet(duet.DefaultResNet(50))
	e := buildEngine(b, g, err)
	b.Run("DUET", func(b *testing.B) { measureLoop(b, e, e.Placement) })
	b.Run("TVM-GPU", func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.GPU)) })
	b.Run("TVM-CPU", func(b *testing.B) { measureLoop(b, e, uniformOf(e, device.CPU)) })
}

// BenchmarkTab01ModelBuild measures zoo graph construction (Table I's
// models) — the compiler front-end cost.
func BenchmarkTab01ModelBuild(b *testing.B) {
	b.Run("WideDeep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := duet.WideDeep(duet.DefaultWideDeep()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Siamese", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := duet.Siamese(duet.DefaultSiamese()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MTDNN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := duet.MTDNN(duet.DefaultMTDNN()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentHarness smoke-runs the full experiment drivers at
// reduced scale — the end-to-end regeneration path of cmd/duet-bench.
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := experiments.Quick()
	for _, id := range []string{"fig5", "tab1"} {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("missing experiment %s", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
