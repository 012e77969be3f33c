package serve

import (
	"sync"
	"testing"

	"duet/internal/compiler"
	"duet/internal/models"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// TestConcurrentExecuteArena is the replica model in miniature: two
// goroutines share one compiled module (and therefore its weights' packed
// panels) while drawing activations from separate arenas — two
// replicas — or from one — a replica's two in-flight pipelined batches. Run
// under -race -count=2 by `make check`, it pins down that module execution
// is data-race-free and that outputs stay bit-identical to a serial
// reference execution either way.
func TestConcurrentExecuteArena(t *testing.T) {
	for name, shared := range map[string]*tensor.Arena{"separate": nil, "shared": tensor.NewArena()} {
		t.Run(name, func(t *testing.T) { concurrentExecuteArena(t, shared) })
	}
}

func concurrentExecuteArena(t *testing.T, shared *tensor.Arena) {
	cfg := smallWideDeep()
	g, err := models.WideDeep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	mod, err := compiler.Compile(g, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.WideDeepInputs(cfg, 42)
	ref, err := mod.ExecuteArena(inputs, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := shared
			if ar == nil {
				ar = tensor.NewArena()
			}
			for it := 0; it < iters; it++ {
				outs, err := mod.ExecuteArena(inputs, ar)
				if err != nil {
					errs <- err
					return
				}
				for oi := range ref {
					if !tensor.ShapeEq(outs[oi].Shape(), ref[oi].Shape()) {
						t.Errorf("concurrent output %d shape %v, want %v", oi, outs[oi].Shape(), ref[oi].Shape())
						return
					}
					for j := range ref[oi].Data() {
						if outs[oi].Data()[j] != ref[oi].Data()[j] {
							t.Errorf("concurrent output %d differs at %d", oi, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeSmoke is the make-check gate for the serving layer: the full
// stack (micro-batching + pipelined cross-device execution) must beat a
// serial back-to-back Infer loop on throughput by a clear margin, while
// remaining bit-identical to it (checked by TestServeBatchedBitEqualToInfer).
func TestServeSmoke(t *testing.T) {
	e, cfg := testEngine(t)
	single, err := e.Measure(1)
	if err != nil {
		t.Fatal(err)
	}
	serialRate := 1 / single[0]

	srv, err := New(Config{
		Engine:     e,
		BatchGraph: batchGraph(cfg),
		MaxBatch:   8,
		Window:     2e-3,
		Pipelined:  true,
		QueueCap:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 16
	reqs := OpenLoop(LoadSpec{
		Requests: n,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	rep, _, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != n {
		t.Fatalf("smoke run dropped requests: %+v", rep)
	}
	if ratio := rep.Throughput / serialRate; ratio < 1.3 {
		t.Fatalf("serving stack %.1f req/s is only %.2f× the serial Infer loop (%.1f req/s), want ≥1.3×",
			rep.Throughput, ratio, serialRate)
	}
}
