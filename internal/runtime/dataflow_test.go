package runtime

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/hb"
	"duet/internal/obs"
	"duet/internal/tensor"
)

// driveDataflow fires d to completion from workers goroutines that pull from
// one shared ready set, each picking at random (streams drawn from seed), and
// holds every Fire to the sync plan: an index is reported ready exactly once
// and only after all its hb.SyncPlanSubgraphs producers were taken. It
// returns how many subgraphs fired and how many Fires reported last. A rule
// that loses a signal shows as a stall, not a hang.
func driveDataflow(t *testing.T, e *Engine, d *Dataflow, workers int, seed int64) (fired, lasts int) {
	t.Helper()
	n := e.NumSubgraphs()
	producers := make([][]int, n)
	for _, edge := range hb.SyncPlanSubgraphs(e.subgraphs) {
		producers[edge.To] = append(producers[edge.To], edge.From)
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    = append([]int(nil), e.Skeleton.Roots...)
		taken    = make([]bool, n)
		reported = make([]int, n)
		inflight int
		wg       sync.WaitGroup
	)
	for _, r := range ready {
		reported[r]++
	}
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for len(ready) == 0 && inflight > 0 {
					cond.Wait()
				}
				if len(ready) == 0 {
					return
				}
				k := rng.Intn(len(ready))
				i := ready[k]
				ready[k] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				taken[i] = true
				inflight++
				mu.Unlock()
				now, last := d.Fire(i)
				mu.Lock()
				for _, c := range now {
					reported[c]++
					for _, p := range producers[c] {
						if !taken[p] {
							t.Errorf("seed %d: subgraph %d reported ready before its producer %d fired", seed, c, p)
						}
					}
				}
				ready = append(ready, now...)
				if last {
					lasts++
				}
				fired++
				inflight--
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	for i, r := range reported {
		if r != 1 {
			t.Errorf("seed %d: subgraph %d became ready %d times, want once", seed, i, r)
		}
	}
	return fired, lasts
}

func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	for j, x := range a.Data() {
		if math.Float32bits(x) != math.Float32bits(b.Data()[j]) {
			return false
		}
	}
	return true
}

// TestDataflowLegalOrders is the dynamic side of verify.CheckHB's proof:
// whatever legal order and however many goroutines fire the subgraphs of a
// zoo model, the rule reports each dependent once and only after its
// producers, reports last once, returns exactly the buffers Run returns to
// the arena, and produces Run's outputs bit for bit — with every pooled
// buffer NaN before the execution (a kernel reading a recycled buffer it
// has not written computes NaN) and again after it (an output aliasing a
// recycled buffer turns NaN).
func TestDataflowLegalOrders(t *testing.T) {
	for _, ze := range zooEngines(t) {
		e := ze.e
		seeds := int64(51) // 17 per worker count
		if e.NumSubgraphs() == 1 {
			seeds = 3 // one legal order (vgg16): once per worker count
		}
		place := Uniform(e.NumSubgraphs(), device.CPU)
		want, err := e.Run(ze.inputs, place, true)
		if err != nil {
			t.Fatal(err)
		}
		before := e.Arena().Stats().Recycled
		if _, err := e.Run(ze.inputs, place, true); err != nil {
			t.Fatal(err)
		}
		runRecycled := e.Arena().Stats().Recycled - before

		for seed := int64(0); seed < seeds; seed++ {
			workers := []int{1, 2, 4}[seed%3]
			poisonArena(e.Arena())
			before := e.Arena().Stats().Recycled
			d, err := e.NewDataflow(ze.inputs, e.Arena())
			if err != nil {
				t.Fatal(err)
			}
			fired, lasts := driveDataflow(t, e, d, workers, seed)
			recycled := e.Arena().Stats().Recycled - before
			if fired != e.NumSubgraphs() || lasts != 1 {
				t.Fatalf("%s seed %d: %d of %d subgraphs fired, last reported %d times", ze.name, seed, fired, e.NumSubgraphs(), lasts)
			}
			if err := d.Err(); err != nil {
				t.Fatalf("%s seed %d: %v", ze.name, seed, err)
			}
			if recycled != runRecycled {
				t.Fatalf("%s seed %d (%d workers): recycled %d buffers, Run %d", ze.name, seed, workers, recycled, runRecycled)
			}
			got := d.Outputs()
			poisonArena(e.Arena())
			for oi := range want.Outputs {
				if !sameBits(got[oi], want.Outputs[oi]) {
					t.Fatalf("%s seed %d (%d workers): output %d differs from Run's", ze.name, seed, workers, oi)
				}
			}
		}
	}
}

// failingModule compiles a module whose only placeholder no subgraph binds:
// ExecuteArena fails on the missing input.
func failingModule(t *testing.T) *compiler.Module {
	t.Helper()
	g := graph.New("failing")
	g.SetOutputs(g.Add("relu", "r", nil, g.AddInput("never.bound", 1, 4)))
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m, err := compiler.Compile(g, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// breakModule swaps subgraph i's module for a failing one and returns the
// undo.
func breakModule(t *testing.T, e *Engine, i int) (restore func()) {
	t.Helper()
	good := e.modules[i]
	e.modules[i] = failingModule(t)
	return func() { e.modules[i] = good }
}

// middleSubgraph returns e's first subgraph with both a producer and a
// dependent.
func middleSubgraph(t *testing.T, e *Engine) int {
	t.Helper()
	for i := range e.modules {
		if e.Skeleton.Pending[i] > 0 && len(e.Skeleton.Dependents[i]) > 0 {
			return i
		}
	}
	t.Fatal("model has no subgraph with both a producer and a dependent")
	return 0
}

// TestDataflowErrorDrains: a module failing in the middle of the dataflow is
// what Err reports, every subgraph still fires on placeholders under
// concurrent callers, nothing stalls, and the engine serves the next run.
func TestDataflowErrorDrains(t *testing.T) {
	ze := zooEngineNamed(t, "resnet18")
	e := ze.e
	mid := middleSubgraph(t, e)
	restore := breakModule(t, e, mid)
	defer restore()
	name := e.subgraphs[mid].Graph.Name

	for _, workers := range []int{1, 2, 4} {
		d, err := e.NewDataflow(ze.inputs, e.Arena())
		if err != nil {
			t.Fatal(err)
		}
		fired, lasts := driveDataflow(t, e, d, workers, int64(workers))
		if fired != e.NumSubgraphs() || lasts != 1 {
			t.Fatalf("%d workers: %d of %d subgraphs fired, last reported %d times", workers, fired, e.NumSubgraphs(), lasts)
		}
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%d workers: Err = %v, want the failure of %s", workers, err, name)
		}
	}
	place := Uniform(e.NumSubgraphs(), device.CPU)
	if _, err := e.Run(ze.inputs, place, true); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Run error = %v, want the failure of %s", err, name)
	}
	restore()
	if _, err := e.Run(ze.inputs, place, true); err != nil {
		t.Fatalf("engine unusable after a failed execution: %v", err)
	}
}

// TestRunParallelCountsErrors: a RunParallel that fails — on its inputs before
// anything ran, or on a module mid-dataflow — is one run error and no run. It
// used to count the timing pass as a successful run first, and no error at
// all.
func TestRunParallelCountsErrors(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	place := Uniform(e.NumSubgraphs(), device.CPU)
	counts := func() (runs, errs int64) {
		s := reg.Snapshot()
		return s.Counters[`duet_runs_total{path="parallel"}`], s.Counters["duet_run_errors_total"]
	}
	if _, err := e.RunParallel(inputs, place); err != nil {
		t.Fatal(err)
	}
	if runs, errs := counts(); runs != 1 || errs != 0 {
		t.Fatalf("after one good run: runs %d, run_errors %d", runs, errs)
	}

	fails := func(name string, inputs map[string]*tensor.Tensor) {
		t.Helper()
		runs0, errs0 := counts()
		if _, err := e.RunParallel(inputs, place); err == nil {
			t.Fatalf("%s: RunParallel succeeded", name)
		}
		if runs, errs := counts(); runs != runs0 || errs != errs0+1 {
			t.Fatalf("%s: runs %d → %d, run_errors %d → %d; want unchanged and +1", name, runs0, runs, errs0, errs)
		}
	}
	fails("missing input", map[string]*tensor.Tensor{"xa": inputs["xa"]})
	fails("wrong shape", map[string]*tensor.Tensor{"xa": tensor.New(2, 1024), "xb": inputs["xb"]})
	defer breakModule(t, e, e.NumSubgraphs()-1)()
	fails("failing module", inputs)
}
