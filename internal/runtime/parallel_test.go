package runtime

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/queue"
	"duet/internal/tensor"
)

func TestRunParallelMatchesSerialValues(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	n := e.NumSubgraphs()
	for mask := 0; mask < 1<<n; mask++ {
		place := make(Placement, n)
		for i := range place {
			if mask&(1<<i) != 0 {
				place[i] = device.GPU
			}
		}
		serial, err := e.Run(inputs, place, true)
		if err != nil {
			t.Fatal(err)
		}
		par, err := e.RunParallel(inputs, place)
		if err != nil {
			t.Fatalf("placement %s: %v", place, err)
		}
		if !tensor.AllClose(par.Outputs[0], serial.Outputs[0], 0, 0) {
			t.Fatalf("placement %s: parallel execution changed values", place)
		}
		if par.Latency <= 0 || len(par.Timeline) == 0 {
			t.Fatalf("missing timing data")
		}
	}
}

func TestRunParallelRepeatedRunsDeterministic(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	place := Placement{device.CPU, device.GPU, device.CPU}
	a, err := e.RunParallel(inputs, place)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := e.RunParallel(inputs, place)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(a.Outputs[0], b.Outputs[0], 0, 0) {
			t.Fatalf("trial %d: outputs vary across parallel runs", trial)
		}
	}
}

func TestRunParallelMissingInput(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	_, err := e.RunParallel(map[string]*tensor.Tensor{}, Uniform(e.NumSubgraphs(), device.CPU))
	if err == nil {
		t.Fatalf("expected missing-input error")
	}
}

func TestRunParallelBadShape(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	bad := map[string]*tensor.Tensor{"xa": tensor.New(2, 1024), "xb": inputs["xb"]}
	if _, err := e.RunParallel(bad, Uniform(e.NumSubgraphs(), device.CPU)); err == nil {
		t.Fatalf("expected shape error")
	}
}

// zooEngineNamed returns the shared small-zoo engine of one model.
func zooEngineNamed(t testing.TB, name string) zooEngine {
	t.Helper()
	for _, ze := range zooEngines(t) {
		if ze.name == name {
			return ze
		}
	}
	t.Fatalf("no zoo model %q", name)
	return zooEngine{}
}

// spinCeiling is above any spin bound queue.PopWait could sensibly have (its
// unexported constant is 1024; the queue's own tests hold it to that exactly)
// and orders of magnitude below what an idle lane polled before it parked:
// one empty poll per Gosched for the whole run, 10⁴–10⁶ for the small zoo.
const spinCeiling = 4096

// TestRunParallelIdleLaneParks: with every subgraph on one device the other
// lane has nothing to do for the whole run. It must poll a bounded number
// of times per wait and then sleep — not poll until the run ends — and the
// outputs must still be Run's. Two Ps keep both lanes running side by side:
// on one, the busy lane can finish the run before the idle worker ever
// reaches its wait.
func TestRunParallelIdleLaneParks(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	ze := zooEngineNamed(t, "widedeep")
	for busy, idle := range map[device.Kind]device.Kind{device.CPU: device.GPU, device.GPU: device.CPU} {
		place := Uniform(ze.e.NumSubgraphs(), busy)
		serial, err := ze.e.Run(ze.inputs, place, true)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 5; run++ {
			par, lanes, err := ze.e.runParallel(ze.inputs, place)
			if err != nil {
				t.Fatal(err)
			}
			for oi := range serial.Outputs {
				if !tensor.AllClose(par.Outputs[oi], serial.Outputs[oi], 0, 0) {
					t.Fatalf("all-%s: output %d differs from Run's", busy, oi)
				}
			}
			st := lanes[idle]
			if st.Parks == 0 {
				t.Fatalf("all-%s run %d: the idle %s lane never parked: %+v", busy, run, idle, st)
			}
			if limit := uint64(spinCeiling) * (st.Parks + 1); st.EmptyPolls > limit {
				t.Fatalf("all-%s run %d: idle %s lane made %d empty polls over %d parks, want ≤ %d",
					busy, run, idle, st.EmptyPolls, st.Parks, limit)
			}
		}
	}
}

// TestRunParallelErrorDrainsWithLaneParked: a module failing in the middle
// of the dataflow, while the other lane is asleep, must neither hang the run
// nor lose the error — dependents still fire on placeholders, both workers
// are woken by Close and exit, and the failure is what RunParallel returns.
func TestRunParallelErrorDrainsWithLaneParked(t *testing.T) {
	ze := zooEngineNamed(t, "resnet18")
	e := ze.e
	mid := -1
	for i := range e.modules {
		if e.Skeleton.Pending[i] > 0 && len(e.Skeleton.Dependents[i]) > 0 {
			mid = i
			break
		}
	}
	if mid < 0 {
		t.Fatal("resnet18 has no subgraph with both a producer and a dependent")
	}
	// A module whose only placeholder nothing binds: ExecuteArena fails on
	// the missing input.
	g := graph.New("failing")
	g.SetOutputs(g.Add("relu", "r", nil, g.AddInput("never.bound", 1, 4)))
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	failing, err := compiler.Compile(g, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := e.modules[mid]
	e.modules[mid] = failing
	defer func() { e.modules[mid] = good }()

	place := Uniform(e.NumSubgraphs(), device.CPU)
	type outcome struct {
		lanes []queue.Stats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		_, lanes, err := e.runParallel(ze.inputs, place)
		done <- outcome{lanes, err}
	}()
	select {
	case o := <-done:
		if o.err == nil || !strings.Contains(o.err.Error(), e.subgraphs[mid].Graph.Name) {
			t.Fatalf("error = %v, want the failure of %s", o.err, e.subgraphs[mid].Graph.Name)
		}
		if o.lanes[device.GPU].Parks == 0 {
			t.Fatalf("the idle lane never parked: %+v", o.lanes[device.GPU])
		}
	case <-time.After(time.Minute):
		t.Fatal("RunParallel hung on a failing module")
	}

	e.modules[mid] = good
	if _, err := e.RunParallel(ze.inputs, place); err != nil {
		t.Fatalf("engine unusable after a failed run: %v", err)
	}
}
