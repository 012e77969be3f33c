package serve

import (
	"fmt"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/golden"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/runtime"
)

// zooBatchEngines compiles every zoo model and wraps it as a batch engine
// under each of the four golden placements (all-CPU, all-GPU, the chosen
// placement recorded in zoo_build.json, alternating).
func zooBatchEngines(t *testing.T) map[string]*batchEngine {
	t.Helper()
	chosen := golden.Open(t, "../runtime/testdata/zoo_build.json")
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*batchEngine{}
	for _, c := range zoo {
		if err := compiler.InferShapes(c.Graph); err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(c.Graph)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := runtime.New(p, device.NewPlatform(0), compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := eng.NumSubgraphs()
		picked, alternating := make(runtime.Placement, n), make(runtime.Placement, n)
		for i, ch := range chosen.Get(c.Name + "/chosen") {
			if ch == 'G' {
				picked[i] = device.GPU
			}
			alternating[i] = device.Kind(i % 2)
		}
		for name, place := range map[string]runtime.Placement{
			"cpu": runtime.Uniform(n, device.CPU), "gpu": runtime.Uniform(n, device.GPU),
			"chosen": picked, "alternating": alternating,
		} {
			out[c.Name+"/"+name] = &batchEngine{eng: eng, place: place}
		}
	}
	return out
}

// TestServeTimelineGolden holds criticalPath and timeBatch to the numbers
// recorded from their hand-written loops before the shared walker replaced
// them, and criticalPath to Engine.Run with == (the engines here are
// noiseless). Each timeBatch row times two batches back to back on one replica —
// the second 100 µs after the first — so carried-over clocks (pipelined) and
// the reset to the dispatch instant (not pipelined) are both on record, from
// now = 0 and now > 0, noiseless and noisy.
func TestServeTimelineGolden(t *testing.T) {
	g := golden.Open(t, "../runtime/testdata/timeline_serve.json")
	for name, be := range zooBatchEngines(t) {
		g.Check(name+"/critical_path", golden.Floats(be.criticalPath()))
		// The admission estimate is the engine's own noiseless timeline.
		if res, err := be.eng.Run(nil, be.place, false); err != nil {
			t.Fatal(err)
		} else if cp := be.criticalPath(); cp != res.Latency {
			t.Errorf("%s: criticalPath %x != noiseless Run %x", name, cp, res.Latency)
		}
		for _, seed := range []int64{0, 7} {
			for _, pipelined := range []bool{false, true} {
				for _, now := range []float64{0, 1e-3} {
					r := newReplica(0, seed)
					b1, b2 := &batch{be: be}, &batch{be: be}
					r.timeBatch(b1, now, pipelined)
					r.timeBatch(b2, now+1e-4, pipelined)
					key := fmt.Sprintf("%s/seed%d/pipelined=%v/now=%g/time_batch", name, seed, pipelined, now)
					g.Check(key, golden.Floats(b1.finish, b2.finish, r.busy[device.CPU], r.busy[device.GPU]))
				}
			}
		}
	}
}
