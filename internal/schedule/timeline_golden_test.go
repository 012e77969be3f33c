package schedule

import (
	"fmt"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/golden"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
)

// zooPredictor is one zoo model with a noiseless engine, profile records
// built from the engine's own noiseless kernel sums (so predictor and
// engine price every subgraph identically), and the four golden placements.
type zooPredictor struct {
	name   string
	eng    *runtime.Engine
	pred   *Predictor
	places map[string]runtime.Placement
}

func zooPredictors(t *testing.T) []zooPredictor {
	t.Helper()
	chosen := golden.Open(t, "../runtime/testdata/zoo_build.json")
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	var out []zooPredictor
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
		recs := make([]profile.Record, n)
		noiseless := eng.Sampler(eng.Platform, true)
		for i := range recs {
			recs[i].Index = i
			for _, kind := range []device.Kind{device.CPU, device.GPU} {
				recs[i].Time[kind], _ = noiseless.Kernels(i, int(kind), 0)
			}
		}
		pred, err := NewPredictor(p, recs, device.NewPCIe())
		if err != nil {
			t.Fatal(err)
		}
		zp := zooPredictor{name: c.Name, eng: eng, pred: pred,
			places: map[string]runtime.Placement{
				"cpu": runtime.Uniform(n, device.CPU), "gpu": runtime.Uniform(n, device.GPU),
				"chosen":      parsePlacement(t, chosen.Get(c.Name+"/chosen")),
				"alternating": make(runtime.Placement, n),
			}}
		for i := range zp.places["alternating"] {
			zp.places["alternating"][i] = device.Kind(i % 2)
		}
		out = append(out, zp)
	}
	return out
}

// TestPredictorGolden holds Predictor.Cost to the numbers recorded from its
// private value-indexed loop before the shared walker replaced it, and to
// the noiseless engine: fed records that are the engine's own kernel sums,
// the predictor and Engine.Run are the same walk with the same prices, so
// they agree with ==, not within a tolerance.
func TestPredictorGolden(t *testing.T) {
	g := golden.Open(t, "../runtime/testdata/timeline_schedule.json")
	for _, zp := range zooPredictors(t) {
		for name, place := range zp.places {
			cost := zp.pred.Cost(place)
			g.Check(fmt.Sprintf("%s/%s/predictor", zp.name, name), golden.Floats(cost))
			res, err := zp.eng.Run(nil, place, false)
			if err != nil {
				t.Fatal(err)
			}
			if cost != res.Latency {
				t.Errorf("%s/%s: Predictor.Cost %x != noiseless Run %x", zp.name, name, cost, res.Latency)
			}
		}
	}
}

// TestOracleAllocsConstant pins the cost of the two latency oracles the
// search leans on: Predictor.Cost allocates nothing, and the measured oracle
// (EngineMeasure → MeasureLatency) allocates the same few objects whether
// the model has one subgraph (VGG-16) or 46 (GoogLeNet) — no spans, labels
// or per-walk maps.
func TestOracleAllocsConstant(t *testing.T) {
	measured := map[string]float64{}
	for _, zp := range zooPredictors(t) {
		place := zp.places["alternating"]
		if n := testing.AllocsPerRun(20, func() { zp.pred.Cost(place) }); n != 0 {
			t.Errorf("%s: Predictor.Cost allocates %.0f objects, want 0", zp.name, n)
		}
		measure := EngineMeasure(zp.eng, 3)
		measured[zp.name] = testing.AllocsPerRun(20, func() {
			if _, err := measure(place); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, n := range measured {
		if n != measured["vgg16"] || n > 8 {
			t.Errorf("%s: EngineMeasure allocates %.0f objects, vgg16 %.0f; want equal and at most 8", name, n, measured["vgg16"])
		}
	}
}
