package schedule

import (
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/runtime"
)

// TestOracleAllocsConstant pins the cost of the latency oracle greedy
// correction leans on: the measured oracle (EngineMeasure → MeasureLatency)
// allocates the same few objects whether the model has one subgraph
// (VGG-16) or 46 (GoogLeNet) — no spans, labels or per-walk maps.
func TestOracleAllocsConstant(t *testing.T) {
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{}
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
		place := make(runtime.Placement, eng.NumSubgraphs())
		for i := range place {
			place[i] = device.Kind(i % 2)
		}
		measure := EngineMeasure(eng, 3)
		measured[c.Name] = testing.AllocsPerRun(20, func() {
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
