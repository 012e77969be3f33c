package runtime

import (
	"fmt"
	"sync"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/golden"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/tensor"
)

// zooEngine is one zoo model compiled into an engine, with the four
// placements every timeline golden row is recorded under.
type zooEngine struct {
	name   string
	e      *Engine
	inputs map[string]*tensor.Tensor
	places map[string]Placement
}

// goldenSeeds are the platform seeds of the timeline goldens: noiseless and
// noisy.
var goldenSeeds = []int64{0, 7}

// zooEngines compiles the zoo once per test binary; tests reset e.Platform
// before every call they compare, so sharing the engines is safe.
func zooEngines(t testing.TB) []zooEngine {
	t.Helper()
	zooOnce.Do(func() { zooCache = buildZooEngines(t) })
	return zooCache
}

var (
	zooOnce  sync.Once
	zooCache []zooEngine
)

func buildZooEngines(t testing.TB) []zooEngine {
	t.Helper()
	chosen := golden.Open(t, "testdata/zoo_build.json")
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	var out []zooEngine
	for _, c := range zoo {
		if err := compiler.InferShapes(c.Graph); err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(c.Graph)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, p, 0)
		n := e.NumSubgraphs()
		ze := zooEngine{name: c.Name, e: e, inputs: c.Inputs, places: map[string]Placement{
			"cpu": Uniform(n, device.CPU), "gpu": Uniform(n, device.GPU),
			"chosen": make(Placement, n), "alternating": make(Placement, n),
		}}
		for i, ch := range chosen.Get(c.Name + "/chosen") {
			if ch == 'G' {
				ze.places["chosen"][i] = device.GPU
			}
			ze.places["alternating"][i] = device.Kind(i % 2)
		}
		out = append(out, ze)
	}
	return out
}

// TestTimelineGolden holds every serial timeline entry point of the engine
// to the virtual-clock numbers recorded from the six hand-written loops the
// walker replaced: 7 zoo models × {all-CPU, all-GPU, chosen, alternating} ×
// seeds {0, 7}, hex floats, compared with ==. Each call starts from a fresh
// platform so a row does not depend on the rows before it.
func TestTimelineGolden(t *testing.T) {
	g := golden.Open(t, "testdata/timeline_runtime.json")
	for _, ze := range zooEngines(t) {
		for _, seed := range goldenSeeds {
			for name, place := range ze.places {
				key := fmt.Sprintf("%s/%s/seed%d/", ze.name, name, seed)
				fresh := func() { ze.e.Platform = device.NewPlatform(seed) }

				fresh()
				res, err := ze.e.Run(nil, place, false)
				if err != nil {
					t.Fatal(err)
				}
				g.Check(key+"run", golden.Floats(res.Latency, float64(len(res.Timeline))))

				for _, requests := range []int{1, 5} {
					fresh()
					pr, err := ze.e.MeasurePipelined(place, requests)
					if err != nil {
						t.Fatal(err)
					}
					g.Check(fmt.Sprintf("%spipelined%d", key, requests), golden.Floats(pr.Makespan, pr.MeanLatency))
				}
			}
		}
	}
}
