package core

import (
	"fmt"
	"testing"

	"duet/internal/golden"
	"duet/internal/models"
)

// zooBuildGolden is shared with the timeline goldens of runtime and serve,
// which read each model's chosen placement from it.
const zooBuildGolden = "../runtime/testdata/zoo_build.json"

// TestZooBuildGolden pins what Build decides on the seven zoo models —
// greedy-correction placement and fallback verdict — to the values recorded
// before the search engine started sharing the noisy engine's compiled
// modules, and checks that the sharing is real.
func TestZooBuildGolden(t *testing.T) {
	g := golden.Open(t, zooBuildGolden)
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range zoo {
		cfg := DefaultConfig(7)
		cfg.ProfileRuns = 20
		e, err := Build(c.Graph, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		g.Check(c.Name+"/chosen", e.Placement.String())
		g.Check(c.Name+"/fell_back", fmt.Sprint(e.FellBack))

		for j := 0; j < e.Runtime.NumSubgraphs(); j++ {
			if e.Runtime.Module(j) != e.Search.Module(j) {
				t.Errorf("%s: subgraph %d compiled twice (search engine does not share the runtime engine's module)", c.Name, j)
			}
		}
		if e.Runtime.Arena() == e.Search.Arena() || e.Runtime.Platform == e.Search.Platform {
			t.Errorf("%s: search engine must keep its own arena and platform", c.Name)
		}
	}
}
