package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"duet/internal/golden"
	"duet/internal/models"
)

// zooBuildGolden is shared with the timeline goldens of runtime, serve and
// schedule, which read each model's chosen placement from it.
const zooBuildGolden = "../runtime/testdata/zoo_build.json"

// TestZooBuildGolden pins what Build decides on the seven zoo models —
// greedy-correction placement, fallback verdict, and the wide search's
// placement and trail — to the values recorded before the search engine
// started sharing the noisy engine's compiled modules, and checks that the
// sharing is real.
func TestZooBuildGolden(t *testing.T) {
	g := golden.Open(t, zooBuildGolden)
	// Build shape-infers its graph in place, so the search build gets its
	// own copy of the zoo.
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	searchZoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range zoo {
		cfg := DefaultConfig(7)
		cfg.ProfileRuns = 20
		e, err := Build(c.Graph, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		g.Check(c.Name+"/chosen", e.Placement.String())
		g.Check(c.Name+"/fell_back", fmt.Sprint(e.FellBack))

		cfg.SearchCorrection = true
		se, err := Build(searchZoo[i].Graph, cfg)
		if err != nil {
			t.Fatalf("%s (search): %v", c.Name, err)
		}
		trail, err := json.Marshal(se.SearchTrail)
		if err != nil {
			t.Fatal(err)
		}
		g.Check(c.Name+"/search_chosen", se.Placement.String())
		g.Check(c.Name+"/search_fell_back", fmt.Sprint(se.FellBack))
		g.Check(c.Name+"/search_trail", string(trail))

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
