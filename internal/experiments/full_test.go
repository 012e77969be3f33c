package experiments

import (
	"strings"
	"testing"

	"duet/internal/golden"
)

// TestFullReproduction pins the paper reproduction: every registered
// experiment at Default() scale, in registry order, as cmd/duet-bench prints
// it, byte for byte against experiments_full.txt at the repo root, which
// EXPERIMENTS.md quotes. Every number is virtual-clock model output, a fixed
// function of (code, seed). A change meant to move one rewrites the file
// with an unfiltered -update run and names the tables that moved.
func TestFullReproduction(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("paper scale takes ~15 s; the plain run pins it")
	}
	var out strings.Builder
	for _, e := range All() {
		if err := e.Run(Default(), &out); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	golden.Text(t, "../../experiments_full.txt", out.String())
}
