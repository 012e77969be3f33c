package verify

import (
	"strings"
	"testing"
)

// TestCheckScheduleOrderErrorPaths exercises each failure mode of the serial
// start-order pass directly, independent of the All() negative fixtures.
func TestCheckScheduleOrderErrorPaths(t *testing.T) {
	t.Run("clean fixture has no findings", func(t *testing.T) {
		f := buildFixture(t)
		if fs := CheckScheduleOrder(f.p); len(fs) != 0 {
			t.Fatalf("unexpected findings: %v", fs)
		}
	})

	t.Run("duplicate producer", func(t *testing.T) {
		f := buildFixture(t)
		subs := f.p.Subgraphs()
		if len(subs) < 2 {
			t.Fatalf("fixture has %d subgraphs, need 2", len(subs))
		}
		// A second subgraph claims to publish the first one's output.
		subs[1].Outputs = append(subs[1].Outputs, subs[0].Outputs[0])
		fs := CheckScheduleOrder(f.p)
		if len(fs) == 0 || !strings.Contains(fs[0].Msg, "one producer") {
			t.Fatalf("duplicate publication must be reported, got %v", fs)
		}
	})

	t.Run("consumed but never published", func(t *testing.T) {
		f := buildFixture(t)
		subs := f.p.Subgraphs()
		// "wide.a" is an interior compute node: no subgraph publishes it and
		// it is not a graph input, so consuming it at a boundary is an error.
		interior := f.g.NodeByName("wide.a").ID
		last := subs[len(subs)-1]
		last.BoundaryInputs = append(last.BoundaryInputs, interior)
		fs := CheckScheduleOrder(f.p)
		found := false
		for _, fd := range fs {
			if strings.Contains(fd.Msg, "no subgraph publishes it") {
				found = true
			}
		}
		if !found {
			t.Fatalf("unpublished boundary consumption must be reported, got %v", fs)
		}
	})

	t.Run("consumer starts before producer", func(t *testing.T) {
		f := buildFixture(t)
		f.p.Phases[0].Subgraphs, f.p.Phases[1].Subgraphs =
			f.p.Phases[1].Subgraphs, f.p.Phases[0].Subgraphs
		fs := CheckScheduleOrder(f.p)
		if len(fs) == 0 {
			t.Fatal("forward dependency must be reported")
		}
		for _, fd := range fs {
			if !strings.Contains(fd.Msg, "start order must respect dependencies") {
				t.Errorf("unexpected finding %v", fd)
			}
		}
	})
}

// TestScheduleOrderDeadlock: the start-order pass also catches the two
// ways the sync queues can deadlock under the firing rule — a subgraph
// waiting on itself, and two subgraphs waiting on each other. Each cycle
// has an edge whose producer does not start earlier than its consumer.
func TestScheduleOrderDeadlock(t *testing.T) {
	t.Run("self loop", func(t *testing.T) {
		f := buildFixture(t)
		sub := f.p.Subgraphs()[0]
		sub.BoundaryInputs = append(sub.BoundaryInputs, sub.Outputs[0])
		fs := CheckScheduleOrder(f.p)
		if len(fs) != 1 || fs[0].Subgraph != 0 || !strings.Contains(fs[0].Msg, "start order") {
			t.Fatalf("self-loop must be reported once at subgraph 0, got %v", fs)
		}
	})

	t.Run("mutual wait", func(t *testing.T) {
		f := buildFixture(t)
		subs := f.p.Subgraphs()
		if len(subs) < 3 {
			t.Fatalf("fixture has %d subgraphs, need 3", len(subs))
		}
		// The two multi-path branches wait on each other's outputs: neither
		// can fire first. The edge into the earlier one is the one reported.
		subs[0].BoundaryInputs = append(subs[0].BoundaryInputs, subs[1].Outputs[0])
		subs[1].BoundaryInputs = append(subs[1].BoundaryInputs, subs[0].Outputs[0])
		fs := CheckScheduleOrder(f.p)
		if len(fs) != 1 || fs[0].Subgraph != 0 || !strings.Contains(fs[0].Msg, "start order") {
			t.Fatalf("mutual wait must be reported once at subgraph 0, got %v", fs)
		}
	})
}

// TestCheckHBPass exercises the happens-before verify pass at the artifact
// level: clean on the fixture (with one device lane empty — an idle device
// is legal), and a cycle finding when the phase order is inverted.
func TestCheckHBPass(t *testing.T) {
	t.Run("clean with an idle device lane", func(t *testing.T) {
		f := buildFixture(t) // places every subgraph on CPU: the GPU lane is empty
		if fs := CheckHB(f.p, f.place, f.modules); len(fs) != 0 {
			t.Fatalf("unexpected findings: %v", fs)
		}
	})

	t.Run("clean without modules", func(t *testing.T) {
		f := buildFixture(t)
		if fs := CheckHB(f.p, f.place, nil); len(fs) != 0 {
			t.Fatalf("engine-level degradation must stay clean: %v", fs)
		}
	})

	t.Run("inverted phases cycle", func(t *testing.T) {
		f := buildFixture(t)
		f.p.Phases[0].Subgraphs, f.p.Phases[1].Subgraphs =
			f.p.Phases[1].Subgraphs, f.p.Phases[0].Subgraphs
		fs := CheckHB(f.p, f.place, f.modules)
		if len(fs) == 0 {
			t.Fatal("inverted phase order must produce a happens-before finding")
		}
		cycle := false
		for _, fd := range fs {
			if fd.Pass == PassHBGraph && strings.Contains(fd.Msg, "deadlock") {
				cycle = true
			}
		}
		if !cycle {
			t.Fatalf("expected a deadlock cycle finding, got %v", fs)
		}
	})
}
