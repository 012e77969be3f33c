package hb_test

import (
	"fmt"
	"testing"

	"duet/internal/compiler"
	"duet/internal/graph"
	"duet/internal/hb"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/tensor"
)

// zooCases is the zoo at execution-friendly scale with concrete inputs, so
// the mutation suite replays real inference.
func zooCases(t *testing.T) []models.ZooCase {
	t.Helper()
	cases, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// compiled partitions and compiles one zoo case and derives a three-lane
// round-robin schedule — deliberately not the CPU/GPU pair, exercising the
// device-generic builder on real models.
type compiled struct {
	p     *partition.Partition
	subs  []*graph.Subgraph
	mods  []*compiler.Module
	sched hb.Sched
	plan  []hb.SyncEdge
}

func compileCase(t *testing.T, c models.ZooCase) compiled {
	t.Helper()
	if err := compiler.InferShapes(c.Graph); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	subs := p.Subgraphs()
	mods := make([]*compiler.Module, len(subs))
	for i, sub := range subs {
		if mods[i], err = compiler.Compile(sub.Graph, compiler.DefaultOptions()); err != nil {
			t.Fatalf("compiling subgraph %d: %v", i, err)
		}
	}
	sched := hb.Sched{
		Devices: []string{"lane0", "lane1", "lane2"},
		Order:   make([][]int, 3),
	}
	for i := range subs {
		sched.Order[i%3] = append(sched.Order[i%3], i)
	}
	return compiled{p: p, subs: subs, mods: mods, sched: sched, plan: hb.SyncPlan(p)}
}

// divergenceKey identifies one (consumer subgraph, boundary value) pair —
// the unit both the detector and the replay report in.
func divergenceKey(consumer int, value graph.NodeID) string {
	return fmt.Sprintf("sub%d/val:%d", consumer, value)
}

// TestZooMutationSharpness is the acceptance gate for the race detector: on
// every zoo model, the unmutated schedule must verify clean, and for every
// dropped sync edge the detector must report exactly the (consumer, value)
// pairs that an adversarially reordered runtime replay shows reading
// not-yet-produced buffers — 100% of real divergences flagged, zero false
// positives on drops that program order or transitive syncs make redundant.
func TestZooMutationSharpness(t *testing.T) {
	for _, c := range zooCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cc := compileCase(t, c)

			// Unmutated gate: no races, and a serial replay in flat order is
			// poison-free and bit-identical to whole-graph compilation.
			g0, err := hb.Build(cc.sched, cc.plan, hb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g0.Cyclic() {
				t.Fatalf("unmutated schedule must be acyclic: %s", g0.CycleLabels())
			}
			if races := hb.Detect(g0, hb.Accesses(cc.subs, c.Graph, cc.mods, g0)); len(races) != 0 {
				t.Fatalf("unmutated schedule must be race-free, got %d: %v", len(races), races[0])
			}
			serial := make([]int, len(cc.subs))
			for i := range serial {
				serial[i] = i
			}
			ref, err := hb.Replay(cc.subs, c.Graph, cc.mods, c.Inputs, serial)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.PoisonedReads) != 0 {
				t.Fatalf("serial replay must be poison-free, got %v", ref.PoisonedReads)
			}
			whole, err := compiler.Compile(c.Graph, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.Execute(c.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(ref.Outputs) {
				t.Fatalf("replay produced %d outputs, want %d", len(ref.Outputs), len(want))
			}
			for i := range want {
				if !tensor.AllClose(ref.Outputs[i], want[i], 0, 0) {
					t.Fatalf("replay output %d diverges from whole-graph compilation (max |Δ| %g)",
						i, tensor.MaxAbsDiff(ref.Outputs[i], want[i]))
				}
			}

			// Mutation sweep: drop each sync edge in turn.
			effective := 0
			for _, edge := range cc.plan {
				gm, err := hb.Build(cc.sched, hb.DropEdge(cc.plan, edge.From, edge.To), hb.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if gm.Cyclic() {
					t.Fatalf("dropping %s cannot create a cycle", edge)
				}

				detected := map[string]bool{}
				for _, r := range hb.Detect(gm, hb.Accesses(cc.subs, c.Graph, cc.mods, gm)) {
					if r.Kind != hb.RaceWriteRead {
						t.Fatalf("dropping %s: unexpected race kind %s: %v", edge, r.Kind, r)
					}
					consumer := gm.Events[r.B.Event].Sub
					if consumer != edge.To {
						t.Fatalf("dropping %s: race blames subgraph %d, not the edge's consumer: %v",
							edge, consumer, r)
					}
					detected[fmt.Sprintf("sub%d/%s", consumer, r.Buf)] = true
				}

				order, err := hb.AdversarialOrder(gm, edge.To)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := hb.Replay(cc.subs, c.Graph, cc.mods, c.Inputs, order)
				if err != nil {
					t.Fatal(err)
				}
				poisoned := map[string]bool{}
				for _, pr := range rep.PoisonedReads {
					poisoned[divergenceKey(pr.Consumer, pr.Value)] = true
				}

				for k := range poisoned {
					if !detected[k] {
						t.Errorf("dropping %s: replay diverges at %s but the detector is silent", edge, k)
					}
				}
				for k := range detected {
					if !poisoned[k] {
						t.Errorf("dropping %s: detector reports %s but the replay never diverges there", edge, k)
					}
				}
				if len(detected) > 0 {
					effective++
				}
			}
			// A Sequential model partitions into one chain subgraph with no
			// sync edges at all; only multi-subgraph plans must contain at
			// least one load-bearing edge for the sweep to prove sharpness.
			if len(cc.plan) > 0 && effective == 0 {
				t.Errorf("no dropped edge was load-bearing on %d sync edges — the mutation suite proved nothing",
					len(cc.plan))
			}
			if len(cc.plan) == 0 && len(cc.subs) > 1 {
				t.Errorf("%d subgraphs but an empty sync plan", len(cc.subs))
			}
			t.Logf("%d sync edges, %d load-bearing drops", len(cc.plan), effective)
		})
	}
}
