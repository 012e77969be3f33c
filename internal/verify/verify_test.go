package verify

import (
	"strings"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// fixture bundles one valid engine-shaped artifact set: a Wide&Deep-style
// graph (multi-path phase between sequential boundaries), its partition,
// exact-accounting profile records, per-subgraph compiled modules, and a
// legal placement. Negative tests corrupt a copy and expect the named pass
// to fire.
type fixture struct {
	g       *graph.Graph
	p       *partition.Partition
	place   []device.Kind
	records []profile.Record
	modules []*compiler.Module
}

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	g := graph.New("verify-fixture")
	var tails []graph.NodeID
	for _, branch := range []string{"wide", "deep"} {
		in := g.AddInput(branch+".x", 1, 8)
		a := g.Add("relu", branch+".a", nil, in)
		b := g.Add("sigmoid", branch+".b", nil, a)
		c := g.Add("sigmoid", branch+".c", nil, b)
		tails = append(tails, c)
	}
	cat := g.Add("concat", "cat", graph.Attrs{"axis": 1}, tails...)
	w := g.AddConst("w", tensor.Ones(4, 16))
	head := g.Add("dense", "head", nil, cat, w)
	out := g.Add("softmax", "out", nil, head)
	g.SetOutputs(out)
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{g: g, p: p}
	for i, sub := range p.Subgraphs() {
		m, err := compiler.Compile(sub.Graph, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f.modules = append(f.modules, m)
		f.records = append(f.records, profile.Record{
			Index:    i,
			Time:     [2]vclock.Seconds{1e-4, 2e-4},
			InBytes:  sub.InputBytes(g),
			OutBytes: sub.OutputBytes(g),
			Kernels:  m.KernelCount(),
			Fused:    strings.Join(m.FusedKernelNames(), ","),
		})
		f.place = append(f.place, device.CPU)
	}
	return f
}

func (f *fixture) artifacts() Artifacts {
	return Artifacts{Graph: f.g, Partition: f.p, Placement: f.place, Records: f.records, Modules: f.modules}
}

func findingsFor(fs []Finding, pass string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Pass == pass {
			out = append(out, f)
		}
	}
	return out
}

func TestAllCleanFixture(t *testing.T) {
	f := buildFixture(t)
	if fs := All(f.artifacts()); len(fs) != 0 {
		t.Fatalf("clean fixture produced findings: %v", fs)
	}
}

// TestNegativeFixtures corrupts the fixture one invariant at a time and
// checks that exactly the responsible pass fires.
func TestNegativeFixtures(t *testing.T) {
	cases := []struct {
		name    string
		pass    string
		corrupt func(*testing.T, *fixture)
		// wantMsg, when non-empty, must appear in one of the pass's findings.
		wantMsg string
	}{
		{
			name: "graph/dangling-input",
			pass: PassGraph,
			corrupt: func(t *testing.T, f *fixture) {
				n := f.g.NodeByName("deep.b")
				n.Inputs[0] = graph.NodeID(f.g.Len() + 7)
			},
			wantMsg: "dangling input",
		},
		{
			name: "graph/forward-edge",
			pass: PassGraph,
			corrupt: func(t *testing.T, f *fixture) {
				a := f.g.NodeByName("wide.a")
				b := f.g.NodeByName("wide.b")
				a.Inputs[0] = b.ID // a cycle through construction-order violation
			},
			wantMsg: "does not precede",
		},
		{
			name: "graph/shape-mismatch",
			pass: PassGraph,
			corrupt: func(t *testing.T, f *fixture) {
				f.g.NodeByName("head").Shape = []int{3, 3, 3}
			},
			wantMsg: "independent inference",
		},
		{
			name: "graph/unknown-op",
			pass: PassGraph,
			corrupt: func(t *testing.T, f *fixture) {
				f.g.NodeByName("cat").Op = "frobnicate"
			},
			wantMsg: "unknown operator",
		},
		{
			name: "partition/uncovered-node",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				sub := f.p.Phases[0].Subgraphs[0]
				sub.Members = sub.Members[:len(sub.Members)-1]
			},
		},
		{
			name: "partition/double-coverage",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				a := f.p.Phases[0].Subgraphs[0]
				b := f.p.Phases[0].Subgraphs[1]
				b.Members = append([]graph.NodeID{a.Members[0]}, b.Members...)
			},
			wantMsg: "exactly-once",
		},
		{
			name: "partition/bad-boundary",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				last := lastPhaseSub(f.p)
				last.BoundaryInputs = last.BoundaryInputs[:len(last.BoundaryInputs)-1]
			},
			wantMsg: "boundary inputs",
		},
		{
			name: "partition/bad-outputs",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				sub := f.p.Phases[0].Subgraphs[0]
				sub.Outputs = append(sub.Outputs, sub.Members[0])
			},
			wantMsg: "outputs",
		},
		{
			name: "partition/phase-order",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				f.p.Phases[0].Index = 5
			},
			wantMsg: "total order",
		},
		{
			name: "partition/dependent-multipath",
			pass: PassPartition,
			corrupt: func(t *testing.T, f *fixture) {
				// Declare two dependent subgraphs parallel by moving a later
				// sequential subgraph into the multi-path phase.
				mp := multiPathPhase(t, f.p)
				var seqIdx int
				for i, ph := range f.p.Phases {
					if ph.Kind != partition.MultiPath && i > mp {
						seqIdx = i
						break
					}
				}
				moved := f.p.Phases[seqIdx].Subgraphs[0]
				f.p.Phases[mp].Subgraphs = append(f.p.Phases[mp].Subgraphs, moved)
				f.p.Phases[seqIdx].Subgraphs = f.p.Phases[seqIdx].Subgraphs[1:]
			},
			wantMsg: "dependent",
		},
		{
			name: "profiles/in-bytes",
			pass: PassProfiles,
			corrupt: func(t *testing.T, f *fixture) {
				f.records[0].InBytes += 4
			},
			wantMsg: "boundary accounting",
		},
		{
			name: "profiles/negative-time",
			pass: PassProfiles,
			corrupt: func(t *testing.T, f *fixture) {
				f.records[1].Time[device.GPU] = -1
			},
			wantMsg: "non-positive profiled time",
		},
		{
			name: "profiles/zero-time",
			pass: PassProfiles,
			corrupt: func(t *testing.T, f *fixture) {
				f.records[0].Time[device.CPU] = 0
			},
			wantMsg: "non-positive profiled time",
		},
		{
			name: "profiles/zero-kernels",
			pass: PassProfiles,
			corrupt: func(t *testing.T, f *fixture) {
				f.records[0].Kernels = 0
			},
			wantMsg: "at least one",
		},
		{
			name: "profiles/bad-index",
			pass: PassProfiles,
			corrupt: func(t *testing.T, f *fixture) {
				f.records[0].Index = 9
			},
			wantMsg: "claims index",
		},
		{
			name: "placement/unknown-kind",
			pass: PassPlacement,
			corrupt: func(t *testing.T, f *fixture) {
				f.place[1] = device.Kind(9)
			},
			wantMsg: "unknown device kind",
		},
		{
			name: "placement/short",
			pass: PassPlacement,
			corrupt: func(t *testing.T, f *fixture) {
				f.place = f.place[:len(f.place)-1]
			},
			wantMsg: "covers",
		},
		{
			name: "schedule/forward-dependency",
			pass: PassSchedule,
			corrupt: func(t *testing.T, f *fixture) {
				// Swapping the first two phases makes consumers start before
				// their producers.
				f.p.Phases[0].Subgraphs, f.p.Phases[1].Subgraphs =
					f.p.Phases[1].Subgraphs, f.p.Phases[0].Subgraphs
			},
			wantMsg: "start order",
		},
		{
			// A subgraph waiting on its own output can never fire; the
			// start-order pass is what catches it.
			name: "liveness/self-loop",
			pass: PassSchedule,
			corrupt: func(t *testing.T, f *fixture) {
				sub := lastPhaseSub(f.p)
				sub.BoundaryInputs = append(sub.BoundaryInputs, sub.Outputs[0])
			},
			wantMsg: "start order",
		},
		{
			name: "arena/kernel-reorder",
			pass: PassRelease,
			corrupt: func(t *testing.T, f *fixture) {
				m := multiKernelModule(t, f)
				m.Kernels[0], m.Kernels[len(m.Kernels)-1] =
					m.Kernels[len(m.Kernels)-1], m.Kernels[0]
			},
		},
		{
			name: "arena/missing-kernel",
			pass: PassRelease,
			corrupt: func(t *testing.T, f *fixture) {
				m := multiKernelModule(t, f)
				m.Kernels = m.Kernels[:len(m.Kernels)-1]
			},
		},
		{
			name: "arena/double-coverage",
			pass: PassRelease,
			corrupt: func(t *testing.T, f *fixture) {
				m := multiKernelModule(t, f)
				m.Kernels = append(m.Kernels, m.Kernels[0])
			},
			wantMsg: "exactly-once",
		},
		{
			// The branch chain relu→sigmoid→sigmoid lowers to a two-instruction
			// tape of identical opcodes; swapping the node annotations makes the
			// first instruction claim the later sigmoid, whose operand (the
			// earlier sigmoid) the tape has not produced yet.
			name: "fusion/recompute-cycle",
			pass: PassFusion,
			corrupt: func(t *testing.T, f *fixture) {
				fk := fusedChainKernel(t, f).Fused
				fk.InstrNodes[0], fk.InstrNodes[1] = fk.InstrNodes[1], fk.InstrNodes[0]
			},
			wantMsg: "recompute acyclicity",
		},
		{
			// Rewrite the tape so the mid-chain sigmoid is materialized through
			// two distinct emit slots — the single-materialization discipline
			// allows each intermediate at most one.
			name: "fusion/double-materialized",
			pass: PassFusion,
			corrupt: func(t *testing.T, f *fixture) {
				k := fusedChainKernel(t, f)
				fk := k.Fused
				b, c := k.Nodes[1], k.Nodes[2]
				prog, err := tensor.CompileChain([]tensor.Instr{
					{Op: tensor.ChainSigmoid},
					{Op: tensor.ChainEmit, Arg: 0},
					{Op: tensor.ChainEmit, Arg: 1},
					{Op: tensor.ChainSigmoid},
				}, fk.Prog.Shape(), nil)
				if err != nil {
					t.Fatal(err)
				}
				fk.Prog = prog
				fk.InstrNodes = []graph.NodeID{b, b, b, c}
				fk.Emits = []graph.NodeID{b, b}
			},
			wantMsg: "double materialization",
		},
		{
			// Swap in a program whose first opcode (tanh) does not implement the
			// graph node it is annotated with (sigmoid).
			name: "fusion/op-tape-mismatch",
			pass: PassFusion,
			corrupt: func(t *testing.T, f *fixture) {
				fk := fusedChainKernel(t, f).Fused
				prog, err := tensor.CompileChain([]tensor.Instr{
					{Op: tensor.ChainTanh},
					{Op: tensor.ChainSigmoid},
				}, fk.Prog.Shape(), nil)
				if err != nil {
					t.Fatal(err)
				}
				fk.Prog = prog
			},
			wantMsg: "op-tape/graph mismatch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFixture(t)
			tc.corrupt(t, f)
			fs := All(f.artifacts())
			hits := findingsFor(fs, tc.pass)
			if len(hits) == 0 {
				t.Fatalf("corruption not detected by pass %s; all findings: %v", tc.pass, fs)
			}
			if tc.wantMsg != "" {
				found := false
				for _, h := range hits {
					if strings.Contains(h.Msg, tc.wantMsg) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no %s finding contains %q; got %v", tc.pass, tc.wantMsg, hits)
				}
			}
		})
	}
}

// lastPhaseSub returns a subgraph from the last phase (it has boundary
// inputs and publishes the graph output).
func lastPhaseSub(p *partition.Partition) *graph.Subgraph {
	ph := p.Phases[len(p.Phases)-1]
	return ph.Subgraphs[0]
}

// multiPathPhase returns the index of the fixture's multi-path phase.
func multiPathPhase(t *testing.T, p *partition.Partition) int {
	t.Helper()
	for i, ph := range p.Phases {
		if ph.Kind == partition.MultiPath {
			return i
		}
	}
	t.Fatal("fixture has no multi-path phase")
	return -1
}

// fusedChainKernel returns a fused kernel whose tape has at least two
// instructions and three group members (one of the relu→sigmoid→sigmoid
// branches under unconstrained fusion), rich enough to corrupt.
func fusedChainKernel(t *testing.T, f *fixture) *compiler.Kernel {
	t.Helper()
	for _, m := range f.modules {
		for i := range m.Kernels {
			k := &m.Kernels[i]
			if k.Fused != nil && k.Fused.Prog != nil && k.Fused.Prog.Len() >= 2 && len(k.Nodes) >= 3 {
				return k
			}
		}
	}
	t.Fatal("fixture has no fused chain kernel")
	return nil
}

// multiKernelModule returns a module with at least two kernels, so kernel
// reordering and removal are observable corruptions.
func multiKernelModule(t *testing.T, f *fixture) *compiler.Module {
	t.Helper()
	for _, m := range f.modules {
		if len(m.Kernels) >= 2 {
			return m
		}
	}
	t.Fatal("fixture has no multi-kernel module")
	return nil
}

func TestPlacementErrorFields(t *testing.T) {
	f := buildFixture(t)
	f.place[1] = device.Kind(7)
	err := CheckPlacement(f.place, f.p)
	pe, ok := err.(*PlacementError)
	if !ok {
		t.Fatalf("want *PlacementError, got %T (%v)", err, err)
	}
	if pe.Index != 1 || pe.Device != device.Kind(7) {
		t.Fatalf("PlacementError coordinates wrong: %+v", pe)
	}
	if pe.Subgraph == "" || pe.Phase < 0 {
		t.Fatalf("PlacementError lacks subgraph/phase context: %+v", pe)
	}
	// The runtime's tests (and log scrapers) match on this substring.
	if !strings.Contains(err.Error(), "unknown device kind") {
		t.Fatalf("message lost the canonical substring: %q", err.Error())
	}
}

func TestErrorElides(t *testing.T) {
	var fs []Finding
	for i := 0; i < 20; i++ {
		fs = append(fs, finding(PassGraph, "finding %d", i))
	}
	msg := AsError(fs).Error()
	if !strings.Contains(msg, "20 finding(s)") || !strings.Contains(msg, "more)") {
		t.Fatalf("aggregate error should count and elide: %q", msg)
	}
	if AsError(nil) != nil {
		t.Fatal("AsError(nil) must be nil")
	}
}

// FuzzPartitionMutations drives random mutations into a valid partition and
// checks the verifier never panics, and that an untouched fixture stays
// clean. The mutation vocabulary mirrors the corruption classes real bugs
// produce: dropped/duplicated members, fabricated boundary inputs, phase
// reordering, record skew.
func FuzzPartitionMutations(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 0, 2, 3})
	f.Add([]byte{4, 200, 3, 17, 2, 9, 0, 0, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := buildFixture(t)
		mutated := false
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, int(data[i+1])
			subs := fx.p.Subgraphs()
			sub := subs[arg%len(subs)]
			switch op {
			case 0: // drop a member
				if len(sub.Members) > 1 {
					sub.Members = sub.Members[:len(sub.Members)-1]
					mutated = true
				}
			case 1: // fabricate a boundary input
				sub.BoundaryInputs = append(sub.BoundaryInputs, graph.NodeID(arg))
				mutated = true
			case 2: // fabricate an output
				sub.Outputs = append(sub.Outputs, graph.NodeID(arg%fx.g.Len()))
				mutated = true
			case 3: // skew a record
				fx.records[arg%len(fx.records)].InBytes += arg + 1
				mutated = true
			case 4: // corrupt a placement entry
				fx.place[arg%len(fx.place)] = device.Kind(arg%5 + 2)
				mutated = true
			case 5: // renumber a phase
				fx.p.Phases[arg%len(fx.p.Phases)].Index += arg%3 + 1
				mutated = true
			}
		}
		fs := All(fx.artifacts()) // must not panic
		if !mutated && len(fs) != 0 {
			t.Fatalf("unmutated fixture produced findings: %v", fs)
		}
	})
}
