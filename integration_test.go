package duet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"duet"
	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/relay"
	"duet/internal/runtime"
	"duet/internal/tensor"
)

// randomDAG generates a random valid model graph over 2-D tensors: dense
// layers change width, elementwise ops preserve it, adds join equal-width
// values, concats join along the feature axis. Every generated graph is a
// legal DUET input, which makes these property tests bite across the whole
// stack: shape inference, optimization, partitioning, scheduling, and
// heterogeneous execution.
func randomDAG(rng *rand.Rand) (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New(fmt.Sprintf("rand%d", rng.Int31()))
	inputs := map[string]*tensor.Tensor{}

	type val struct {
		id  graph.NodeID
		dim int
	}
	var vals []val
	nIn := 1 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		dim := 8 << rng.Intn(3) // 8, 16, 32
		name := fmt.Sprintf("x%d", i)
		id := g.AddInput(name, 1, dim)
		inputs[name] = tensor.Rand(rng, 1, 1, dim)
		vals = append(vals, val{id, dim})
	}

	nOps := 4 + rng.Intn(12)
	for i := 0; i < nOps; i++ {
		pick := vals[rng.Intn(len(vals))]
		switch rng.Intn(6) {
		case 0, 1: // dense to a new width
			out := 8 << rng.Intn(3)
			w := g.AddConst(fmt.Sprintf("w%d", i), tensor.Rand(rng, 0.3, out, pick.dim))
			id := g.Add("dense", fmt.Sprintf("dense%d", i), nil, pick.id, w)
			vals = append(vals, val{id, out})
		case 2: // unary elementwise
			ops := []string{"relu", "sigmoid", "tanh", "gelu"}
			id := g.Add(ops[rng.Intn(len(ops))], fmt.Sprintf("un%d", i), nil, pick.id)
			vals = append(vals, val{id, pick.dim})
		case 3: // add with an equal-width partner (if any)
			var partner *val
			for _, v := range vals {
				if v.dim == pick.dim && v.id != pick.id {
					partner = &v
					break
				}
			}
			if partner == nil {
				id := g.Add("relu", fmt.Sprintf("un%d", i), nil, pick.id)
				vals = append(vals, val{id, pick.dim})
				break
			}
			id := g.Add("add", fmt.Sprintf("add%d", i), nil, pick.id, partner.id)
			vals = append(vals, val{id, pick.dim})
		case 4: // concat two values
			other := vals[rng.Intn(len(vals))]
			id := g.Add("concat", fmt.Sprintf("cat%d", i), graph.Attrs{"axis": 1}, pick.id, other.id)
			vals = append(vals, val{id, pick.dim + other.dim})
		case 5: // softmax (keeps width)
			id := g.Add("softmax", fmt.Sprintf("sm%d", i), nil, pick.id)
			vals = append(vals, val{id, pick.dim})
		}
	}

	// Outputs: every value with no consumer (guaranteeing full liveness).
	consumers := g.Consumers()
	var outs []graph.NodeID
	for _, v := range vals {
		if len(consumers[v.id]) == 0 && !g.Node(v.id).IsInput() {
			outs = append(outs, v.id)
		}
	}
	if len(outs) == 0 {
		outs = append(outs, vals[len(vals)-1].id)
	}
	g.SetOutputs(outs...)
	return g, inputs
}

func TestRandomDAGsFullPipeline(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g, inputs := randomDAG(rng)

		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid generated graph: %v", trial, err)
		}
		if err := compiler.InferShapes(g); err != nil {
			t.Fatalf("trial %d: shape inference: %v", trial, err)
		}

		// Reference result: unoptimized whole-graph execution.
		ref, err := compiler.Compile(g, compiler.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := ref.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Optimized execution must match.
		opt, err := compiler.Compile(g, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := opt.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !tensor.AllClose(got[i], want[i], 1e-4, 1e-4) {
				t.Fatalf("trial %d: optimization changed output %d by %g", trial, i, tensor.MaxAbsDiff(got[i], want[i]))
			}
		}

		// Partition invariants.
		p, err := partition.Build(g)
		if err != nil {
			t.Fatalf("trial %d: partition: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: partition invariants: %v", trial, err)
		}

		// Heterogeneous execution equivalence on random placements.
		e, err := runtime.New(p, device.NewPlatform(0), compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := e.NumSubgraphs()
		places := []runtime.Placement{
			runtime.Uniform(n, device.CPU),
			runtime.Uniform(n, device.GPU),
		}
		for k := 0; k < 2; k++ {
			pl := make(runtime.Placement, n)
			for i := range pl {
				pl[i] = device.Kind(rng.Intn(2))
			}
			places = append(places, pl)
		}
		for _, pl := range places {
			res, err := e.Run(inputs, pl, true)
			if err != nil {
				t.Fatalf("trial %d placement %s: %v", trial, pl, err)
			}
			for i := range want {
				if !tensor.AllClose(res.Outputs[i], want[i], 1e-4, 1e-4) {
					t.Fatalf("trial %d placement %s: output %d diverges by %g",
						trial, pl, i, tensor.MaxAbsDiff(res.Outputs[i], want[i]))
				}
			}
			if res.Latency <= 0 {
				t.Fatalf("trial %d: non-positive latency", trial)
			}
		}
	}
}

func TestRandomDAGsRelayRoundTrip(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		g, inputs := randomDAG(rng)
		if err := compiler.InferShapes(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m, weights, err := relay.FromGraph(g)
		if err != nil {
			t.Fatalf("trial %d: FromGraph: %v", trial, err)
		}
		// Text round trip.
		reparsed, err := relay.Parse(m.String())
		if err != nil {
			t.Fatalf("trial %d: printed module does not reparse: %v\n%s", trial, err, m.String())
		}
		g2, err := relay.ToGraph(reparsed, g.Name, weights)
		if err != nil {
			t.Fatalf("trial %d: ToGraph: %v", trial, err)
		}
		// Execution equivalence.
		m1, err := compiler.Compile(g, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m2, err := compiler.Compile(g2, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o1, err := m1.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o2, err := m2.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range o1 {
			if !tensor.AllClose(o1[i], o2[i], 0, 0) {
				t.Fatalf("trial %d: relay round trip changed output %d", trial, i)
			}
		}
	}
}

func TestRandomDAGsModelIORoundTrip(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		g, inputs := randomDAG(rng)
		var buf bytes.Buffer
		if err := duet.SaveModel(g, &buf); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g2, err := duet.LoadModel(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m1, err := compiler.Compile(g, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m2, err := compiler.Compile(g2, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o1, err := m1.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o2, err := m2.Execute(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range o1 {
			if !tensor.AllClose(o1[i], o2[i], 0, 0) {
				t.Fatalf("trial %d: SaveModel/LoadModel round trip changed output %d", trial, i)
			}
		}
	}
}

func TestRandomDAGsDUETNeverLoses(t *testing.T) {
	// DUET's chosen placement (with fallback) must never be slower than
	// both uniform placements — the engine's core contract (§VI-E).
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		g, _ := randomDAG(rng)
		cfg := duet.DefaultConfig(0)
		cfg.ProfileRuns = 1
		engine, err := duet.Build(g, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d, err := engine.Measure(1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c, err := engine.MeasureUniform(duet.CPU, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gp, err := engine.MeasureUniform(duet.GPU, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := c[0]
		if gp[0] < best {
			best = gp[0]
		}
		if d[0] > best*1.001 {
			t.Fatalf("trial %d: DUET %v slower than best uniform %v (placement %s)", trial, d[0], best, engine.Placement)
		}
	}
}

func TestSavedModelRebuildsIdenticalEngine(t *testing.T) {
	// Serialise Wide&Deep, reload it, and rebuild the engine: the placement
	// decision and deterministic latency must be identical — the deployment
	// path (train once, ship the model file, schedule on the target).
	g1, err := duet.WideDeep(duet.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := duet.SaveModel(g1, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := duet.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := duet.DefaultConfig(0)
	cfg.ProfileRuns = 2
	e1, err := duet.Build(g1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := duet.Build(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Placement.String() != e2.Placement.String() {
		t.Fatalf("placement changed after model round trip: %s vs %s", e1.Placement, e2.Placement)
	}
	l1, _ := e1.Measure(1)
	l2, _ := e2.Measure(1)
	if l1[0] != l2[0] {
		t.Fatalf("latency changed after model round trip: %v vs %v", l1[0], l2[0])
	}
}

func TestSavedModelTextIsFormatRelay(t *testing.T) {
	// The model file's text section is FormatRelay's output byte for byte:
	// one printer serves both.
	g, err := duet.WideDeep(duet.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	text, _, err := duet.FormatRelay(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := duet.SaveModel(g, &buf); err != nil {
		t.Fatal(err)
	}
	header, err := buf.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("duet-model 2 %d %q\n", len(text), g.Name); header != want {
		t.Fatalf("header %q, want %q", header, want)
	}
	if got := string(buf.Next(len(text))); got != text {
		t.Fatalf("the saved text differs from FormatRelay's")
	}
}

func TestZooModelsSurviveRelayRoundTripWithSamePlacement(t *testing.T) {
	// The Siamese model raised to the text IR and lowered back must produce
	// the same partition shape and scheduling decision.
	g1, err := duet.Siamese(duet.DefaultSiamese())
	if err != nil {
		t.Fatal(err)
	}
	text, weights, err := duet.FormatRelay(g1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := duet.ParseRelay(text, "siamese-rt", weights)
	if err != nil {
		t.Fatal(err)
	}
	cfg := duet.DefaultConfig(0)
	cfg.ProfileRuns = 1
	e1, err := duet.Build(g1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := duet.Build(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Placement.String() != e2.Placement.String() {
		t.Fatalf("relay round trip changed placement: %s vs %s", e1.Placement, e2.Placement)
	}
}
