package runtime

import (
	"strings"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// branchy builds two independent dense branches joined by a concat head.
func branchy(t *testing.T) (*partition.Partition, map[string]*tensor.Tensor) {
	t.Helper()
	// Branches sized so compute (hundreds of µs) dominates PCIe transfers
	// (tens of µs); otherwise co-execution could never overlap.
	g := graph.New("branchy")
	xa := g.AddInput("xa", 1, 1024)
	xb := g.AddInput("xb", 1, 1024)
	wa := g.AddConst("wa", tensor.Full(0.001, 1024, 1024))
	wb := g.AddConst("wb", tensor.Full(0.002, 1024, 1024))
	a1 := g.Add("dense", "a1", nil, xa, wa)
	a2 := g.Add("relu", "a2", nil, a1)
	b1 := g.Add("dense", "b1", nil, xb, wb)
	b2 := g.Add("sigmoid", "b2", nil, b1)
	cat := g.Add("concat", "cat", graph.Attrs{"axis": 1}, a2, b2)
	g.SetOutputs(cat)
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Tensor{
		"xa": tensor.Full(0.5, 1, 1024),
		"xb": tensor.Full(-0.5, 1, 1024),
	}
	return p, inputs
}

func newEngine(t testing.TB, p *partition.Partition, seed int64) *Engine {
	t.Helper()
	e, err := New(p, device.NewPlatform(seed), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunAllCPUMatchesWholeGraph(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	whole, err := compiler.Compile(p.Parent, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Execute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(inputs, Uniform(e.NumSubgraphs(), device.CPU), true)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(res.Outputs[0], want[0], 1e-5, 1e-5) {
		t.Fatalf("all-CPU run diverges from whole graph: %g", tensor.MaxAbsDiff(res.Outputs[0], want[0]))
	}
}

func TestRunOutputsIdenticalAcrossPlacements(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	n := e.NumSubgraphs()
	var ref *tensor.Tensor
	for mask := 0; mask < 1<<n; mask++ {
		place := make(Placement, n)
		for i := range place {
			if mask&(1<<i) != 0 {
				place[i] = device.GPU
			}
		}
		res, err := e.Run(inputs, place, true)
		if err != nil {
			t.Fatalf("placement %s: %v", place, err)
		}
		if ref == nil {
			ref = res.Outputs[0]
			continue
		}
		if !tensor.AllClose(res.Outputs[0], ref, 0, 0) {
			t.Fatalf("placement %s changed numerical result", place)
		}
	}
}

func TestRunLatencyPositiveAndFinite(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Uniform(e.NumSubgraphs(), device.GPU), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.Latency > 1 {
		t.Fatalf("implausible latency %v", res.Latency)
	}
	if res.Outputs != nil {
		t.Fatalf("timing-only run should not materialise outputs")
	}
}

func TestCrossDevicePlacementPaysTransfers(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	n := e.NumSubgraphs()
	allCPU, err := e.Run(nil, Uniform(n, device.CPU), false)
	if err != nil {
		t.Fatal(err)
	}
	// Head on GPU, branches on CPU: two boundary values must cross.
	mixed := Uniform(n, device.CPU)
	mixed[n-1] = device.GPU
	res, err := e.Run(nil, mixed, false)
	if err != nil {
		t.Fatal(err)
	}
	var xfers int
	for _, s := range res.Timeline {
		if strings.HasPrefix(s.Label, "xfer:") {
			xfers++
		}
	}
	if xfers < 2 {
		t.Fatalf("expected ≥2 transfers, timeline: %+v", res.Timeline)
	}
	_ = allCPU
}

func TestAllCPUHasNoTransfers(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Uniform(e.NumSubgraphs(), device.CPU), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Timeline {
		if strings.HasPrefix(s.Label, "xfer:") {
			t.Fatalf("all-CPU run scheduled a transfer: %+v", s)
		}
	}
}

func TestAllGPUPaysInputAndOutputTransfers(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Uniform(e.NumSubgraphs(), device.GPU), false)
	if err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	for _, s := range res.Timeline {
		if strings.HasPrefix(s.Label, "xfer:CPU→GPU") {
			in++
		}
		if strings.HasPrefix(s.Label, "xfer:GPU→CPU") {
			out++
		}
	}
	if in < 2 || out < 1 {
		t.Fatalf("GPU run should move inputs over and the result back: in=%d out=%d", in, out)
	}
}

func TestConcurrentBranchesOverlapOnTimeline(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	n := e.NumSubgraphs()
	// Branch A on CPU, branch B on GPU, head on CPU.
	place := Placement{device.CPU, device.GPU, device.CPU}
	if n != 3 {
		t.Fatalf("expected 3 subgraphs, got %d", n)
	}
	res, err := e.Run(nil, place, false)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	for _, s := range res.Timeline {
		if !strings.HasPrefix(s.Label, "xfer:") {
			spans = append(spans, s)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("want 3 compute spans, got %d", len(spans))
	}
	a, b := spans[0], spans[1]
	if a.Start >= b.End || b.Start >= a.End {
		t.Fatalf("independent branches did not overlap: %+v %+v", a, b)
	}
}

func TestSerialExecutionWithinDevice(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Uniform(e.NumSubgraphs(), device.CPU), false)
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd vclock.Seconds
	for _, s := range res.Timeline {
		if strings.HasPrefix(s.Label, "xfer:") {
			continue
		}
		if s.Start < prevEnd {
			t.Fatalf("same-device subgraphs overlap: %+v", res.Timeline)
		}
		prevEnd = s.End
	}
}

func TestRunErrors(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	if _, err := e.Run(inputs, Placement{device.CPU}, true); err == nil {
		t.Fatalf("expected placement-length error")
	}
	if _, err := e.Run(map[string]*tensor.Tensor{}, Uniform(e.NumSubgraphs(), device.CPU), true); err == nil {
		t.Fatalf("expected missing-input error")
	}
	bad := map[string]*tensor.Tensor{"xa": tensor.New(2, 1024), "xb": tensor.New(1, 1024)}
	if _, err := e.Run(bad, Uniform(e.NumSubgraphs(), device.CPU), true); err == nil {
		t.Fatalf("expected shape error")
	}
}

func TestMeasureLatencyDeterministicUnderSeed(t *testing.T) {
	p, _ := branchy(t)
	a := newEngine(t, p, 77)
	b := newEngine(t, p, 77)
	place := Uniform(a.NumSubgraphs(), device.GPU)
	sa, err := a.MeasureLatency(place, 50)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.MeasureLatency(place, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs under identical seeds", i)
		}
	}
	// And noise actually produces variance.
	if vclock.Percentile(sa, 99) == vclock.Percentile(sa, 0) {
		t.Fatalf("expected run-to-run variance under seeded noise")
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := Placement{device.CPU, device.GPU}
	if p.String() != "CG" {
		t.Fatalf("String = %q", p.String())
	}
	c := p.Clone()
	c[0] = device.GPU
	if p[0] != device.CPU {
		t.Fatalf("Clone aliases")
	}
	if Uniform(3, device.GPU).String() != "GGG" {
		t.Fatalf("Uniform wrong")
	}
}

// TestRunValidatesPlacementKinds: corrupted placements error descriptively
// instead of panicking, in every entry point that takes a placement.
func TestRunValidatesPlacementKinds(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	bad := Placement{device.CPU, device.Kind(7), device.GPU}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := e.Run(nil, bad, false); return err }},
		{"RunParallel", func() error { _, err := e.RunParallel(inputs, bad); return err }},
		{"MeasureLatency", func() error { _, err := e.MeasureLatency(bad, 1); return err }},
		{"MeasurePipelined", func() error { _, err := e.MeasurePipelined(bad, 2); return err }},
		{"Memory", func() error { _, err := e.Memory(bad); return err }},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "unknown device kind") {
			t.Fatalf("%s error = %v", c.name, err)
		}
	}
}

// TestPlacementStringUnknownKind: unknown kinds render as '?'.
func TestPlacementStringUnknownKind(t *testing.T) {
	p := Placement{device.CPU, device.Kind(9), device.GPU}
	if p.String() != "C?G" {
		t.Fatalf("String = %q, want C?G", p.String())
	}
}
