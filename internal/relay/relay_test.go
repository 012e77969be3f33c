package relay

import (
	"fmt"
	"strings"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

const sample = `
fn (%x: Tensor[(1, 8)], %y: Tensor[(1, 8)]) {
  %a = relu(%x);
  %b = dense(%a, @w, @bias);
  %c = add(%b, %y);
  %d = concat(%a, %c) {axis=1};
  (%c, %d)
}
`

func sampleWeights() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"w":    tensor.Ones(8, 8),
		"bias": tensor.New(8),
	}
}

func TestParseSample(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Params) != 2 || m.Params[0].Name != "x" || !tensor.ShapeEq(m.Params[1].Shape, []int{1, 8}) {
		t.Fatalf("params = %+v", m.Params)
	}
	if len(m.Bindings) != 4 {
		t.Fatalf("bindings = %d", len(m.Bindings))
	}
	b := m.Bindings[1]
	if b.Op != "dense" || !b.Args[1].IsConst || b.Args[1].Name != "w" {
		t.Fatalf("dense binding wrong: %+v", b)
	}
	if m.Bindings[3].Attrs.Int("axis", -99) != 1 {
		t.Fatalf("attrs not parsed: %+v", m.Bindings[3].Attrs)
	}
	if len(m.Results) != 2 || m.Results[1] != "d" {
		t.Fatalf("results = %v", m.Results)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	printed := m.String()
	m2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if m2.String() != printed {
		t.Fatalf("print/parse not a fixed point:\n%s\nvs\n%s", printed, m2.String())
	}
}

func TestParseSingleResult(t *testing.T) {
	m, err := Parse(`fn (%x: Tensor[(2)]) { %a = relu(%x); %a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 1 || m.Results[0] != "a" {
		t.Fatalf("results = %v", m.Results)
	}
}

func TestParseComments(t *testing.T) {
	src := "// header\nfn (%x: Tensor[(2)]) {\n  // compute\n  %a = relu(%x);\n  %a\n}"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseAttrValueKinds(t *testing.T) {
	m, err := Parse(`fn (%x: Tensor[(2, 2)]) { %a = reshape(%x) {shape=[4, -1], mode="row", k=3}; %a }`)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Bindings[0].Attrs
	if got := a.Ints("shape"); len(got) != 2 || got[1] != -1 {
		t.Fatalf("shape attr = %v", got)
	}
	if a.Str("mode", "") != "row" || a.Int("k", 0) != 3 {
		t.Fatalf("attrs = %v", a)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"fn () { }",
		"fn (%x: Tensor[(2)]) { %a = relu(%x) %a }", // missing semicolon
		"fn (%x: Tensor[(2)]) { %a = relu($x); %a }",
		"fn (%x: Tensor[(2)]) { %a = relu(%x); %a } extra",
		`fn (%x: Tensor[(2)]) { %a = relu(%x) {k="unterminated}; %a }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestToGraph(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ToGraph(m, "sample", sampleWeights())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 inputs + 2 consts + 4 bindings = 8 nodes.
	if g.Len() != 8 {
		t.Fatalf("graph has %d nodes, want 8", g.Len())
	}
	if g.NodeByName("w") == nil || !g.NodeByName("w").IsConst() {
		t.Fatalf("weight const missing")
	}
	if len(g.Outputs()) != 2 {
		t.Fatalf("outputs = %v", g.Outputs())
	}
}

func TestToGraphUnknownWeight(t *testing.T) {
	m, _ := Parse(sample)
	if _, err := ToGraph(m, "s", map[string]*tensor.Tensor{"w": tensor.Ones(8, 8)}); err == nil || !strings.Contains(err.Error(), "bias") {
		t.Fatalf("expected unknown-weight error, got %v", err)
	}
}

func TestToGraphUndefinedRef(t *testing.T) {
	m, err := Parse(`fn (%x: Tensor[(2)]) { %a = relu(%zzz); %a }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToGraph(m, "s", nil); err == nil {
		t.Fatalf("expected undefined-reference error")
	}
}

func TestToGraphDuplicateName(t *testing.T) {
	m := &Module{
		Params:   []Param{{Name: "x", Shape: []int{2}}},
		Bindings: []Binding{{Name: "x", Op: "relu", Args: []Arg{{Name: "x"}}}},
		Results:  []string{"x"},
	}
	if _, err := ToGraph(m, "s", nil); err == nil {
		t.Fatalf("expected duplicate-name error")
	}
}

func TestFromGraphRoundTrip(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	w := sampleWeights()
	g, err := ToGraph(m, "sample", w)
	if err != nil {
		t.Fatal(err)
	}
	m2, w2, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2) != 2 {
		t.Fatalf("weights round trip = %d entries", len(w2))
	}
	g2, err := ToGraph(m2, "sample2", w2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round-trip node count %d != %d", g2.Len(), g.Len())
	}
	// Structure must match node-for-node by name.
	for _, n := range g.Nodes() {
		n2 := g2.NodeByName(n.Name)
		if n2 == nil || n2.Op != n.Op || len(n2.Inputs) != len(n.Inputs) {
			t.Fatalf("node %q differs after round trip", n.Name)
		}
		for i := range n.Inputs {
			if g.Node(n.Inputs[i]).Name != g2.Node(n2.Inputs[i]).Name {
				t.Fatalf("node %q input %d differs", n.Name, i)
			}
		}
	}
	// And the textual form is a fixed point.
	if m2.String() != mustFromGraph(t, g2).String() {
		t.Fatalf("textual round trip diverges")
	}
}

func mustFromGraph(t *testing.T, g *graph.Graph) *Module {
	t.Helper()
	m, _, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromGraphConstWithoutValue(t *testing.T) {
	g := graph.New("g")
	id := g.Add(graph.OpConst, "w", nil)
	r := g.Add("relu", "r", nil, id)
	g.SetOutputs(r)
	if _, _, err := FromGraph(g); err == nil {
		t.Fatalf("expected error for const without value")
	}
}

func TestToGraphWeightNameCollision(t *testing.T) {
	m, err := Parse(`fn (%x: Tensor[(2)]) { %w = relu(%x); %a = add(%w, @w); %a }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ToGraph(m, "c", map[string]*tensor.Tensor{"w": tensor.Ones(2)})
	if err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("expected collision error, got %v", err)
	}
}

func TestStringAttrEscapesRoundTrip(t *testing.T) {
	// A backslash, a double quote and a tab come back as themselves.
	vals := []string{`a\b`, `say "hi"`, "tab\there"}
	g := graph.New("escapes")
	x := g.AddInput("x", 2)
	prev := x
	for i, v := range vals {
		prev = g.Add("relu", fmt.Sprintf("r%d", i), graph.Attrs{"tag": v}, prev)
	}
	g.SetOutputs(prev)
	m, w, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(m.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, m.String())
	}
	g2, err := ToGraph(m2, "escapes", w)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := g2.NodeByName(fmt.Sprintf("r%d", i)).Attrs.Str("tag", ""); got != v {
			t.Errorf("attr %d: %q, want %q", i, got, v)
		}
	}
}

func TestParseRejectsNonIntAttrs(t *testing.T) {
	// The text holds int, []int and string attributes and nothing else.
	for _, attr := range []string{`x=1.5`, `x=["a"]`, `x=true`, `x=[1.5]`, `x="\q"`} {
		src := `fn (%x: Tensor[(2)]) { %a = relu(%x) {` + attr + `}; %a }`
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted {%s}", attr)
		}
	}
	m, err := Parse(`fn (%x: Tensor[(2)]) { %a = relu(%x); %a }`)
	if err != nil || len(m.Bindings[0].Attrs) != 0 {
		t.Fatalf("a binding without attrs should parse to empty attrs: %v", err)
	}
}

func TestFromGraphRejectsInexpressible(t *testing.T) {
	// Each graph holds something the text cannot say; FromGraph (and so
	// FormatRelay and SaveModel) must refuse it rather than panic or drop it.
	cases := map[string]func(g *graph.Graph, x graph.NodeID) []graph.NodeID{
		"float attr": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			return []graph.NodeID{g.Add("leaky_relu", "r", graph.Attrs{"alpha": 0.5}, x)}
		},
		"unread const": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			g.AddConst("orphan", tensor.Ones(2))
			return []graph.NodeID{g.Add("relu", "r", nil, x)}
		},
		"const output": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			c := g.AddConst("c", tensor.Ones(2))
			return []graph.NodeID{g.Add("add", "r", nil, x, c), c}
		},
		"name": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			return []graph.NodeID{g.Add("relu", "r 1", nil, x)}
		},
		"op": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			return []graph.NodeID{g.Add("re-lu", "r", nil, x)}
		},
		"attr key": func(g *graph.Graph, x graph.NodeID) []graph.NodeID {
			return []graph.NodeID{g.Add("relu", "r", graph.Attrs{"a b": 1}, x)}
		},
	}
	for name, build := range cases {
		g := graph.New("g")
		g.SetOutputs(build(g, g.AddInput("x", 2))...)
		if _, _, err := FromGraph(g); err == nil {
			t.Errorf("%s: FromGraph accepted a graph its text cannot express", name)
		}
	}
}
