package relay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"duet/internal/compiler"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/tensor"
)

// modelRoundTrip streams g through WriteModel into ReadModel over a pipe,
// so no copy of the file is ever held.
func modelRoundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	pr, pw := io.Pipe()
	written := make(chan error, 1)
	go func() {
		err := WriteModel(g, pw)
		pw.CloseWithError(err)
		written <- err
	}()
	g2, err := ReadModel(pr)
	pr.Close() // unblocks the writer if the reader stopped early
	if werr := <-written; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	y := b.Data()
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

func inputNames(g *graph.Graph, n *graph.Node) []string {
	names := make([]string, len(n.Inputs))
	for i, in := range n.Inputs {
		names[i] = g.Node(in).Name
	}
	return names
}

// requireSameGraph fails unless g2 holds g's name, outputs and nodes,
// compared by name (node IDs may be renumbered): op, input names,
// attributes, input shapes and every weight bit.
func requireSameGraph(t *testing.T, g, g2 *graph.Graph) {
	t.Helper()
	if g2.Name != g.Name || g2.Len() != g.Len() {
		t.Fatalf("graph %q (%d nodes) came back as %q (%d nodes)", g.Name, g.Len(), g2.Name, g2.Len())
	}
	for _, n := range g.Nodes() {
		n2 := g2.NodeByName(n.Name)
		switch {
		case n2 == nil || n2.Op != n.Op:
			t.Fatalf("%s: node %q lost or changed op", g.Name, n.Name)
		case !reflect.DeepEqual(inputNames(g2, n2), inputNames(g, n)):
			t.Fatalf("%s: node %q inputs %v, want %v", g.Name, n.Name, inputNames(g2, n2), inputNames(g, n))
		case !reflect.DeepEqual(n2.Attrs, n.Attrs):
			t.Fatalf("%s: node %q attrs %v, want %v", g.Name, n.Name, n2.Attrs, n.Attrs)
		case n.IsInput() && !tensor.ShapeEq(n2.Shape, n.Shape):
			t.Fatalf("%s: input %q shape %v, want %v", g.Name, n.Name, n2.Shape, n.Shape)
		case n.IsConst() && !sameBits(n.Value, n2.Value):
			t.Fatalf("%s: weight %q changed", g.Name, n.Name)
		}
	}
	outs, outs2 := g.Outputs(), g2.Outputs()
	if len(outs2) != len(outs) {
		t.Fatalf("%s: %d outputs, want %d", g.Name, len(outs2), len(outs))
	}
	for i := range outs {
		if g2.Node(outs2[i]).Name != g.Node(outs[i]).Name {
			t.Fatalf("%s: output %d is %q, want %q", g.Name, i, g2.Node(outs2[i]).Name, g.Node(outs[i]).Name)
		}
	}
}

func TestModelRoundTripSmallGraph(t *testing.T) {
	g := graph.New("rt graph")
	x := g.AddInput("x", 1, 4)
	// b is added before w but read after it: sections follow the text.
	b := g.AddConst("b", tensor.FromSlice([]float32{0.5, -1}, 2))
	w := g.AddConst("w", tensor.FromSlice([]float32{1, -2.5, 3.25, 0, 7, 8, -9, 10}, 2, 4))
	d := g.Add("dense", "d", nil, x, w, b)
	rs := g.Add("reshape", "rs", graph.Attrs{"shape": []int{2, 1}, "tag": "x"}, d)
	g.SetOutputs(rs)
	g2 := modelRoundTrip(t, g)
	requireSameGraph(t, g, g2)
	rs2 := g2.NodeByName("rs")
	if got := rs2.Attrs.Ints("shape"); len(got) != 2 || got[0] != 2 {
		t.Fatalf("[]int attr lost: %v", got)
	}
	if rs2.Attrs.Str("tag", "") != "x" {
		t.Fatalf("string attr lost")
	}
}

func TestModelRoundTripPayloadBits(t *testing.T) {
	// Every float32 bit pattern survives: signed zero, a denormal, the
	// extremes, infinities and a NaN with a payload.
	vals := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-45,
		3.4e38, -3.4e38, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00000)}
	g := graph.New("bits")
	x := g.AddInput("x", len(vals))
	c := g.AddConst("c", tensor.FromSlice(vals, len(vals)))
	r := g.Add("add", "r", nil, x, c)
	g.SetOutputs(r)
	got := modelRoundTrip(t, g).NodeByName("c").Value.Data()
	for i, v := range vals {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("value %d: bits %#x, want %#x", i, math.Float32bits(got[i]), math.Float32bits(v))
		}
	}
}

func TestWriteModelRejectsValuelessConst(t *testing.T) {
	g := graph.New("bad")
	c := g.Add(graph.OpConst, "c", nil)
	r := g.Add("relu", "r", nil, c)
	g.SetOutputs(r)
	if err := WriteModel(g, io.Discard); err == nil {
		t.Fatalf("expected error")
	}
}

func TestModelRoundTripExecutionEquivalence(t *testing.T) {
	// Every small-zoo model computes bit-identical outputs after a round trip.
	zoo, err := models.SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	execute := func(name string, g *graph.Graph, in map[string]*tensor.Tensor) []*tensor.Tensor {
		m, err := compiler.Compile(g, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := m.Execute(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out
	}
	for i, c := range zoo {
		zoo[i] = models.ZooCase{} // one model's weights and panels live at a time
		g2 := modelRoundTrip(t, c.Graph)
		requireSameGraph(t, c.Graph, g2)
		want := execute(c.Name, c.Graph, c.Inputs)
		c.Graph = nil
		for j, o := range execute(c.Name, g2, c.Inputs) {
			if !sameBits(o, want[j]) {
				t.Fatalf("%s: output %d differs after a round trip", c.Name, j)
			}
		}
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestModelRoundTripAllZooModels sends full-size zoo models through a file.
// The file is the header, FormatRelay's text byte for byte, and the raw
// sections; writing it allocates next to nothing and reading it little
// more than the weights themselves. The allocation bounds read the
// process-wide MemStats.TotalAlloc, so run them alone
// (go test -count=20 -run TestModelRoundTripAllZooModels ./internal/relay).
func TestModelRoundTripAllZooModels(t *testing.T) {
	// boundAllocs is off for SqueezeNet: 2 % of its 5 MB payload is less
	// than the 64 KB write buffer plus the text.
	builds := []struct {
		name        string
		build       func() (*graph.Graph, error)
		boundAllocs bool
	}{
		{"widedeep", func() (*graph.Graph, error) { return models.WideDeep(models.DefaultWideDeep()) }, true},
		{"mtdnn", func() (*graph.Graph, error) { return models.MTDNN(models.DefaultMTDNN()) }, true},
		{"resnet18", func() (*graph.Graph, error) { return models.ResNet(models.DefaultResNet(18)) }, true},
		{"squeezenet", func() (*graph.Graph, error) { return models.SqueezeNet(models.DefaultSqueezeNet()) }, false},
	}
	for _, b := range builds {
		g, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		m, _, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		text := m.String()
		header := fmt.Sprintf("duet-model %d %d %q\n", modelVersion, len(text), g.Name)
		payload := 4 * int64(models.ParamCount(g))
		size := int64(len(header)+len(text)) + payload
		for _, n := range g.Nodes() {
			if n.IsConst() {
				size += 4 + 4*int64(len(n.Value.Shape()))
			}
		}

		path := filepath.Join(t.TempDir(), b.name+".model")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		saved := allocatedBy(func() { err = WriteModel(g, f) })
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if fi.Size() != size {
			t.Fatalf("%s: file holds %d bytes, want %d", b.name, fi.Size(), size)
		}
		if f, err = os.Open(path); err != nil {
			t.Fatal(err)
		}
		head := make([]byte, len(header)+len(text))
		if _, err := io.ReadFull(f, head); err != nil || string(head) != header+text {
			t.Fatalf("%s: the file does not open with the header and FormatRelay's text (err %v)", b.name, err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		var g2 *graph.Graph
		loaded := allocatedBy(func() { g2, err = ReadModel(f) })
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		t.Logf("%s: payload %.1f MB, file %.1f MB; write allocated %.3f MB, read %.1f MB",
			b.name, float64(payload)/1e6, float64(size)/1e6, float64(saved)/1e6, float64(loaded)/1e6)
		if b.boundAllocs && float64(saved) > 0.02*float64(payload) {
			t.Errorf("%s: WriteModel allocated %d bytes, over 2%% of the %d-byte payload", b.name, saved, payload)
		}
		if b.boundAllocs && float64(loaded) > 1.1*float64(payload) {
			t.Errorf("%s: ReadModel allocated %d bytes, over 1.1× the %d-byte payload", b.name, loaded, payload)
		}
		requireSameGraph(t, g, g2)
		if models.ParamCount(g2) != models.ParamCount(g) {
			t.Fatalf("%s: params %d != %d", b.name, models.ParamCount(g2), models.ParamCount(g))
		}
		if err := compiler.InferShapes(g2); err != nil {
			t.Fatalf("%s: reloaded graph fails shape inference: %v", b.name, err)
		}
	}
}

// modelFile assembles a model file from its text and raw sections, each a
// shape followed by the float32 values actually present.
func modelFile(text string, sections ...[]uint32) []byte {
	b := []byte(fmt.Sprintf("duet-model %d %d %q\n%s", modelVersion, len(text), "m", text))
	for _, s := range sections {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return b
}

const oneWeight = "fn (%x: Tensor[(2)]) {\n  %a = add(%x, @w);\n  (%a)\n}\n"

func TestReadModelRejectsBadInput(t *testing.T) {
	one := math.Float32bits(1)
	good := modelFile(oneWeight, []uint32{1, 2, one, one})
	if _, err := ReadModel(bytes.NewReader(good)); err != nil {
		t.Fatalf("the well-formed file is refused: %v", err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"garbage":       []byte("not a model"),
		"bad magic":     []byte("duet-modal 2 1 \"m\"\nx"),
		"bad version":   bytes.Replace(good, []byte("duet-model 2"), []byte("duet-model 3"), 1),
		"v1 json":       []byte(`{"version":1,"name":"x","nodes":[],"outputs":[]}` + "\n"),
		"bad name":      []byte("duet-model 2 0 m\n"),
		"short text":    []byte("duet-model 2 99 \"m\"\nfn ("),
		"bad text":      modelFile("fn ( {"),
		"undef result":  modelFile("fn (%x: Tensor[(2)]) { %a = relu(%x); %b }"),
		"forward ref":   modelFile("fn (%x: Tensor[(2)]) { %a = relu(%b); %b = relu(%x); %b }"),
		"name clash":    modelFile("fn (%x: Tensor[(2)]) { %a = add(%x, @w); %w = relu(%a); %w }", []uint32{1, 2, one, one}),
		"no section":    modelFile(oneWeight),
		"short prefix":  modelFile(oneWeight, []uint32{2, 2}),
		"truncated":     modelFile(oneWeight, []uint32{1, 2, one}),
		"trailing":      append(append([]byte(nil), good...), 0),
		"huge rank":     modelFile(oneWeight, []uint32{1 << 20}),
		"overflow dims": modelFile(oneWeight, []uint32{3, 1 << 31, 1 << 31, 1 << 31}),
		"over-declared": modelFile(oneWeight, []uint32{1, 3, one, one}),
	}
	for name, file := range cases {
		// An unsized reader meets a bad section only as it reads.
		for _, r := range []io.Reader{bytes.NewReader(file), io.MultiReader(bytes.NewReader(file))} {
			if _, err := ReadModel(r); err == nil {
				t.Errorf("%s (%T): expected an error", name, r)
			}
		}
	}
	for file, version := range map[string]string{string(cases["v1 json"]): "version 1", string(cases["bad version"]): "version 3"} {
		if _, err := ReadModel(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), version) {
			t.Errorf("want an error naming %s, got %v", version, err)
		}
	}
}

func TestReadModelRefusesOversizedSectionBeforeAllocating(t *testing.T) {
	// A section declaring 4 GiB in a 100-byte stream is refused before the
	// weight is allocated whenever the reader knows its size.
	file := modelFile(oneWeight, []uint32{2, 1 << 20, 1 << 10, 0, 0})
	path := filepath.Join(t.TempDir(), "huge.model")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []io.Reader{bytes.NewReader(file), bytes.NewBuffer(file), f} {
		var err error
		if n := allocatedBy(func() { _, err = ReadModel(r) }); n > 1<<20 {
			t.Errorf("%T: allocated %d bytes before refusing", r, n)
		}
		if err == nil || !strings.Contains(err.Error(), "declares") {
			t.Errorf("%T: got %v, want a declared-size error", r, err)
		}
	}
}
