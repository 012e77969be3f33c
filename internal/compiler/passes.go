package compiler

import (
	"fmt"
	"sort"
	"strings"

	"duet/internal/graph"
	"duet/internal/ops"
	"duet/internal/tensor"
)

// rebuilder copies a graph while letting passes redirect or drop nodes.
type rebuilder struct {
	src   *graph.Graph
	dst   *graph.Graph
	remap map[graph.NodeID]graph.NodeID
}

func newRebuilder(src *graph.Graph) *rebuilder {
	return &rebuilder{src: src, dst: graph.New(src.Name), remap: make(map[graph.NodeID]graph.NodeID, src.Len())}
}

// copyNode clones node id (with remapped inputs) into the destination graph.
func (r *rebuilder) copyNode(id graph.NodeID) graph.NodeID {
	n := r.src.Node(id)
	inputs := make([]graph.NodeID, len(n.Inputs))
	for i, in := range n.Inputs {
		inputs[i] = r.remap[in]
	}
	var nid graph.NodeID
	switch {
	case n.IsInput():
		nid = r.dst.AddInput(n.Name, n.Shape...)
	case n.IsConst():
		nid = r.dst.AddConst(n.Name, n.Value)
	default:
		nid = r.dst.Add(n.Op, n.Name, n.Attrs.Clone(), inputs...)
		r.dst.Node(nid).Shape = append([]int(nil), n.Shape...)
	}
	r.remap[id] = nid
	return nid
}

// finish remaps the declared outputs and returns the rebuilt graph.
func (r *rebuilder) finish() *graph.Graph {
	outs := make([]graph.NodeID, len(r.src.Outputs()))
	for i, o := range r.src.Outputs() {
		outs[i] = r.remap[o]
	}
	r.dst.SetOutputs(outs...)
	return r.dst
}

// DCE removes nodes from which no declared output is reachable.
func DCE(g *graph.Graph) *graph.Graph {
	live := g.Reachable()
	r := newRebuilder(g)
	for _, id := range g.TopoSort() {
		if live[id] {
			r.copyNode(id)
		}
	}
	return r.finish()
}

// ConstantFold evaluates nodes whose inputs are all constants and replaces
// them with const nodes. Shapes must be inferred first.
func ConstantFold(g *graph.Graph) (*graph.Graph, error) {
	r := newRebuilder(g)
	for _, id := range g.TopoSort() {
		n := g.Node(id)
		if n.IsInput() || n.IsConst() {
			r.copyNode(id)
			continue
		}
		allConst := len(n.Inputs) > 0
		for _, in := range n.Inputs {
			if !r.dst.Node(r.remap[in]).IsConst() {
				allConst = false
				break
			}
		}
		if !allConst {
			r.copyNode(id)
			continue
		}
		def, err := ops.Lookup(n.Op)
		if err != nil {
			return nil, fmt.Errorf("compiler: fold %q: %w", n.Name, err)
		}
		inputs := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = r.dst.Node(r.remap[in]).Value
		}
		// No arena: a folded value becomes a graph constant and must
		// outlive every run.
		val := def.Exec(n.Attrs, inputs, nil)
		r.remap[id] = r.dst.AddConst(n.Name, val)
	}
	return r.finish(), nil
}

// CSE merges structurally identical nodes: same op, same remapped inputs,
// and same attributes. Constants are merged when they are the same object.
func CSE(g *graph.Graph) *graph.Graph {
	r := newRebuilder(g)
	seen := make(map[string]graph.NodeID)
	for _, id := range g.TopoSort() {
		n := g.Node(id)
		if n.IsInput() {
			r.copyNode(id)
			continue
		}
		key := cseKey(r, n)
		if prev, ok := seen[key]; ok {
			r.remap[id] = prev
			continue
		}
		nid := r.copyNode(id)
		seen[key] = nid
	}
	return r.finish()
}

func cseKey(r *rebuilder, n *graph.Node) string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.IsConst() {
		// Identity-based: merging requires the same underlying tensor.
		fmt.Fprintf(&b, "|const:%p", n.Value)
		return b.String()
	}
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "|%d", r.remap[in])
	}
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%v", k, n.Attrs[k])
	}
	return b.String()
}

// Simplify applies local algebraic rewrites: x+0 → x, x*1 → x, x*0 → 0
// (as a folded const), and collapses identity reshapes.
func Simplify(g *graph.Graph) *graph.Graph {
	r := newRebuilder(g)
	for _, id := range g.TopoSort() {
		n := g.Node(id)
		if n.IsInput() || n.IsConst() {
			r.copyNode(id)
			continue
		}
		if alias, ok := simplifyAlias(g, r, n); ok {
			r.remap[id] = alias
			continue
		}
		r.copyNode(id)
	}
	return DCE(r.finish())
}

// simplifyAlias returns the destination node a simplifiable node collapses
// to, if any.
func simplifyAlias(g *graph.Graph, r *rebuilder, n *graph.Node) (graph.NodeID, bool) {
	constVal := func(i int) (*tensor.Tensor, bool) {
		src := g.Node(n.Inputs[i])
		if src.IsConst() {
			return src.Value, true
		}
		return nil, false
	}
	uniform := func(t *tensor.Tensor, v float32) bool {
		for _, x := range t.Data() {
			if x != v {
				return false
			}
		}
		return true
	}
	switch n.Op {
	case "add", "sub":
		if v, ok := constVal(1); ok && uniform(v, 0) {
			if tensor.ShapeEq(g.Node(n.Inputs[0]).Shape, n.Shape) {
				return r.remap[n.Inputs[0]], true
			}
		}
	case "mul", "div":
		if v, ok := constVal(1); ok && uniform(v, 1) {
			if tensor.ShapeEq(g.Node(n.Inputs[0]).Shape, n.Shape) {
				return r.remap[n.Inputs[0]], true
			}
		}
	case "reshape", "flatten":
		if tensor.ShapeEq(g.Node(n.Inputs[0]).Shape, n.Shape) {
			return r.remap[n.Inputs[0]], true
		}
	}
	return 0, false
}

// Options selects which graph-level optimizations run during compilation.
// The zero value disables everything (the framework-baseline configuration);
// DefaultOptions enables the full TVM-like pipeline.
type Options struct {
	Fold     bool
	CSE      bool
	Simplify bool
	DCE      bool
	// Fuse grows maximal elementwise fusion groups (see Fuse); off emits
	// one kernel per graph node.
	Fuse bool
	// Tune enables per-device low-level schedule selection (TunedCosts).
	Tune bool
}

// DefaultOptions enables every pass.
func DefaultOptions() Options {
	return Options{Fold: true, CSE: true, Simplify: true, DCE: true, Fuse: true, Tune: true}
}

// Optimize runs the enabled graph-level passes and returns the rewritten
// graph with shapes inferred.
func Optimize(g *graph.Graph, opt Options) (*graph.Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := InferShapes(g); err != nil {
		return nil, err
	}
	var err error
	if opt.Fold {
		if g, err = ConstantFold(g); err != nil {
			return nil, err
		}
	}
	if opt.CSE {
		g = CSE(g)
	}
	if opt.Simplify {
		g = Simplify(g)
	}
	if opt.DCE {
		g = DCE(g)
	}
	// Rewrites preserve shapes node-by-node, but re-infer to be safe.
	if err := InferShapes(g); err != nil {
		return nil, err
	}
	return g, nil
}
