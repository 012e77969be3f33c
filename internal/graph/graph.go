// Package graph defines the dataflow-graph intermediate representation that
// DUET partitions and schedules. A Graph is a DAG whose nodes are tensor
// operators and whose edges are data dependencies, held in adjacency-list
// form (the translation target of the Relay-like IR, paper §V / Fig. 10).
package graph

import (
	"fmt"
	"sort"

	"duet/internal/tensor"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Attrs carries operator attributes (stride, padding, hidden size, ...).
// Values are ints, floats, strings, or []int.
type Attrs map[string]interface{}

// Int returns the int attribute key, or def when absent.
func (a Attrs) Int(key string, def int) int {
	if v, ok := a[key]; ok {
		return v.(int)
	}
	return def
}

// Str returns the string attribute key, or def when absent.
func (a Attrs) Str(key, def string) string {
	if v, ok := a[key]; ok {
		return v.(string)
	}
	return def
}

// Ints returns the []int attribute key, or nil when absent.
func (a Attrs) Ints(key string) []int {
	if v, ok := a[key]; ok {
		return v.([]int)
	}
	return nil
}

// Clone returns a shallow copy of the attribute map.
func (a Attrs) Clone() Attrs {
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Node is one operator in the dataflow graph.
type Node struct {
	ID     NodeID
	Op     string // operator kind, e.g. "matmul", "conv2d", "lstm"
	Name   string // unique human-readable name
	Inputs []NodeID
	Attrs  Attrs

	// Value holds the payload of "const" nodes (weights); nil otherwise.
	Value *tensor.Tensor

	// Shape is the inferred output shape; populated by compiler.InferShapes.
	Shape []int
}

// IsConst reports whether the node is a compile-time constant (weight).
func (n *Node) IsConst() bool { return n.Op == OpConst }

// IsInput reports whether the node is a runtime input placeholder.
func (n *Node) IsInput() bool { return n.Op == OpInput }

// Well-known structural operator kinds. Compute kinds live in the ops
// registry; these two are special-cased across the stack.
const (
	OpInput = "input"
	OpConst = "const"
)

// Graph is a mutable operator DAG with adjacency lists in both directions.
type Graph struct {
	Name    string
	nodes   []*Node
	byName  map[string]NodeID
	outputs []NodeID
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]NodeID)}
}

// Add appends a node with the given operator kind, unique name, attributes
// and input node IDs, returning its ID. It panics on duplicate names or
// dangling input references — graph construction errors are programming
// errors in model builders, not runtime conditions.
func (g *Graph) Add(op, name string, attrs Attrs, inputs ...NodeID) NodeID {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node name %q", name))
	}
	for _, in := range inputs {
		if int(in) < 0 || int(in) >= len(g.nodes) {
			panic(fmt.Sprintf("graph: node %q references unknown input %d", name, in))
		}
	}
	if attrs == nil {
		attrs = Attrs{}
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, &Node{ID: id, Op: op, Name: name, Inputs: append([]NodeID(nil), inputs...), Attrs: attrs})
	g.byName[name] = id
	return id
}

// AddInput adds a runtime input placeholder with the given shape.
func (g *Graph) AddInput(name string, shape ...int) NodeID {
	id := g.Add(OpInput, name, Attrs{})
	g.nodes[id].Shape = append([]int(nil), shape...)
	return id
}

// AddConst adds a constant (weight) node holding v. The payload is pinned:
// its contents are stable for the lifetime of the graph, so it keeps its
// packed GEMM panels across calls and the arena refuses to recycle it.
func (g *Graph) AddConst(name string, v *tensor.Tensor) NodeID {
	id := g.Add(OpConst, name, Attrs{})
	g.nodes[id].Value = v.MarkPinned()
	g.nodes[id].Shape = append([]int(nil), v.Shape()...)
	return id
}

// SetOutputs declares the graph outputs, in order.
func (g *Graph) SetOutputs(ids ...NodeID) {
	g.outputs = append([]NodeID(nil), ids...)
}

// Outputs returns the declared output node IDs.
func (g *Graph) Outputs() []NodeID { return g.outputs }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// NodeByName returns the node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	if id, ok := g.byName[name]; ok {
		return g.nodes[id]
	}
	return nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all nodes in insertion order. The slice is shared.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Consumers returns, for every node, the IDs of nodes that consume its
// output. A node consuming the same producer twice appears twice.
func (g *Graph) Consumers() map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n.ID)
		}
	}
	return out
}

// InputIDs returns all runtime input placeholder IDs in insertion order.
func (g *Graph) InputIDs() []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.IsInput() {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Validate checks structural invariants: output references resolve, inputs
// precede consumers (construction order is already topological by design of
// Add), and the graph is acyclic.
func (g *Graph) Validate() error {
	for _, o := range g.outputs {
		if int(o) < 0 || int(o) >= len(g.nodes) {
			return fmt.Errorf("graph %s: output id %d out of range", g.Name, o)
		}
	}
	if len(g.outputs) == 0 {
		return fmt.Errorf("graph %s: no outputs declared", g.Name)
	}
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			if in >= n.ID {
				return fmt.Errorf("graph %s: node %q (id %d) consumes id %d which does not precede it", g.Name, n.Name, n.ID, in)
			}
		}
	}
	return nil
}

// TopoSort returns the node IDs in a dependency-respecting order.
// Construction order is topological by the Add invariant, so this returns
// IDs ascending; it exists so callers don't depend on that invariant.
func (g *Graph) TopoSort() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// Reachable returns the set of nodes from which the declared outputs are
// reachable (i.e. live nodes); everything else is dead code.
func (g *Graph) Reachable() map[NodeID]bool {
	live := make(map[NodeID]bool)
	stack := append([]NodeID(nil), g.outputs...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[id] {
			continue
		}
		live[id] = true
		stack = append(stack, g.nodes[id].Inputs...)
	}
	return live
}

// SortedIDs returns the keys of a node-set in ascending order — a helper for
// deterministic iteration over subgraph node sets.
func SortedIDs(set map[NodeID]bool) []NodeID {
	ids := make([]NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
