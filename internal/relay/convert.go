package relay

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// ToGraph lowers a module to the adjacency-list graph IR, resolving @const
// references from weights. This is the visitor-pattern translation the paper
// performs on Relay before partitioning (§V).
func ToGraph(m *Module, name string, weights map[string]*tensor.Tensor) (*graph.Graph, error) {
	g := graph.New(name)
	env := make(map[string]graph.NodeID, len(m.Params)+len(m.Bindings))
	consts := make(map[string]graph.NodeID)

	var err error
	m.Visit(func(p Param) {
		if err != nil {
			return
		}
		if _, dup := env[p.Name]; dup {
			err = fmt.Errorf("relay: duplicate name %%%s", p.Name)
			return
		}
		env[p.Name] = g.AddInput(p.Name, p.Shape...)
	}, func(b Binding) {
		if err != nil {
			return
		}
		inputs := make([]graph.NodeID, len(b.Args))
		for i, a := range b.Args {
			if a.IsConst {
				id, ok := consts[a.Name]
				if !ok {
					w, found := weights[a.Name]
					if !found {
						err = fmt.Errorf("relay: binding %%%s references unknown weight @%s", b.Name, a.Name)
						return
					}
					if g.NodeByName(a.Name) != nil {
						err = fmt.Errorf("relay: weight @%s collides with a %%%s binding or parameter name", a.Name, a.Name)
						return
					}
					id = g.AddConst(a.Name, w)
					consts[a.Name] = id
				}
				inputs[i] = id
				continue
			}
			id, ok := env[a.Name]
			if !ok {
				err = fmt.Errorf("relay: binding %%%s references undefined %%%s", b.Name, a.Name)
				return
			}
			inputs[i] = id
		}
		if g.NodeByName(b.Name) != nil {
			err = fmt.Errorf("relay: duplicate name %%%s", b.Name)
			return
		}
		env[b.Name] = g.Add(b.Op, b.Name, b.Attrs.Clone(), inputs...)
	})
	if err != nil {
		return nil, err
	}

	outs := make([]graph.NodeID, len(m.Results))
	for i, r := range m.Results {
		id, ok := env[r]
		if !ok {
			return nil, fmt.Errorf("relay: result references undefined %%%s", r)
		}
		outs[i] = id
	}
	g.SetOutputs(outs...)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromGraph raises a graph back to a module plus its weight environment —
// the inverse translation used to hand partitioned subgraphs back to the
// compiler as Relay programs. Input placeholders become parameters and const
// nodes become @weights keyed by node name. A graph the text cannot express
// is an error: a name or op that is not an ident, an attribute that is not
// an int, string or []int, a const without a value, a const no node reads,
// or a const declared as an output.
func FromGraph(g *graph.Graph) (*Module, map[string]*tensor.Tensor, error) {
	m := &Module{}
	weights := make(map[string]*tensor.Tensor)
	unread := make(map[graph.NodeID]bool) // consts no binding has read yet

	for _, n := range g.Nodes() {
		if !isIdent(n.Name) {
			return nil, nil, fmt.Errorf("relay: node name %q is not an identifier", n.Name)
		}
		switch {
		case n.IsInput():
			m.Params = append(m.Params, Param{Name: n.Name, Shape: append([]int(nil), n.Shape...)})
		case n.IsConst():
			if n.Value == nil {
				return nil, nil, fmt.Errorf("relay: const node %q has no value", n.Name)
			}
			weights[n.Name] = n.Value
			unread[n.ID] = true
		default:
			if !isIdent(n.Op) {
				return nil, nil, fmt.Errorf("relay: node %q has op %q, not an identifier", n.Name, n.Op)
			}
			for k, v := range n.Attrs {
				switch v.(type) {
				case int, string, []int:
				default:
					return nil, nil, fmt.Errorf("relay: node %q attribute %s is a %T; the text holds int, string and []int", n.Name, k, v)
				}
				if !isIdent(k) {
					return nil, nil, fmt.Errorf("relay: node %q attribute key %q is not an identifier", n.Name, k)
				}
			}
			b := Binding{Name: n.Name, Op: n.Op, Attrs: n.Attrs.Clone()}
			for _, in := range n.Inputs {
				b.Args = append(b.Args, Arg{Name: g.Node(in).Name, IsConst: g.Node(in).IsConst()})
				delete(unread, in)
			}
			m.Bindings = append(m.Bindings, b)
		}
	}
	for _, o := range g.Outputs() {
		if g.Node(o).IsConst() {
			return nil, nil, fmt.Errorf("relay: const %q is declared as an output", g.Node(o).Name)
		}
		m.Results = append(m.Results, g.Node(o).Name)
	}
	for _, n := range g.Nodes() {
		if unread[n.ID] {
			return nil, nil, fmt.Errorf("relay: const %q is read by no node", n.Name)
		}
	}
	if len(m.Results) == 0 {
		return nil, nil, fmt.Errorf("relay: graph %q has no outputs", g.Name)
	}
	return m, weights, nil
}
