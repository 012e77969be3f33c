// Package relay implements a small expression-oriented intermediate
// representation modelled on TVM's Relay (paper §V). Programs are pure
// let-binding sequences over tensor operators, written in a BNF grammar:
//
//	module  := "fn" "(" params ")" "{" bindings result "}"
//	param   := "%" ident ":" "Tensor" "[" "(" dims ")" "]"
//	binding := "%" ident "=" ident "(" args ")" [ attrs ] ";"
//	arg     := "%" ident | "@" ident            // @ references a weight
//	attrs   := "{" ident "=" value { "," ... } "}"
//	value   := int | "[" int { "," int } "]" | string  // string: Go-quoted
//	result  := ref | "(" ref { "," ref } ")"
//
// DUET translates this representation to and from the adjacency-list graph
// IR (graph.Graph) with a visitor, mirroring Fig. 10 of the paper.
//
// A model file (WriteModel / ReadModel) is that text plus its weights:
//
//	duet-model 2 <text bytes> <Go-quoted graph name>\n
//	<the Relay text, exactly as Module.String prints it>
//	per @weight, in the order the text first references it:
//	  rank uint32, rank × dim uint32, dims' product × float32
//
// Every number after the text is little-endian.
package relay

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"duet/internal/graph"
)

// Param is a function parameter: a runtime input tensor with a shape.
type Param struct {
	Name  string
	Shape []int
}

// Arg is an operand reference: a %binding/%param or a @constant.
type Arg struct {
	Name    string
	IsConst bool
}

// Binding is one let-binding: %name = op(args) {attrs}.
type Binding struct {
	Name  string
	Op    string
	Args  []Arg
	Attrs graph.Attrs
}

// Module is a single-function Relay program.
type Module struct {
	Params   []Param
	Bindings []Binding
	Results  []string // names of the returned bindings/params
}

// Visit walks the module in program order, calling param for each parameter
// and bind for each binding. It is the visitor the graph translation is
// built on.
func (m *Module) Visit(param func(Param), bind func(Binding)) {
	for _, p := range m.Params {
		param(p)
	}
	for _, b := range m.Bindings {
		bind(b)
	}
}

// weightOrder lists the @weight names in the order the bindings first
// reference them: the order ToGraph adds their consts and a model file
// stores them.
func (m *Module) weightOrder() []string {
	var names []string
	seen := make(map[string]bool)
	for _, b := range m.Bindings {
		for _, a := range b.Args {
			if a.IsConst && !seen[a.Name] {
				seen[a.Name] = true
				names = append(names, a.Name)
			}
		}
	}
	return names
}

// String pretty-prints the module in the grammar above; Parse(m.String())
// reproduces an equivalent module.
func (m *Module) String() string {
	var b strings.Builder
	b.WriteString("fn (")
	for i, p := range m.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%%s: Tensor[(%s)]", p.Name, joinInts(p.Shape))
	}
	b.WriteString(") {\n")
	for _, bd := range m.Bindings {
		fmt.Fprintf(&b, "  %%%s = %s(", bd.Name, bd.Op)
		for i, a := range bd.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if a.IsConst {
				b.WriteString("@" + a.Name)
			} else {
				b.WriteString("%" + a.Name)
			}
		}
		b.WriteString(")")
		if len(bd.Attrs) > 0 {
			b.WriteString(" {")
			keys := make([]string, 0, len(bd.Attrs))
			for k := range bd.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, k := range keys {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s=%s", k, formatAttr(bd.Attrs[k]))
			}
			b.WriteString("}")
		}
		b.WriteString(";\n")
	}
	b.WriteString("  (")
	for i, r := range m.Results {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("%" + r)
	}
	b.WriteString(")\n}\n")
	return b.String()
}

// formatAttr prints an attribute value; FromGraph admits only these types.
func formatAttr(v interface{}) string {
	switch x := v.(type) {
	case int:
		return strconv.Itoa(x)
	case string:
		return strconv.Quote(x)
	case []int:
		return "[" + joinInts(x) + "]"
	default:
		panic(fmt.Sprintf("relay: unsupported attribute type %T", v))
	}
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ", ")
}
