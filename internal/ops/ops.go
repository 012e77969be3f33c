// Package ops is the operator registry: for every operator kind it provides
// shape inference, an analytic cost descriptor (FLOPs, memory traffic,
// parallelism, kernel-launch structure) consumed by the device models, and a
// reference execution function over the tensor engine. The compiler and both
// executors (DUET runtime and the framework baseline) dispatch through it.
package ops

import (
	"fmt"
	"sort"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// Cost describes the work one operator performs. Device models translate a
// Cost into time: compute-bound time from FLOPs, memory-bound time from
// Bytes, kernel-launch overhead from Launches, and serialization from
// SeqSteps (an op with SeqSteps=T behaves like T dependent kernels — the
// reason RNNs are slow on GPUs at batch 1, §III-B).
type Cost struct {
	// FLOPs is the total floating-point operation count.
	FLOPs float64
	// Bytes is the total memory traffic (reads + writes), including weight
	// streaming for memory-bound kernels such as GEMV.
	Bytes float64
	// Parallelism is the number of independent work items available per
	// sequential step; it determines how much of a device's peak a kernel
	// can use.
	Parallelism float64
	// Launches is the number of device kernels launched per sequential step
	// before fusion (a framework baseline launches all of them; the compiler
	// fuses them down).
	Launches int
	// SeqSteps is the number of serialized dependent steps (sequence length
	// for recurrent ops, 1 otherwise).
	SeqSteps int
}

// Add accumulates o into c, keeping the max parallelism and summing the
// rest; used when fusing several ops into one kernel plan.
func (c Cost) Add(o Cost) Cost {
	if o.Parallelism > c.Parallelism {
		c.Parallelism = o.Parallelism
	}
	c.FLOPs += o.FLOPs
	c.Bytes += o.Bytes
	c.Launches += o.Launches
	if o.SeqSteps > c.SeqSteps {
		c.SeqSteps = o.SeqSteps
	}
	return c
}

// Def describes one operator kind.
type Def struct {
	Kind string
	// Infer computes the output shape from attributes and input shapes.
	Infer func(attrs graph.Attrs, in [][]int) ([]int, error)
	// Cost computes the work descriptor; out is the inferred output shape.
	Cost func(attrs graph.Attrs, in [][]int, out []int) Cost
	// Exec computes the operator on the host tensor engine, drawing its
	// output and internal intermediates from ar so the executor can recycle
	// activation buffers across runs. A nil ar means plain allocation.
	Exec func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
	// Alias marks ops whose output shares storage with an input (reshape,
	// flatten). The executor must neither recycle an alias output nor
	// release the aliased input while the view is live.
	Alias bool
	// Elementwise ops can fuse into a preceding anchor's epilogue.
	Elementwise bool
	// Anchor ops (dense, conv2d, lstm, ...) can host a fusion group.
	Anchor bool
}

var registry = map[string]*Def{}

// Register installs an operator definition; it panics on duplicates and is
// intended to be called from init functions only.
func Register(d *Def) {
	if d.Kind == "" || d.Infer == nil || d.Cost == nil || d.Exec == nil {
		panic(fmt.Sprintf("ops: incomplete definition for %q", d.Kind))
	}
	if _, dup := registry[d.Kind]; dup {
		panic(fmt.Sprintf("ops: duplicate registration of %q", d.Kind))
	}
	registry[d.Kind] = d
}

// Lookup returns the definition for kind, or an error for unknown kinds.
func Lookup(kind string) (*Def, error) {
	d, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator kind %q", kind)
	}
	return d, nil
}

// MustLookup is Lookup for kinds that are statically known to exist.
func MustLookup(kind string) *Def {
	d, err := Lookup(kind)
	if err != nil {
		panic(err)
	}
	return d
}

// Kinds returns all registered operator kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- shared shape helpers ---

func wantRank(kind string, in [][]int, idx, rank int) error {
	if len(in[idx]) != rank {
		return fmt.Errorf("ops: %s input %d must have rank %d, got shape %v", kind, idx, rank, in[idx])
	}
	return nil
}

func wantInputs(kind string, in [][]int, counts ...int) error {
	for _, c := range counts {
		if len(in) == c {
			return nil
		}
	}
	return fmt.Errorf("ops: %s expects %v inputs, got %d", kind, counts, len(in))
}

func numel(shape []int) float64 {
	n := 1.0
	for _, d := range shape {
		n *= float64(d)
	}
	return n
}

func cloneShape(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}
