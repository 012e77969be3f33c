package runtime

import (
	"fmt"
	"sync"

	"duet/internal/tensor"
)

// Dataflow is the value state of one execution of an engine's Skeleton, and
// Fire the one implementation of the runtime's host firing rule (§IV-D,
// Fig. 9): take a ready subgraph, run its compiled kernels, publish its
// outputs, signal the dependents. Run fires it in partition order; a
// LaneSet (RunParallel, serve's replicas) fires it from one worker per lane
// (docs/ARCHITECTURE.md §5).
type Dataflow struct {
	e     *Engine
	arena *tensor.Arena

	mu      sync.Mutex       // guards everything below
	values  []*tensor.Tensor // skeleton value order
	pending []int            // unresolved producer subgraphs, per subgraph
	uses    []int            // remaining consumers per value; nil without an arena
	left    int              // subgraphs not yet fired
	err     error            // first module failure
}

// NewDataflow checks the caller's inputs against the parent graph and returns
// an execution with them bound. Modules draw their buffers from arena and
// consumed intermediates return to it; nil executes with plain allocation.
func (e *Engine) NewDataflow(inputs map[string]*tensor.Tensor, arena *tensor.Arena) (*Dataflow, error) {
	sk := e.Skeleton
	d := &Dataflow{
		e: e, arena: arena,
		values:  make([]*tensor.Tensor, len(sk.producer)),
		pending: append([]int(nil), sk.Pending...),
		left:    len(e.subgraphs),
	}
	if arena != nil {
		d.uses = append(d.uses, sk.uses...)
	}
	for v, id := range e.Parent.InputIDs() {
		n := e.Parent.Node(id)
		t, ok := inputs[n.Name]
		if !ok {
			return nil, fmt.Errorf("runtime: missing input %q", n.Name)
		}
		if !tensor.ShapeEq(t.Shape(), n.Shape) {
			return nil, fmt.Errorf("runtime: input %q has shape %v, want %v", n.Name, t.Shape(), n.Shape)
		}
		d.values[v] = t
	}
	return d, nil
}

// Fire executes subgraph i, whose producers must all have fired — a root, or
// an index an earlier Fire reported ready; partition order is one such order.
// It returns the dependents this completion made ready and whether i was the
// execution's last subgraph. The dependency counts derive from the compiled
// sync plan — the same artifact the happens-before verifier proves sufficient
// (verify.CheckHB) — so the rule and the static proof obligation cannot
// drift apart.
func (d *Dataflow) Fire(i int) (ready []int, last bool) {
	sk := d.e.Skeleton
	d.mu.Lock()
	in := make(map[string]*tensor.Tensor, len(sk.consumes[i]))
	for _, v := range sk.consumes[i] {
		in[sk.placeholders[v]] = d.values[v]
	}
	d.mu.Unlock()

	outs, err := d.e.modules[i].ExecuteArena(in, d.arena)

	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		// Record the failure but keep the dataflow draining: dependents
		// receive zero placeholders, so every subgraph still fires, no
		// concurrent caller waits for a signal that never comes, and the
		// execution reports the error, not the values.
		sub := d.e.subgraphs[i]
		if d.err == nil {
			d.err = fmt.Errorf("runtime: executing %s: %w", sub.Graph.Name, err)
		}
		outs = make([]*tensor.Tensor, len(sub.Outputs))
		for oi, pid := range sub.Outputs {
			outs[oi] = tensor.New(d.e.Parent.Node(pid).Shape...)
		}
	}
	for oi, v := range sk.produces[i] {
		d.values[v] = outs[oi]
	}
	if d.uses != nil {
		d.releaseConsumed(sk.consumes[i])
	}
	for _, c := range sk.Dependents[i] {
		d.pending[c]--
		if d.pending[c] == 0 {
			ready = append(ready, c)
		}
	}
	d.left--
	return ready, d.left == 0
}

// releaseConsumed returns cross-subgraph intermediate values to the arena
// once their last consuming subgraph has executed (uses starts as the
// skeleton's consumer counts, which hold graph inputs and declared outputs
// back for the caller). A value still referenced by an aliasing view
// elsewhere in the table (a subgraph whose output is a reshape of its input
// shares storage with it) is left to the garbage collector instead.
func (d *Dataflow) releaseConsumed(consumed []int) {
	for _, v := range consumed {
		d.uses[v]--
		if d.uses[v] != 0 {
			continue
		}
		t := d.values[v]
		if t == nil || len(t.Data()) == 0 {
			continue
		}
		shared := false
		for ov, o := range d.values {
			if ov != v && o != nil && len(o.Data()) > 0 && &o.Data()[0] == &t.Data()[0] {
				shared = true
				break
			}
		}
		if !shared {
			d.arena.Release(t)
			d.values[v] = nil
		}
	}
}

// Err returns the first module failure so far, nil if every fired subgraph
// executed.
func (d *Dataflow) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Outputs returns the declared graph outputs; complete once Fire has reported
// last. They are the caller's: the rule never recycles them.
func (d *Dataflow) Outputs() []*tensor.Tensor {
	d.mu.Lock()
	defer d.mu.Unlock()
	outputs := make([]*tensor.Tensor, len(d.e.Skeleton.outputs))
	for oi, v := range d.e.Skeleton.outputs {
		outputs[oi] = d.values[v]
	}
	return outputs
}
