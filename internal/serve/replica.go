package serve

import (
	"slices"

	"duet/internal/device"
	"duet/internal/runtime"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// replica is one engine replica: its own virtual CPU-GPU device pair (so
// timing noise streams are independent per replica), its own tensor arena,
// and its own lane set. Compiled modules and the weights, which carry their
// packed panels, are shared across replicas — weights are read-only — which
// is what makes replication cheap: a replica costs an arena, not a model
// copy.
type replica struct {
	id    int
	plat  *device.Platform
	arena *tensor.Arena
	// lanes fires the replica's in-flight batches, one flight each; opened
	// by New, closed by Server.Close.
	lanes *runtime.LaneSet

	// Event-loop-owned state (never touched by the workers): the per-device
	// virtual clocks and accumulated busy seconds (one entry per lane), and
	// the in-flight batches ordered by finish time.
	clocks   []vclock.Seconds
	busy     []vclock.Seconds
	inflight []*batch
}

func newReplica(id int, seed int64) *replica {
	r := &replica{
		id:    id,
		plat:  device.NewPlatform(replicaSeed(seed, id)),
		arena: tensor.NewArena(),
	}
	r.reset()
	return r
}

// replicaSeed derives independent noise streams per replica; seed 0 keeps
// every replica noiseless.
func replicaSeed(seed int64, id int) int64 {
	if seed == 0 {
		return 0
	}
	return seed + 7919*int64(id+1)
}

// reset clears the per-run scheduling state (the arena stays warm across
// runs on purpose).
func (r *replica) reset() {
	r.clocks = make([]vclock.Seconds, runtime.Lanes)
	r.busy = make([]vclock.Seconds, runtime.Lanes)
	r.inflight = nil
}

// timeBatch walks the batch's subgraphs against the replica's virtual device
// clocks and fixes the batch's finish time. In pipelined mode the clocks
// carry over from the previous batch — request r+1's CPU phase overlaps
// request r's GPU phase exactly as in runtime.MeasurePipelined — otherwise
// every clock jumps to the dispatch instant (one batch at a time). Timing
// noise comes from the replica's own platform; the replica is the walk's
// sink, for busy seconds. Event-loop thread only.
func (r *replica) timeBatch(b *batch, now vclock.Seconds, pipelined bool) {
	start := now
	if !pipelined {
		start = max(now, slices.Max(r.clocks))
	}
	for k, c := range r.clocks {
		r.clocks[k] = max(c, start)
	}
	eng := b.be.eng
	w := runtime.NewWalk(eng.Skeleton, eng.Sampler(r.plat, false), r)
	w.Begin(r.clocks, now)
	b.finish = w.Latency(b.be.place)
}

// Dispatched accumulates the replica's per-device busy seconds.
func (r *replica) Dispatched(_, lane int, _, dur vclock.Seconds) {
	r.busy[lane] += dur
}

// Transferred is the other half of runtime.Sink; link time is not reported.
func (r *replica) Transferred(_, _, _ int, _, _ vclock.Seconds) {}

// batch is one dispatched unit of work: the stacked inputs of its member
// requests flowing through one batchEngine on one replica. Its value state
// and dependency counters are a runtime.Dataflow — the engine's own firing
// rule, fired by the replica's lane set.
type batch struct {
	be      *batchEngine
	members []*pending
	rowsPer []int // member leading extents, StackLead/SplitLead order
	finish  vclock.Seconds

	flow *runtime.Dataflow
	// stacked are the batch's input tensors: serve's copies, drawn from the
	// replica arena and returned to it at finalize.
	stacked []*tensor.Tensor

	// memberOuts[m][o] is member m's slice of output o, filled at finalize.
	memberOuts [][]*tensor.Tensor
	done       chan struct{}
}

// newBatch stacks the member inputs along the leading dimension (drawing
// from the replica's arena — serve owns the stacked copies, so the callers'
// input tensors are never touched again after dispatch) and binds them to a
// dataflow of the batch engine on that arena.
func newBatch(be *batchEngine, members []*pending, ar *tensor.Arena) (*batch, error) {
	b := &batch{be: be, members: members, done: make(chan struct{})}
	for _, p := range members {
		b.rowsPer = append(b.rowsPer, p.rows)
	}
	parts := make([]*tensor.Tensor, len(members))
	inputs := make(map[string]*tensor.Tensor)
	for _, id := range be.eng.Parent.InputIDs() {
		name := be.eng.Parent.Node(id).Name
		for mi, p := range members {
			parts[mi] = p.req.Inputs[name]
		}
		inputs[name] = tensor.StackLead(ar, parts...)
		b.stacked = append(b.stacked, inputs[name])
	}
	var err error
	b.flow, err = be.eng.NewDataflow(inputs, ar)
	return b, err
}

// finalize splits the batched outputs back per member and recycles what the
// firing rule did not. A single-member batch hands its output tensors
// through directly (no copy, protected from recycling); a multi-member
// batch's members get independent row copies via SplitLead, making the
// split bit-identical to running each request alone. Runs on the lane
// worker that fired the last subgraph — the dataflow is over.
func (b *batch) finalize(ar *tensor.Arena) {
	if b.flow.Err() != nil {
		return
	}
	outs := b.flow.Outputs()
	// The rule returned every consumed intermediate as the batch ran; graph
	// inputs and declared outputs it holds back for the caller, which here is
	// serve: the stacked inputs are its copies, and the outputs are copied
	// out below or handed through. Head-pointer dedup guards aliases: a value
	// sharing storage with a handed-out output is kept, and shared storage is
	// released at most once.
	kept := map[*float32]bool{}
	if len(b.members) == 1 {
		b.memberOuts = [][]*tensor.Tensor{outs}
		for _, v := range outs {
			if v != nil && len(v.Data()) > 0 {
				kept[&v.Data()[0]] = true
			}
		}
		outs = nil
	} else {
		b.memberOuts = make([][]*tensor.Tensor, len(b.members))
		for mi := range b.memberOuts {
			b.memberOuts[mi] = make([]*tensor.Tensor, len(outs))
		}
		for oi, v := range outs {
			pieces := tensor.SplitLead(v, b.rowsPer)
			for mi := range b.members {
				b.memberOuts[mi][oi] = pieces[mi]
			}
		}
	}
	for _, v := range append(b.stacked, outs...) {
		if v == nil || len(v.Data()) == 0 || kept[&v.Data()[0]] {
			continue
		}
		kept[&v.Data()[0]] = true
		ar.Release(v)
	}
}
