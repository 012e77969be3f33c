package runtime

import (
	"fmt"

	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/hb"
	"duet/internal/ops"
	"duet/internal/vclock"
)

// This file is the one implementation of the runtime's timing rule (§IV-D):
// each device runs its subgraphs FIFO; a subgraph starts when its device is
// free and every boundary value has arrived, paying the interconnect once
// per value and destination, plus one hop through the synchronization queue.
// Every serial timeline in the repo is a Walk over a Skeleton, differing
// only in Sampler, starting clocks and Sink (docs/ARCHITECTURE.md §5).

const (
	// syncQueueOverhead models one push+pop through the shared-memory
	// synchronization queue between the scheduler and a device worker.
	syncQueueOverhead vclock.Seconds = 2e-6
	// Lanes is the roster of a device.Platform: one lane per device.Kind.
	// The Walk itself takes whatever roster Begin is given.
	Lanes = 2
	// hostLane is where graph inputs start and outputs are gathered.
	hostLane = int(device.CPU)
	// nowhere marks a value that has not reached a lane yet.
	nowhere vclock.Seconds = -1
)

// Skeleton is the placement-independent dataflow of a partitioned model:
// boundary values interned to dense indices, who consumes and produces each,
// and the sync plan. Immutable after NewSkeleton.
type Skeleton struct {
	// Dependents[p] lists the subgraphs a completion of p signals,
	// Pending[c] counts the signals c waits for, Roots wait for none:
	// hb.SyncPlanSubgraphs — the artifact verify.CheckHB proves sufficient —
	// regrouped by producer for the concurrent executors.
	Dependents [][]int
	Pending    []int
	Roots      []int

	// Per subgraph: boundary inputs and outputs as value indices
	// (BoundaryInputs / Outputs order), and the timeline label.
	consumes, produces [][]int
	labels             []string
	// Per value: producing subgraph (-1 for a graph input), payload bytes,
	// consumer count (+1 for graph inputs and declared outputs: the caller
	// owns them, so they are never recycled), parent node name, and the name
	// of the module placeholder a consuming subgraph binds it to.
	producer, bytes, uses []int
	names, placeholders   []string
	// Values [0, inputs) are the graph inputs in InputIDs order.
	inputs  int
	outputs []int
}

// NewSkeleton interns the boundary values of subs (flat partition order). A
// value consumed before the subgraph producing it is an error here, once,
// rather than in every walk.
func NewSkeleton(parent *graph.Graph, subs []*graph.Subgraph) (*Skeleton, error) {
	n := len(subs)
	sk := &Skeleton{
		Dependents: make([][]int, n), Pending: make([]int, n),
		consumes: make([][]int, n), produces: make([][]int, n), labels: make([]string, n),
	}
	index := make(map[graph.NodeID]int)
	intern := func(id graph.NodeID, producer int) int {
		index[id] = len(sk.producer)
		sk.producer = append(sk.producer, producer)
		sk.bytes = append(sk.bytes, parent.DataSize(id))
		sk.names = append(sk.names, parent.Node(id).Name)
		sk.placeholders = append(sk.placeholders, "in."+parent.Node(id).Name)
		sk.uses = append(sk.uses, 0)
		return index[id]
	}
	var unordered error
	use := func(id graph.NodeID) int {
		v, ok := index[id]
		if !ok {
			unordered = fmt.Errorf("runtime: value of node %q consumed before production", parent.Node(id).Name)
			return 0
		}
		sk.uses[v]++
		return v
	}
	for _, id := range parent.InputIDs() {
		sk.uses[intern(id, -1)]++
	}
	sk.inputs = len(sk.producer)
	for i, sub := range subs {
		for _, id := range sub.BoundaryInputs {
			sk.consumes[i] = append(sk.consumes[i], use(id))
		}
		for _, id := range sub.Outputs {
			sk.produces[i] = append(sk.produces[i], intern(id, i))
		}
		sk.labels[i] = sub.Graph.Name + " [" + sub.Summary() + "]"
	}
	for _, id := range parent.Outputs() {
		sk.outputs = append(sk.outputs, use(id))
	}
	for _, e := range hb.SyncPlanSubgraphs(subs) {
		sk.Pending[e.To]++
		sk.Dependents[e.From] = append(sk.Dependents[e.From], e.To)
	}
	for i, p := range sk.Pending {
		if p == 0 {
			sk.Roots = append(sk.Roots, i)
		}
	}
	return sk, unordered
}

// home returns the lane value v is produced on under place.
func (sk *Skeleton) home(v int, place Placement) int {
	if p := sk.producer[v]; p >= 0 {
		return int(place[p])
	}
	return hostLane
}

// Sampler prices the two things a timeline is made of — moving bytes from
// lane src to dst, and running subgraph i's kernels back to back on lane.
type Sampler interface {
	Transfer(bytes, src, dst int) vclock.Seconds
	Kernels(i, lane int) vclock.Seconds
}

// Sink observes a walk's intervals [start, start+dur); nil observes nothing.
type Sink interface {
	Transferred(v, src, dst int, start, dur vclock.Seconds)
	Dispatched(i, lane int, start, dur vclock.Seconds)
}

// DeviceSampler prices a timeline with a platform's device models and an
// engine's tuned kernel costs: noiselessly, or by drawing from the
// platform's noise sources. Draws happen in walk order: a transfer when a
// value is first needed on a lane, then the subgraph's kernels.
type DeviceSampler struct {
	plat      *device.Platform
	noiseless bool
	costs     [][2][]ops.Cost
}

// Sampler returns a sampler over the engine's tuned costs on plat (its own
// platform, or a serving replica's with independent noise streams).
func (e *Engine) Sampler(plat *device.Platform, noiseless bool) *DeviceSampler {
	return &DeviceSampler{plat: plat, noiseless: noiseless, costs: e.tuned}
}

func (s *DeviceSampler) Transfer(bytes, _, _ int) vclock.Seconds {
	if s.noiseless {
		return s.plat.Link.TransferTime(bytes)
	}
	return s.plat.Link.SampleTransferTime(bytes)
}

func (s *DeviceSampler) Kernels(i, lane int) vclock.Seconds {
	dev := s.plat.Device(device.Kind(lane))
	var dur vclock.Seconds
	for _, c := range s.costs[i][lane] {
		if s.noiseless {
			dur += dev.KernelTime(c)
		} else {
			dur += dev.SampleKernelTime(c)
		}
	}
	return dur
}

// Walk is one request's timeline under construction, sized by the roster it
// is begun with. Reusable (Begin resets it); not safe for concurrent use.
type Walk struct {
	sk   *Skeleton
	cost Sampler
	sink Sink
	// deviceFree[l] is when lane l's device finishes what it has been given
	// (the caller's slice, see Begin); avail[v*lanes+l] is when value v is
	// usable on lane l.
	deviceFree, avail []vclock.Seconds
}

// NewWalk returns a walk over sk priced by cost and observed by sink.
func NewWalk(sk *Skeleton, cost Sampler, sink Sink) *Walk {
	return &Walk{sk: sk, cost: cost, sink: sink}
}

// Begin starts a request: graph inputs are on the host at inputsAt, and the
// devices are free at clocks — one entry per lane, owned by the caller and
// advanced in place. Zeroed clocks isolate the request; clocks left from the
// previous one queue it behind that (pipelining).
func (w *Walk) Begin(clocks []vclock.Seconds, inputsAt vclock.Seconds) {
	w.deviceFree = clocks
	lanes := len(clocks)
	if n := len(w.sk.producer) * lanes; len(w.avail) != n {
		w.avail = make([]vclock.Seconds, n)
	}
	for i := range w.avail {
		w.avail[i] = nowhere
	}
	for v := 0; v < w.sk.inputs; v++ {
		w.avail[v*lanes+hostLane] = inputsAt
	}
}

// Latency dispatches every subgraph in partition order on its placed lane
// and returns when the last output is on the host — one request's timeline.
func (w *Walk) Latency(place Placement) vclock.Seconds {
	for i := range w.sk.consumes {
		w.dispatch(i, int(place[i]))
	}
	return w.gather()
}

// ensure returns when value v is usable on lane, transferring it — once —
// from the lane that has had it longest (lowest index on ties; with two
// lanes, the other device).
func (w *Walk) ensure(v, lane int) vclock.Seconds {
	lanes := len(w.deviceFree)
	row := w.avail[v*lanes : (v+1)*lanes]
	if row[lane] >= 0 {
		return row[lane]
	}
	src := -1
	for l, t := range row {
		if t >= 0 && (src < 0 || t < row[src]) {
			src = l
		}
	}
	if src < 0 {
		panic(fmt.Sprintf("runtime: value %q needed on lane %d before any lane has it", w.sk.names[v], lane))
	}
	start := row[src]
	dur := w.cost.Transfer(w.sk.bytes[v], src, lane)
	if w.sink != nil {
		w.sink.Transferred(v, src, lane, start, dur)
	}
	row[lane] = start + dur
	return row[lane]
}

// dispatch runs subgraph i on lane: it starts when the device is free and
// every boundary input has arrived, plus the sync-queue hop, and publishes
// its outputs when it ends.
func (w *Walk) dispatch(i, lane int) {
	start := w.deviceFree[lane]
	for _, v := range w.sk.consumes[i] {
		start = max(start, w.ensure(v, lane))
	}
	start += syncQueueOverhead
	dur := w.cost.Kernels(i, lane)
	end := start + dur
	w.deviceFree[lane] = end
	if w.sink != nil {
		w.sink.Dispatched(i, lane, start, dur)
	}
	lanes := len(w.deviceFree)
	for _, v := range w.sk.produces[i] {
		w.avail[v*lanes+lane] = end
	}
}

// gather brings every declared output to the host.
func (w *Walk) gather() (finish vclock.Seconds) {
	for _, v := range w.sk.outputs {
		finish = max(finish, w.ensure(v, hostLane))
	}
	return finish
}
