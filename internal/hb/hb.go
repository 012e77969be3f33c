// Package hb is DUET's happens-before concurrency verifier. It reconstructs
// the partial order a compiled schedule imposes on subgraph executions —
// from artifacts only: per-device start order, sync-queue send/recv edges,
// optional multi-path phase barriers, and pipelined serving depth — and
// statically detects data races on the tensor values and arena slots those
// executions touch. The model is deliberately generic over an arbitrary
// device set: a schedule is a list of named device lanes, not a CPU/GPU
// pair, so the N-device placement refactor (ROADMAP) inherits the same
// safety net unchanged.
//
// The package sits below verify in the import order (verify wires its
// checks into the pass list; hb itself imports only graph, partition,
// compiler, device, and ops), and below runtime (RunParallel derives its
// sync-queue bookkeeping from the same SyncPlan the verifier checks, so the
// executor and the proof obligation cannot drift apart).
package hb

import "fmt"

// EdgeKind classifies one happens-before edge by the compiled artifact it
// was derived from.
type EdgeKind int

const (
	// EdgeProgram orders two events on the same device lane: a device
	// executes its assignments serially in start order (§IV-D footnote 2).
	EdgeProgram EdgeKind = iota
	// EdgeSync is a sync-queue send/recv: the producer's completion signal
	// enqueues the consumer once all its producers have fired.
	EdgeSync
	// EdgeBarrier is a multi-path phase barrier: every subgraph of phase k
	// before every subgraph of phase k+1 (an optional, stricter regime than
	// the firing rule; the serial engine realizes it, RunParallel does not).
	EdgeBarrier
	// EdgePipe bounds pipelined serving depth: request r must fully drain
	// before request r+depth may start.
	EdgePipe
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeProgram:
		return "program"
	case EdgeSync:
		return "sync"
	case EdgeBarrier:
		return "barrier"
	case EdgePipe:
		return "pipe"
	}
	return "unknown"
}

// Event is one node of the happens-before graph: a subgraph execution, or a
// host source/sink event bracketing one request.
type Event struct {
	ID int
	// Sub is the flat subgraph index (partition order), -1 for host events.
	Sub int
	// Req is the request replica (0 for single-request graphs).
	Req int
	// Device is the executing lane's name ("" for host events).
	Device string
	// Label is a short human-readable name ("sub3@CPU", "source", ...).
	Label string
}

// Edge is one happens-before edge: From completes before To starts.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Label names the deriving artifact (carried values for sync edges).
	Label string
}

// Graph is a happens-before graph over events. Construct with the builders
// in build.go (or NewGraph/AddEvent/AddEdge for synthetic fixtures), then
// call Freeze before querying Ordered.
type Graph struct {
	Events []Event
	Edges  []Edge

	succ [][]int

	// evOf[r][i] is the event for flat subgraph i in request r (-1 when the
	// schedule never starts it). sources/sinks are per-request host events.
	evOf    [][]int
	sources []int
	sinks   []int

	frozen bool
	order  []int      // topological order; nil when cyclic
	cycle  []int      // one event cycle when cyclic
	reach  [][]uint64 // reach[i]: bitset of events strictly reachable from i
}

// NewGraph returns an empty happens-before graph.
func NewGraph() *Graph { return &Graph{} }

// AddEvent appends an event and returns its ID.
func (g *Graph) AddEvent(sub, req int, device, label string) int {
	id := len(g.Events)
	g.Events = append(g.Events, Event{ID: id, Sub: sub, Req: req, Device: device, Label: label})
	g.succ = append(g.succ, nil)
	g.frozen = false
	return id
}

// AddEdge appends a happens-before edge between two existing events.
func (g *Graph) AddEdge(from, to int, kind EdgeKind, label string) {
	g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: kind, Label: label})
	g.succ[from] = append(g.succ[from], to)
	g.frozen = false
}

// EventOf returns the event ID executing flat subgraph i in request req, or
// -1 when the schedule never starts it.
func (g *Graph) EventOf(req, i int) int {
	if req >= len(g.evOf) || i >= len(g.evOf[req]) {
		return -1
	}
	return g.evOf[req][i]
}

// Requests returns how many request replicas the graph models.
func (g *Graph) Requests() int { return len(g.evOf) }

// Source and Sink return the host events bracketing request req.
func (g *Graph) Source(req int) int { return g.sources[req] }

// Sink returns the host event that reads request req's declared outputs.
func (g *Graph) Sink(req int) int { return g.sinks[req] }

// Label renders event id for findings.
func (g *Graph) Label(id int) string {
	if id < 0 || id >= len(g.Events) {
		return fmt.Sprintf("event%d", id)
	}
	return g.Events[id].Label
}

// Freeze computes the topological order and the strict-reachability closure.
// Idempotent; the query methods call it implicitly.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.frozen = true
	n := len(g.Events)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) < n {
		g.order = nil
		g.reach = nil
		g.cycle = g.findCycle(indeg)
		return
	}
	g.order = order
	g.cycle = nil

	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for i := range reach {
		reach[i] = make([]uint64, words)
	}
	for idx := n - 1; idx >= 0; idx-- {
		v := order[idx]
		for _, w := range g.succ[v] {
			reach[v][w/64] |= 1 << (uint(w) % 64)
			for k := 0; k < words; k++ {
				reach[v][k] |= reach[w][k]
			}
		}
	}
	g.reach = reach
}

// findCycle extracts one directed cycle from the events Kahn's algorithm
// could not order (indeg holds the residual in-degrees after the sort).
func (g *Graph) findCycle(indeg []int) []int {
	inCycle := make([]bool, len(g.Events))
	for i, d := range indeg {
		inCycle[i] = d > 0
	}
	// Walk successors staying inside the residual set until an event
	// repeats; the repeated suffix is a cycle.
	start := -1
	for i, in := range inCycle {
		if in {
			start = i
			break
		}
	}
	if start < 0 {
		return nil
	}
	seenAt := map[int]int{}
	var path []int
	v := start
	for {
		if at, seen := seenAt[v]; seen {
			return append([]int(nil), path[at:]...)
		}
		seenAt[v] = len(path)
		path = append(path, v)
		next := -1
		for _, w := range g.succ[v] {
			if inCycle[w] {
				next = w
				break
			}
		}
		if next < 0 {
			return path // defensive: residual events always have a successor in the set
		}
		v = next
	}
}

// Cyclic reports whether the graph contains a happens-before cycle — the
// static signature of a sync-queue deadlock.
func (g *Graph) Cyclic() bool {
	g.Freeze()
	return g.order == nil
}

// Cycle returns one event cycle when Cyclic, nil otherwise.
func (g *Graph) Cycle() []int {
	g.Freeze()
	return append([]int(nil), g.cycle...)
}

// CycleLabels renders the cycle for findings ("a -> b -> a").
func (g *Graph) CycleLabels() string {
	cyc := g.Cycle()
	if len(cyc) == 0 {
		return ""
	}
	s := ""
	for _, v := range cyc {
		s += g.Label(v) + " -> "
	}
	return s + g.Label(cyc[0])
}

// Ordered reports whether event a strictly happens-before event b (a path
// of at least one edge). Only meaningful on acyclic graphs; a cyclic graph
// orders nothing.
func (g *Graph) Ordered(a, b int) bool {
	g.Freeze()
	if g.reach == nil || a == b {
		return false
	}
	return g.reach[a][b/64]&(1<<(uint(b)%64)) != 0
}
