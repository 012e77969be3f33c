package hb

import (
	"fmt"
	"sort"
	"strings"

	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
)

// Sched is a device-generic compiled schedule: one lane per device, each
// listing the flat subgraph indices (partition order) the device executes,
// serially, in start order. Nothing here assumes two lanes — a 3-device
// placement is three lanes, and the builders never index by device.Kind.
type Sched struct {
	// Devices names the lanes ("CPU", "GPU", "npu0", ...).
	Devices []string
	// Order[d] lists flat subgraph indices in start order on Devices[d]. An
	// empty lane is a legal idle device.
	Order [][]int
}

// FromPlacement derives the schedule the engine realizes from a placement:
// each device kind becomes a lane executing its assignments in flat
// partition order (the engine walks subgraphs in that order, each device
// serially). Lanes cover every kind in [0, maxKind] so placements onto a
// larger device set map without special cases.
func FromPlacement(p *partition.Partition, place []device.Kind) Sched {
	maxKind := device.Kind(0)
	for _, k := range place {
		if k > maxKind {
			maxKind = k
		}
	}
	s := Sched{}
	for k := device.Kind(0); k <= maxKind; k++ {
		s.Devices = append(s.Devices, k.String())
		s.Order = append(s.Order, nil)
	}
	for i, k := range place {
		s.Order[k] = append(s.Order[k], i)
	}
	return s
}

// SyncEdge is one compiled sync-queue edge: when subgraph From completes, it
// signals consumer To, carrying the boundary values Values (parent-graph
// node IDs). The runtime's firing rule counts one pending producer per edge.
type SyncEdge struct {
	From, To int
	Values   []graph.NodeID
}

// String renders the edge for findings and logs.
func (e SyncEdge) String() string {
	return fmt.Sprintf("sync %d->%d (%d value(s))", e.From, e.To, len(e.Values))
}

// SyncPlan derives the schedule's sync-queue edges from the partition: one
// edge per (producer subgraph, consumer subgraph) pair connected by at least
// one boundary value. This is the single source of truth both for
// the pending/dependents bookkeeping of runtime.Dataflow.Fire — the host
// firing rule behind Run, RunParallel and the serving replicas — and for the
// verifier that proves the plan sufficient — supply a mutated plan to Build to ask
// "what breaks without this edge?".
func SyncPlan(p *partition.Partition) []SyncEdge {
	return SyncPlanSubgraphs(p.Subgraphs())
}

// SyncPlanSubgraphs is SyncPlan over an already-flattened subgraph list.
func SyncPlanSubgraphs(subs []*graph.Subgraph) []SyncEdge {
	producer := make(map[graph.NodeID]int)
	for i, sub := range subs {
		for _, pid := range sub.Outputs {
			producer[pid] = i
		}
	}
	type key struct{ from, to int }
	vals := make(map[key][]graph.NodeID)
	for i, sub := range subs {
		for _, pid := range sub.BoundaryInputs {
			j, ok := producer[pid]
			if !ok || j == i {
				continue // graph input, or self-loop (reported by verify)
			}
			k := key{j, i}
			vals[k] = append(vals[k], pid)
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].to != keys[b].to {
			return keys[a].to < keys[b].to
		}
		return keys[a].from < keys[b].from
	})
	plan := make([]SyncEdge, 0, len(keys))
	for _, k := range keys {
		plan = append(plan, SyncEdge{From: k.from, To: k.to, Values: vals[k]})
	}
	return plan
}

// DropEdge returns plan without the edge from->to (mutation testing).
func DropEdge(plan []SyncEdge, from, to int) []SyncEdge {
	out := make([]SyncEdge, 0, len(plan))
	for _, e := range plan {
		if e.From == from && e.To == to {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Options tunes graph construction.
type Options struct {
	// PhaseOf, when non-nil, maps flat subgraph index to phase index and
	// enables barrier edges between consecutive phases.
	PhaseOf []int
	// Depth, with Requests > 1, is the pipelined serving depth: request r
	// must complete before request r+Depth starts. Zero means unbounded
	// (requests constrained only by per-device FIFO order).
	Depth int
	// Requests replicates the schedule per in-flight request (pipelined
	// serving); zero or one builds the single-request graph.
	Requests int
}

// Build constructs the happens-before graph of a compiled schedule: host
// source and sink events bracket each request; program-order edges chain
// each device lane (source → first assignment → ... → last → sink); sync
// edges realize the plan; optional barrier edges realize phase boundaries;
// with Requests > 1, per-device FIFO edges chain consecutive requests and
// pipe edges bound the in-flight depth. Errors are structural (an index
// scheduled twice or out of range) — schedule-legality questions beyond
// structure are the verifier's job.
func Build(sched Sched, plan []SyncEdge, opts Options) (*Graph, error) {
	if len(sched.Devices) != len(sched.Order) {
		return nil, fmt.Errorf("hb: %d device names for %d lanes", len(sched.Devices), len(sched.Order))
	}
	n := 0
	for _, lane := range sched.Order {
		for _, i := range lane {
			if i < 0 {
				return nil, fmt.Errorf("hb: negative subgraph index %d in schedule", i)
			}
			if i+1 > n {
				n = i + 1
			}
		}
	}
	requests := opts.Requests
	if requests < 1 {
		requests = 1
	}

	g := NewGraph()
	// lastOnDev[d] is the most recent event on lane d across requests, for
	// the cross-request FIFO chain.
	lastOnDev := make([]int, len(sched.Devices))
	for d := range lastOnDev {
		lastOnDev[d] = -1
	}
	for r := 0; r < requests; r++ {
		prefix := ""
		if requests > 1 {
			prefix = fmt.Sprintf("r%d/", r)
		}
		source := g.AddEvent(-1, r, "", prefix+"source")
		g.sources = append(g.sources, source)
		ev := make([]int, n)
		for i := range ev {
			ev[i] = -1
		}
		laneLast := make([]int, len(sched.Devices))
		for d, lane := range sched.Order {
			prev := source
			for _, i := range lane {
				if ev[i] >= 0 {
					return nil, fmt.Errorf("hb: subgraph %d scheduled twice (equal start slot)", i)
				}
				ev[i] = g.AddEvent(i, r, sched.Devices[d],
					fmt.Sprintf("%ssub%d@%s", prefix, i, sched.Devices[d]))
				g.AddEdge(prev, ev[i], EdgeProgram, "start order on "+sched.Devices[d])
				if prev == source && lastOnDev[d] >= 0 {
					// Device FIFO: a lane finishes request r's assignments
					// before starting request r+1's first one.
					g.AddEdge(lastOnDev[d], ev[i], EdgeProgram, "device fifo "+sched.Devices[d])
				}
				prev = ev[i]
			}
			laneLast[d] = prev
			if prev != source {
				lastOnDev[d] = prev
			}
		}
		sink := g.AddEvent(-1, r, "", prefix+"sink")
		g.sinks = append(g.sinks, sink)
		for _, last := range laneLast {
			g.AddEdge(last, sink, EdgeProgram, "drain")
		}
		for _, e := range plan {
			if e.From >= n || e.To >= n || ev[e.From] < 0 || ev[e.To] < 0 {
				return nil, fmt.Errorf("hb: %s references an unscheduled subgraph", e)
			}
			g.AddEdge(ev[e.From], ev[e.To], EdgeSync, syncLabel(e))
		}
		if opts.PhaseOf != nil {
			if err := addBarriers(g, ev, opts.PhaseOf); err != nil {
				return nil, err
			}
		}
		if opts.Depth > 0 && r >= opts.Depth {
			g.AddEdge(g.sinks[r-opts.Depth], source, EdgePipe,
				fmt.Sprintf("pipeline depth %d", opts.Depth))
		}
		g.evOf = append(g.evOf, ev)
	}
	return g, nil
}

// addBarriers realizes total phase order: every scheduled subgraph of phase
// k happens-before every scheduled subgraph of phase k+1.
func addBarriers(g *Graph, ev []int, phaseOf []int) error {
	byPhase := map[int][]int{}
	maxPhase := 0
	for i, e := range ev {
		if e < 0 {
			continue
		}
		if i >= len(phaseOf) {
			return fmt.Errorf("hb: no phase for subgraph %d", i)
		}
		ph := phaseOf[i]
		byPhase[ph] = append(byPhase[ph], e)
		if ph > maxPhase {
			maxPhase = ph
		}
	}
	for ph := 0; ph < maxPhase; ph++ {
		for _, a := range byPhase[ph] {
			for _, b := range byPhase[ph+1] {
				g.AddEdge(a, b, EdgeBarrier, fmt.Sprintf("phase %d|%d", ph, ph+1))
			}
		}
	}
	return nil
}

func syncLabel(e SyncEdge) string {
	parts := make([]string, len(e.Values))
	for i, v := range e.Values {
		parts[i] = fmt.Sprintf("n%d", v)
	}
	return "values " + strings.Join(parts, ",")
}

// LostSyncs returns the required producer→consumer flows the graph leaves
// unordered: every cross-subgraph boundary value must have a happens-before
// path from its producer's event to its consumer's, whatever mix of
// program, sync, and barrier edges provides it. A non-empty result means
// the schedule can observe an unwritten value — the lost-sync bug class.
func LostSyncs(g *Graph, subs []*graph.Subgraph) []SyncEdge {
	var lost []SyncEdge
	required := SyncPlanSubgraphs(subs)
	for r := 0; r < g.Requests(); r++ {
		for _, e := range required {
			a, b := g.EventOf(r, e.From), g.EventOf(r, e.To)
			if a < 0 || b < 0 {
				continue // unscheduled; Build or verify reports it
			}
			if !g.Ordered(a, b) {
				lost = append(lost, e)
			}
		}
	}
	return lost
}

// RedundantSyncs returns the plan edges whose removal leaves the producer
// still ordered before the consumer — edges another path (same-device
// program order, a transitive sync chain, a phase barrier) already implies.
// Redundancy is advisory, not an error: the engine's firing rule counts
// every producer, and dropping a redundant edge is a latency optimization,
// not a correctness fix.
func RedundantSyncs(sched Sched, plan []SyncEdge, opts Options) ([]SyncEdge, error) {
	var redundant []SyncEdge
	for idx, e := range plan {
		mutated := append(append([]SyncEdge{}, plan[:idx]...), plan[idx+1:]...)
		g, err := Build(sched, mutated, opts)
		if err != nil {
			return nil, err
		}
		if g.Cyclic() {
			continue
		}
		stillOrdered := true
		for r := 0; r < g.Requests(); r++ {
			a, b := g.EventOf(r, e.From), g.EventOf(r, e.To)
			if a < 0 || b < 0 || !g.Ordered(a, b) {
				stillOrdered = false
				break
			}
		}
		if stillOrdered {
			redundant = append(redundant, e)
		}
	}
	return redundant, nil
}
