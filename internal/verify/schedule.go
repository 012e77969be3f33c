package verify

import (
	"fmt"
	"sort"

	"duet/internal/graph"
	"duet/internal/partition"
)

// CheckScheduleOrder verifies that the flat partition order is a legal
// serial schedule: every boundary input of subgraph i is produced either by
// a parent-graph input node or by a subgraph that starts earlier. The engine
// executes subgraphs in exactly this order (a device runs its assignments
// serially, §IV-D footnote 2), so a violation means a value would be read
// before any schedule could produce it — regardless of placement.
func CheckScheduleOrder(p *partition.Partition) []Finding {
	var fs []Finding
	g := p.Parent
	subs := p.Subgraphs()
	producer := make(map[graph.NodeID]int, g.Len())
	for i, sub := range subs {
		for _, pid := range sub.Outputs {
			if prev, dup := producer[pid]; dup {
				fs = append(fs, Finding{Pass: PassSchedule, Node: pid, Subgraph: i,
					Msg: sprintfNode(g, pid, "published by subgraphs %d and %d — a value has one producer", prev, i)})
			}
			producer[pid] = i
		}
	}
	for i, sub := range subs {
		for _, pid := range sub.BoundaryInputs {
			if int(pid) < 0 || int(pid) >= g.Len() {
				continue // reported by the partition pass
			}
			j, ok := producer[pid]
			if !ok {
				if !g.Node(pid).IsInput() {
					fs = append(fs, Finding{Pass: PassSchedule, Node: pid, Subgraph: i,
						Msg: sprintfNode(g, pid, "consumed by subgraph %d but no subgraph publishes it and it is not a graph input", i)})
				}
				continue
			}
			if j >= i {
				fs = append(fs, Finding{Pass: PassSchedule, Node: pid, Subgraph: i,
					Msg: sprintfNode(g, pid, "consumed by subgraph %d but produced by subgraph %d — start order must respect dependencies", i, j)})
			}
		}
	}
	return fs
}

// CheckSyncQueue verifies liveness of the runtime's firing rule (§IV-D): a
// subgraph fires once all of its distinct producer subgraphs have completed,
// exactly the pending/dependents bookkeeping of runtime.Dataflow.Fire, which
// Run, RunParallel and the serving replica workers all fire through. The pass simulates the rule to a fixpoint; any subgraph
// that never fires deadlocks the sync queues and is reported together with
// the producers it is stuck on.
func CheckSyncQueue(p *partition.Partition) []Finding {
	var fs []Finding
	g := p.Parent
	subs := p.Subgraphs()
	n := len(subs)

	producer := make(map[graph.NodeID]int, g.Len())
	for i, sub := range subs {
		for _, pid := range sub.Outputs {
			producer[pid] = i
		}
	}
	pending := make([]int, n)
	waitingOn := make([]map[int]bool, n)
	dependents := make([][]int, n)
	for i, sub := range subs {
		waitingOn[i] = map[int]bool{}
		for _, pid := range sub.BoundaryInputs {
			if int(pid) < 0 || int(pid) >= g.Len() {
				continue
			}
			j, ok := producer[pid]
			if !ok {
				continue // graph input (or unpublished — the order pass reports it)
			}
			if j == i {
				fs = append(fs, Finding{Pass: PassLiveness, Node: pid, Subgraph: i,
					Msg: sprintfNode(g, pid, "subgraph %d consumes its own output as a boundary input — it can never fire", i)})
				continue
			}
			if !waitingOn[i][j] {
				waitingOn[i][j] = true
				pending[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}

	fired := make([]bool, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			queue = append(queue, i)
			fired[i] = true
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range dependents[i] {
			delete(waitingOn[c], i)
			pending[c]--
			if pending[c] == 0 && !fired[c] {
				fired[c] = true
				queue = append(queue, c)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !fired[i] {
			fs = append(fs, subFinding(PassLiveness, i, "subgraph %q never fires: stuck waiting on subgraphs %v — the sync queues deadlock",
				subs[i].Graph.Name, sortedKeys(waitingOn[i])))
		}
	}
	return fs
}

func sprintfNode(g *graph.Graph, id graph.NodeID, format string, args ...interface{}) string {
	return fmt.Sprintf("value of node %q ", g.Node(id).Name) + fmt.Sprintf(format, args...)
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
