package verify

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/partition"
)

// CheckScheduleOrder verifies that the flat partition order is a legal
// serial schedule: every boundary input of subgraph i is produced either by
// a parent-graph input node or by a subgraph that starts earlier. The engine
// executes subgraphs in exactly this order (a device runs its assignments
// serially, §IV-D footnote 2), so a violation means a value would be read
// before any schedule could produce it — regardless of placement.
//
// A clean pass also proves the sync queues live under the firing rule
// (§IV-D): every producer of a subgraph's inputs starts earlier, so firing
// in flat order never waits on a later subgraph. Conversely, every self-loop
// and every wait cycle contains an edge whose producer does not start
// earlier, which this pass reports.
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

func sprintfNode(g *graph.Graph, id graph.NodeID, format string, args ...interface{}) string {
	return fmt.Sprintf("value of node %q ", g.Node(id).Name) + fmt.Sprintf(format, args...)
}
