package verify

import (
	"fmt"
	"sort"

	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/profile"
)

// CheckPartition verifies the phased-partition invariants of §IV-A against a
// fresh derivation from the parent graph: phases form a total order; every
// compute node is covered exactly once; subgraphs inside a multi-path phase
// are mutually independent (reachability re-derived here, not taken from
// graph.Independent); no subgraph consumes a later phase; and each
// subgraph's boundary-input and output sets equal what its member set
// implies. The extracted local graphs are checked for correspondence with
// the parent (same op, name, shape per member).
func CheckPartition(p *partition.Partition) []Finding {
	if p == nil {
		return []Finding{finding(PassPartition, "no partition supplied")}
	}
	if p.Parent == nil {
		return []Finding{finding(PassPartition, "partition has no parent graph")}
	}
	var fs []Finding
	g := p.Parent

	if len(p.Phases) == 0 {
		return append(fs, finding(PassPartition, "partition of %q has no phases", g.Name))
	}
	flat := 0
	owner := make(map[graph.NodeID]int) // compute node -> phase index
	for pi, ph := range p.Phases {
		if ph.Index != pi {
			fs = append(fs, finding(PassPartition, "phase at position %d claims index %d — phases must form a total order", pi, ph.Index))
		}
		switch {
		case len(ph.Subgraphs) == 0:
			fs = append(fs, finding(PassPartition, "phase %d is empty", pi))
		case ph.Kind == partition.Sequential && len(ph.Subgraphs) != 1:
			fs = append(fs, finding(PassPartition, "sequential phase %d holds %d subgraphs, want exactly 1", pi, len(ph.Subgraphs)))
		case ph.Kind == partition.MultiPath && len(ph.Subgraphs) < 2:
			fs = append(fs, finding(PassPartition, "multi-path phase %d holds %d subgraph(s), want at least 2", pi, len(ph.Subgraphs)))
		}
		for _, sub := range ph.Subgraphs {
			fs = append(fs, checkSubgraph(g, sub, flat)...)
			for _, id := range sub.Members {
				if int(id) < 0 || int(id) >= g.Len() {
					continue // reported by checkSubgraph
				}
				if prev, dup := owner[id]; dup {
					fs = append(fs, nodeFinding(PassPartition, id, "node %q covered by phases %d and %d — coverage must be exactly-once", g.Node(id).Name, prev, pi))
				}
				owner[id] = pi
			}
			flat++
		}
	}
	for _, n := range g.Nodes() {
		if n.IsInput() || n.IsConst() {
			continue
		}
		if _, ok := owner[n.ID]; !ok {
			fs = append(fs, nodeFinding(PassPartition, n.ID, "compute node %q is not covered by any phase", n.Name))
		}
	}
	// Dependencies may not point forward across phases.
	for _, n := range g.Nodes() {
		ph, ok := owner[n.ID]
		if !ok {
			continue
		}
		for _, in := range n.Inputs {
			if inPh, ok := owner[in]; ok && inPh > ph {
				fs = append(fs, nodeFinding(PassPartition, n.ID, "node %q (phase %d) consumes node %q from later phase %d", n.Name, ph, g.Node(in).Name, inPh))
			}
		}
	}

	// Cross-subgraph independence inside multi-path phases, with
	// reachability re-derived from the raw edges.
	flat = 0
	for _, ph := range p.Phases {
		if ph.Kind != partition.MultiPath {
			flat += len(ph.Subgraphs)
			continue
		}
		for i := 0; i < len(ph.Subgraphs); i++ {
			for j := i + 1; j < len(ph.Subgraphs); j++ {
				a, b := ph.Subgraphs[i], ph.Subgraphs[j]
				if id, dep := dependent(g, a, b); dep {
					fs = append(fs, Finding{Pass: PassPartition, Node: id, Subgraph: flat + i,
						Msg: fmt.Sprintf("multi-path phase %d subgraphs %d and %d are dependent through node %q", ph.Index, i, j, g.Node(id).Name)})
				}
			}
		}
		flat += len(ph.Subgraphs)
	}
	return fs
}

// dependent reports whether any member of a reaches a member of b or vice
// versa, walking consumer edges from scratch. It returns a witness node of
// the reached set.
func dependent(g *graph.Graph, a, b *graph.Subgraph) (graph.NodeID, bool) {
	consumers := make(map[graph.NodeID][]graph.NodeID, g.Len())
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], n.ID)
		}
	}
	inSet := func(s *graph.Subgraph) map[graph.NodeID]bool {
		set := make(map[graph.NodeID]bool, len(s.Members))
		for _, id := range s.Members {
			set[id] = true
		}
		return set
	}
	reach := func(from, to map[graph.NodeID]bool) (graph.NodeID, bool) {
		seen := make(map[graph.NodeID]bool)
		var stack []graph.NodeID
		for id := range from {
			stack = append(stack, id)
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, c := range consumers[id] {
				if to[c] {
					return c, true
				}
				stack = append(stack, c)
			}
		}
		return 0, false
	}
	as, bs := inSet(a), inSet(b)
	if id, hit := reach(as, bs); hit {
		return id, true
	}
	return reach(bs, as)
}

// checkSubgraph verifies one extracted subgraph's internal consistency
// against its parent: member ids valid, ascending, compute-only; boundary
// inputs and outputs exactly re-derived from the member set; and the local
// graph mirrors the parent per member (op, name, shape) with one placeholder
// per boundary input.
func checkSubgraph(g *graph.Graph, sub *graph.Subgraph, flat int) []Finding {
	var fs []Finding
	if sub == nil || sub.Graph == nil {
		return append(fs, subFinding(PassPartition, flat, "subgraph is missing its extracted graph"))
	}
	if len(sub.Members) == 0 {
		return append(fs, subFinding(PassPartition, flat, "subgraph %q has no members", sub.Graph.Name))
	}
	members := make(map[graph.NodeID]bool, len(sub.Members))
	for i, id := range sub.Members {
		if int(id) < 0 || int(id) >= g.Len() {
			fs = append(fs, subFinding(PassPartition, flat, "member id %d out of parent range", id))
			return fs
		}
		if i > 0 && sub.Members[i-1] >= id {
			fs = append(fs, subFinding(PassPartition, flat, "members of %q are not strictly ascending at position %d", sub.Graph.Name, i))
		}
		if n := g.Node(id); n.IsInput() || n.IsConst() {
			fs = append(fs, Finding{Pass: PassPartition, Node: id, Subgraph: flat,
				Msg: fmt.Sprintf("member %q is a %s node — members must be compute nodes", n.Name, n.Op)})
		}
		members[id] = true
	}

	// Re-derive the boundary set: every non-const external producer
	// referenced by a member, ascending.
	wantBoundary := make(map[graph.NodeID]bool)
	for id := range members {
		for _, in := range g.Node(id).Inputs {
			if int(in) < 0 || int(in) >= g.Len() || members[in] || g.Node(in).IsConst() {
				continue
			}
			wantBoundary[in] = true
		}
	}
	if !sameIDSet(sub.BoundaryInputs, wantBoundary) {
		fs = append(fs, subFinding(PassPartition, flat, "subgraph %q boundary inputs %v do not match the member set's external producers %v",
			sub.Graph.Name, sub.BoundaryInputs, graph.SortedIDs(wantBoundary)))
	}

	// Re-derive the output set: members consumed outside, or declared parent
	// outputs.
	declared := make(map[graph.NodeID]bool)
	for _, o := range g.Outputs() {
		declared[o] = true
	}
	consumedOutside := make(map[graph.NodeID]bool)
	for _, n := range g.Nodes() {
		if members[n.ID] {
			continue
		}
		for _, in := range n.Inputs {
			if members[in] {
				consumedOutside[in] = true
			}
		}
	}
	wantOut := make(map[graph.NodeID]bool)
	for id := range members {
		if declared[id] || consumedOutside[id] {
			wantOut[id] = true
		}
	}
	if !sameIDSet(sub.Outputs, wantOut) {
		fs = append(fs, subFinding(PassPartition, flat, "subgraph %q outputs %v do not match the externally consumed members %v",
			sub.Graph.Name, sub.Outputs, graph.SortedIDs(wantOut)))
	}

	// Local-graph correspondence: each member maps to a local node with the
	// same op, name, and shape; each boundary input to a placeholder.
	for _, id := range sub.Members {
		pn := g.Node(id)
		local, ok := sub.LocalID(id)
		if !ok {
			fs = append(fs, Finding{Pass: PassPartition, Node: id, Subgraph: flat,
				Msg: fmt.Sprintf("member %q has no local node in the extracted graph", pn.Name)})
			continue
		}
		ln := sub.Graph.Node(local)
		if ln.Op != pn.Op || ln.Name != pn.Name {
			fs = append(fs, Finding{Pass: PassPartition, Node: id, Subgraph: flat,
				Msg: fmt.Sprintf("member %q extracted as %s %q — op/name must match the parent", pn.Name, ln.Op, ln.Name)})
		}
	}
	var localInputs int
	for _, n := range sub.Graph.Nodes() {
		if n.IsInput() {
			localInputs++
		}
	}
	if localInputs != len(sub.BoundaryInputs) {
		fs = append(fs, subFinding(PassPartition, flat, "subgraph %q has %d local placeholders for %d boundary inputs",
			sub.Graph.Name, localInputs, len(sub.BoundaryInputs)))
	}
	return fs
}

// sameIDSet reports whether the slice holds exactly the ids of the set (any
// order, no duplicates).
func sameIDSet(got []graph.NodeID, want map[graph.NodeID]bool) bool {
	if len(got) != len(want) {
		return false
	}
	sorted := append([]graph.NodeID(nil), got...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, id := range sorted {
		if i > 0 && sorted[i-1] == id {
			return false
		}
		if !want[id] {
			return false
		}
	}
	return true
}

// idsInRange reports whether every id indexes a node of g — the precondition
// for the byte-accounting helpers, which index the parent graph unguarded.
func idsInRange(g *graph.Graph, ids []graph.NodeID) bool {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= g.Len() {
			return false
		}
	}
	return true
}

// CheckProfiles verifies the boundary-tensor accounting of §IV-B: one record
// per subgraph in flat order, with the recorded I/O volumes equal to the
// subgraph's boundary accounting against the parent graph, strictly
// positive times on both devices, and a positive kernel count.
func CheckProfiles(p *partition.Partition, records []profile.Record) []Finding {
	var fs []Finding
	subs := p.Subgraphs()
	if len(records) != len(subs) {
		return append(fs, finding(PassProfiles, "%d profile records for %d subgraphs", len(records), len(subs)))
	}
	for i, rec := range records {
		sub := subs[i]
		if rec.Index != i {
			fs = append(fs, subFinding(PassProfiles, i, "record at flat position %d claims index %d", i, rec.Index))
		}
		// The byte accounting indexes the parent graph by boundary id, so
		// it is only meaningful when those ids are in range; corrupt ids
		// are already reported by the partition pass.
		if idsInRange(p.Parent, sub.BoundaryInputs) {
			if want := sub.InputBytes(p.Parent); rec.InBytes != want {
				fs = append(fs, subFinding(PassProfiles, i, "subgraph %q profiled InBytes=%d, boundary accounting gives %d", sub.Graph.Name, rec.InBytes, want))
			}
		}
		if idsInRange(p.Parent, sub.Outputs) {
			if want := sub.OutputBytes(p.Parent); rec.OutBytes != want {
				fs = append(fs, subFinding(PassProfiles, i, "subgraph %q profiled OutBytes=%d, boundary accounting gives %d", sub.Graph.Name, rec.OutBytes, want))
			}
		}
		if rec.Time[0] <= 0 || rec.Time[1] <= 0 {
			fs = append(fs, subFinding(PassProfiles, i, "subgraph %q has non-positive profiled time %v", sub.Graph.Name, rec.Time))
		}
		if rec.Kernels < 1 {
			fs = append(fs, subFinding(PassProfiles, i, "subgraph %q profiled with %d kernels — a compiled subgraph launches at least one", sub.Graph.Name, rec.Kernels))
		}
	}
	return fs
}
