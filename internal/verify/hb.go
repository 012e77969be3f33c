package verify

import (
	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/hb"
	"duet/internal/partition"
)

// CheckHB runs the happens-before passes over a compiled schedule: it
// derives the device-lane schedule from the placement and the sync plan
// from the partition's boundary flows, builds the happens-before graph, and
// reports
//
//   - hb-graph findings for structural failures (a subgraph scheduled twice
//     or never) and for happens-before cycles — the static re-derivation of
//     the sync-queue deadlock fixpoint (an acyclic HB graph has a linear
//     extension, which is exactly an execution in which every subgraph
//     fires);
//   - hb-sync findings for lost syncs: a boundary value whose producer the
//     relation does not order before its consumer;
//   - hb-race findings for every unordered conflicting access pair on a
//     tensor value or arena slot (write/write, write/read, read scheduled
//     before its producing write, use-after-release).
//
// Modules sharpen access sites to kernel steps (and enable the arena-slot
// checks); a nil or partial module list degrades to engine-level accesses.
// Redundant syncs are deliberately not findings: same-device program order
// and transitive chains make many plan edges redundant in every correct
// schedule, and dropping one is a latency question, not a correctness one.
func CheckHB(p *partition.Partition, place []device.Kind, mods []*compiler.Module) []Finding {
	var fs []Finding
	subs := p.Subgraphs()
	sched := hb.FromPlacement(p, place)
	plan := hb.SyncPlan(p)
	g, err := hb.Build(sched, plan, hb.Options{})
	if err != nil {
		return []Finding{finding(PassHBGraph, "building happens-before graph: %v", err)}
	}
	for i := range subs {
		if g.EventOf(0, i) < 0 {
			fs = append(fs, subFinding(PassHBGraph, i, "subgraph is never started by any device lane"))
		}
	}
	if g.Cyclic() {
		fs = append(fs, finding(PassHBGraph,
			"happens-before cycle — the sync queues deadlock: %s", g.CycleLabels()))
		return fs // Ordered is meaningless on a cyclic graph
	}
	for _, e := range hb.LostSyncs(g, subs) {
		fs = append(fs, subFinding(PassHBSync, e.To,
			"lost sync: nothing orders producer subgraph %d before consumer %d (%d boundary value(s))",
			e.From, e.To, len(e.Values)))
	}
	accs := hb.Accesses(subs, p.Parent, mods, g)
	for _, r := range hb.Detect(g, accs) {
		fs = append(fs, finding(PassHBRace, "%s", r))
	}
	return fs
}
