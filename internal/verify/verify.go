// Package verify is DUET's static verification layer: a set of compiler-style
// checker passes that run over the compiled artifacts — graph IR, partition,
// profiles, placement, kernel plans, and the scheduler's audit trail —
// without executing them. Every invariant the paper states and the code
// otherwise only assumes becomes a machine-checked pass: phase total order
// with independent multi-path subgraphs (§IV-A), profiled boundary-tensor
// accounting (§IV-B), placement/schedule legality and Algorithm 1 replay
// consistency (§IV-C), arena release-plan safety, and a start order that
// keeps the sync queues live under the firing rule (§IV-D). Passes
// re-derive their facts independently of the construction code
// (partition.Build, compiler.InferShapes, Module.releasePlan), so a bug on
// either side surfaces as a finding.
//
// The package deliberately imports neither runtime nor schedule: runtime
// delegates its placement validation here, and schedule adapts its Audit
// into an AuditTrail, so verify sits below both in the import order.
package verify

import (
	"fmt"
	"strings"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/profile"
)

// Pass names, one per checker. A Finding carries the pass that produced it
// so callers (duet-run -lint, tests) can group and filter.
const (
	PassGraph     = "graph-wf"       // well-formedness + independent shape re-inference
	PassPartition = "partition"      // phase order, coverage, independence, boundary sets
	PassProfiles  = "profile-io"     // profiled I/O volumes vs boundary accounting
	PassPlacement = "placement"      // every subgraph mapped to a known device
	PassSchedule  = "schedule-order" // dependency-respecting flat start order (so the sync queues are live)
	PassRelease   = "arena-release"  // symbolic execution of the release plan
	PassAudit     = "audit-replay"   // Algorithm 1 decision-trail consistency
	PassFusion    = "fusion-tape"    // op-tape replay vs graph: dataflow equivalence, single materialization, register def-before-use
	PassHBGraph   = "hb-graph"       // happens-before construction: coverage, acyclicity (deadlock re-derivation)
	PassHBSync    = "hb-sync"        // lost-sync detection: every boundary flow ordered producer-before-consumer
	PassHBRace    = "hb-race"        // static race detection over tensor values and arena slots
)

// Passes returns every pass name in declaration order — the roster tooling
// (duet-vet -summary, make check) prints so the gate's coverage is visible
// in one line.
func Passes() []string {
	return []string{
		PassGraph, PassPartition, PassProfiles, PassPlacement, PassSchedule,
		PassRelease, PassAudit, PassFusion, PassHBGraph, PassHBSync, PassHBRace,
	}
}

// Finding is one verifier diagnostic. Node and Subgraph locate the failure
// when the pass can pinpoint it (-1 otherwise); Subgraph is a flat index in
// partition order.
type Finding struct {
	Pass     string
	Node     graph.NodeID
	Subgraph int
	Msg      string
}

// String renders the finding with its location.
func (f Finding) String() string {
	var b strings.Builder
	b.WriteString(f.Pass)
	if f.Subgraph >= 0 {
		fmt.Fprintf(&b, " sub=%d", f.Subgraph)
	}
	if f.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", f.Node)
	}
	b.WriteString(": ")
	b.WriteString(f.Msg)
	return b.String()
}

// finding constructs a Finding without location information.
func finding(pass, format string, args ...interface{}) Finding {
	return Finding{Pass: pass, Node: -1, Subgraph: -1, Msg: fmt.Sprintf(format, args...)}
}

// nodeFinding constructs a Finding located at a parent-graph node.
func nodeFinding(pass string, id graph.NodeID, format string, args ...interface{}) Finding {
	return Finding{Pass: pass, Node: id, Subgraph: -1, Msg: fmt.Sprintf(format, args...)}
}

// subFinding constructs a Finding located at a flat subgraph index.
func subFinding(pass string, sub int, format string, args ...interface{}) Finding {
	return Finding{Pass: pass, Node: -1, Subgraph: sub, Msg: fmt.Sprintf(format, args...)}
}

// Error aggregates findings into one error value.
type Error struct {
	Findings []Finding
}

// Error lists the findings, eliding past the first eight.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d finding(s)", len(e.Findings))
	for i, f := range e.Findings {
		if i == 8 {
			fmt.Fprintf(&b, "; ... (%d more)", len(e.Findings)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(f.String())
	}
	return b.String()
}

// AsError wraps findings into an *Error, or returns nil when there are none.
func AsError(fs []Finding) error {
	if len(fs) == 0 {
		return nil
	}
	return &Error{Findings: fs}
}

// Artifacts bundles the compiled artifacts of one engine build. Graph and
// Partition are required by All; the remaining fields are checked only when
// present, so callers can verify partial builds (e.g. before scheduling).
type Artifacts struct {
	Graph     *graph.Graph
	Partition *partition.Partition
	// Placement maps flat subgraph indices to device kinds (runtime.Placement
	// converts directly).
	Placement []device.Kind
	// Records are the profiler's per-subgraph records, flat order.
	Records []profile.Record
	// Modules are the compiled per-subgraph modules, flat order.
	Modules []*compiler.Module
}

// All runs every applicable pass over the artifacts and returns the combined
// findings (nil when everything verifies). Pass order is fixed: graph
// well-formedness first, since later passes assume a sane parent graph.
func All(a Artifacts) []Finding {
	var fs []Finding
	fs = append(fs, CheckGraph(a.Graph)...)
	if a.Partition == nil {
		fs = append(fs, finding(PassPartition, "no partition supplied"))
		return fs
	}
	fs = append(fs, CheckPartition(a.Partition)...)
	fs = append(fs, CheckScheduleOrder(a.Partition)...)
	if a.Records != nil {
		fs = append(fs, CheckProfiles(a.Partition, a.Records)...)
	}
	if a.Placement != nil {
		if err := CheckPlacement(a.Placement, a.Partition); err != nil {
			fs = append(fs, placementFinding(err))
		} else {
			// The happens-before passes assume a structurally legal
			// placement (every subgraph on a known device), so they run
			// only once the placement pass is clean.
			fs = append(fs, CheckHB(a.Partition, a.Placement, a.Modules)...)
		}
	}
	for i, m := range a.Modules {
		for _, f := range CheckModule(m) {
			f.Subgraph = i
			fs = append(fs, f)
		}
		for _, f := range CheckFusion(m) {
			f.Subgraph = i
			fs = append(fs, f)
		}
	}
	return fs
}
