package verify

import (
	"strings"
	"testing"

	"duet/internal/device"
	"duet/internal/partition"
)

// replayTrail hand-builds the audit trail Algorithm 1 would record over the
// fixture: re-derives the phase structure exactly as CheckAudit does, all
// subgraphs on CPU (the fixture's records make CPU strictly faster), no
// corrections.
func replayTrail(f *fixture) *AuditTrail {
	subs := f.p.Subgraphs()
	n := len(subs)
	trail := &AuditTrail{
		Initial:         strings.Repeat("C", n),
		Final:           strings.Repeat("C", n),
		InitialMeasured: 1e-3,
		FinalMeasured:   1e-3,
	}
	flat := 0
	for _, ph := range f.p.Phases {
		lo, hi := flat, flat+len(ph.Subgraphs)
		flat = hi
		multipath := ph.Kind == partition.MultiPath && hi-lo > 1
		crit := lo
		for i := lo + 1; i < hi; i++ {
			if f.records[i].Best() > f.records[crit].Best() {
				crit = i
			}
		}
		for i := lo; i < hi; i++ {
			reason := ReasonSequential
			m := f.records[i].Margin()
			if multipath {
				if i == crit {
					reason = ReasonCriticalPin
				} else {
					reason = ReasonGreedyBalance
					m = 0.3 // greedy-balance margins weigh sweep state, not replayed
				}
			}
			trail.Subgraphs = append(trail.Subgraphs, AuditSubgraph{
				Index:      i,
				Name:       subs[i].Graph.Name,
				CPUSeconds: f.records[i].TimeOn(device.CPU),
				GPUSeconds: f.records[i].TimeOn(device.GPU),
				Chosen:     "cpu",
				Reason:     reason,
				Fused:      f.records[i].Fused,
				MarginFrac: m,
				TieBreak:   m < TieMarginFrac,
			})
		}
	}
	return trail
}

// TestCheckAuditMarginConsistency pins the tie/margin additions to the
// audit pass: recorded margins must replay from the records for sequential
// and critical-pin decisions, the tie flag must match the threshold, and
// out-of-range margins are findings.
func TestCheckAuditMarginConsistency(t *testing.T) {
	f := buildFixture(t)
	trail := replayTrail(f)
	if fs := CheckAudit(f.p, f.records, trail); len(fs) != 0 {
		t.Fatalf("clean margin trail produced findings: %v", fs)
	}

	corrupt := func(mutate func(*AuditTrail)) *AuditTrail {
		bad := replayTrail(f)
		mutate(bad)
		return bad
	}
	if fs := CheckAudit(f.p, f.records, corrupt(func(tr *AuditTrail) {
		tr.Subgraphs[0].MarginFrac = 1.5
	})); len(fs) == 0 {
		t.Fatal("margin 1.5 not flagged")
	}
	if fs := CheckAudit(f.p, f.records, corrupt(func(tr *AuditTrail) {
		tr.Subgraphs[0].TieBreak = !tr.Subgraphs[0].TieBreak
	})); len(fs) == 0 {
		t.Fatal("tie flag inconsistent with margin but not flagged")
	}
	if fs := CheckAudit(f.p, f.records, corrupt(func(tr *AuditTrail) {
		tr.Subgraphs[0].Fused = "phantom+9"
	})); len(fs) == 0 {
		t.Fatal("fused-kernel tags that do not restate the profile not flagged")
	}
	if fs := CheckAudit(f.p, f.records, corrupt(func(tr *AuditTrail) {
		for i := range tr.Subgraphs {
			if tr.Subgraphs[i].Reason == ReasonSequential {
				tr.Subgraphs[i].MarginFrac += 0.4
				tr.Subgraphs[i].TieBreak = tr.Subgraphs[i].MarginFrac < TieMarginFrac
				break
			}
		}
	})); len(fs) == 0 {
		t.Fatal("sequential margin that does not replay from records not flagged")
	}
}
