package schedule

import (
	"strings"
	"testing"

	"duet/internal/device"
	"duet/internal/partition"
	"duet/internal/runtime"
	"duet/internal/vclock"
)

func parsePlacement(t *testing.T, s string) runtime.Placement {
	t.Helper()
	p := make(runtime.Placement, len(s))
	for i, c := range s {
		switch c {
		case 'C':
			p[i] = device.CPU
		case 'G':
			p[i] = device.GPU
		default:
			t.Fatalf("bad placement string %q", s)
		}
	}
	return p
}

// TestAuditReproducesGreedy verifies the audit against Algorithm 1 steps
// 1-2: chosen devices match the placement, sequential subgraphs get their
// faster device, each multi-path phase pins its max-best-cost subgraph,
// and replaying the greedy load model from the audited costs reproduces
// every greedy-balance decision.
func TestAuditReproducesGreedy(t *testing.T) {
	s, _ := rig(t, nil)
	place, a := s.GreedyAudit()

	if a.Initial != place.String() {
		t.Fatalf("audit initial %q != placement %q", a.Initial, place)
	}
	if len(a.Subgraphs) != len(place) {
		t.Fatalf("%d subgraph audits for %d subgraphs", len(a.Subgraphs), len(place))
	}
	for i, sg := range a.Subgraphs {
		if sg.Index != i {
			t.Fatalf("audit not in flat order: entry %d has index %d", i, sg.Index)
		}
		if sg.Chosen != kindName(place[i]) {
			t.Fatalf("subgraph %d: audit says %s, placement says %s", i, sg.Chosen, kindName(place[i]))
		}
		if sg.CPUSeconds != s.Records[i].TimeOn(device.CPU) || sg.GPUSeconds != s.Records[i].TimeOn(device.GPU) {
			t.Fatalf("subgraph %d: audited costs diverge from profile records", i)
		}
		if sg.Fused != s.Records[i].Fused {
			t.Fatalf("subgraph %d: audit names fused kernels %q, record says %q", i, sg.Fused, s.Records[i].Fused)
		}
		switch sg.Reason {
		case ReasonSequential, ReasonCriticalPin:
			if sg.Chosen != kindName(s.Records[i].Faster()) {
				t.Fatalf("subgraph %d (%s): not on its faster device", i, sg.Reason)
			}
		case ReasonGreedyBalance:
		default:
			t.Fatalf("subgraph %d: unknown reason %q", i, sg.Reason)
		}
	}

	var predicted vclock.Seconds
	for _, ph := range a.Phases {
		predicted += ph.PredictedMakespan
		if ph.Kind == partition.Sequential.String() {
			if ph.Critical != -1 {
				t.Fatalf("sequential phase %d has critical pin %d", ph.Index, ph.Critical)
			}
			continue
		}
		// The pinned subgraph must carry the phase's maximum best-case cost
		// (step 1) and the audit must flag it.
		for i := ph.Lo; i < ph.Hi; i++ {
			if s.Records[i].Best() > s.Records[ph.Critical].Best() {
				t.Fatalf("phase %d: pinned %d but %d has larger best cost", ph.Index, ph.Critical, i)
			}
		}
		if ph.Hi-ph.Lo > 1 && a.Subgraphs[ph.Critical].Reason != ReasonCriticalPin {
			t.Fatalf("phase %d: critical subgraph %d has reason %q", ph.Index, ph.Critical, a.Subgraphs[ph.Critical].Reason)
		}

		// Step 2 replay: feed the audited costs through the load model in
		// decreasing-cost order and check each choice minimised makespan.
		load := [2]vclock.Seconds{}
		load[place[ph.Critical]] = s.Records[ph.Critical].Best()
		order := make([]int, 0, ph.Hi-ph.Lo-1)
		for i := ph.Lo; i < ph.Hi; i++ {
			if i != ph.Critical {
				order = append(order, i)
			}
		}
		for x := 0; x < len(order); x++ {
			for y := x + 1; y < len(order); y++ {
				if s.Records[order[y]].Best() > s.Records[order[x]].Best() {
					order[x], order[y] = order[y], order[x]
				}
			}
		}
		for _, i := range order {
			chosen := place[i]
			alt := chosen.Other()
			withChosen, withAlt := load, load
			withChosen[chosen] += s.Records[i].TimeOn(chosen)
			withAlt[alt] += s.Records[i].TimeOn(alt)
			mk := func(l [2]vclock.Seconds) vclock.Seconds {
				if l[device.GPU] > l[device.CPU] {
					return l[device.GPU]
				}
				return l[device.CPU]
			}
			if mk(withChosen) > mk(withAlt) {
				t.Fatalf("phase %d subgraph %d: chose %s (makespan %v) over %s (%v)",
					ph.Index, i, kindName(chosen), mk(withChosen), kindName(alt), mk(withAlt))
			}
			load = withChosen
		}
		if got := ph.PredictedMakespan; got != func() vclock.Seconds {
			if load[device.GPU] > load[device.CPU] {
				return load[device.GPU]
			}
			return load[device.CPU]
		}() {
			t.Fatalf("phase %d predicted makespan %v does not match replayed load model", ph.Index, got)
		}
	}
	if a.PredictedCritical != predicted {
		t.Fatalf("PredictedCritical %v != sum of phase makespans %v", a.PredictedCritical, predicted)
	}
	if a.PredictedCritical <= 0 {
		t.Fatal("predicted critical path is not positive")
	}

	// The rig profiles real compiled modules under default (unconstrained)
	// fusion, so the audit must name fused kernels for at least one
	// subgraph, and the text report must surface them.
	fused := false
	for _, sg := range a.Subgraphs {
		if sg.Fused != "" {
			fused = true
		}
	}
	if !fused {
		t.Fatal("no audit entry names fused kernels under default fusion")
	}
	var sb strings.Builder
	if err := a.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fused(") {
		t.Fatalf("text audit does not name fused kernels:\n%s", sb.String())
	}
}

// TestAuditSwapSequenceConsistent verifies the correction trail against
// Algorithm 1 step 3: every accepted entry is an improving move or
// cross-device swap, the latencies chain, and replaying the sequence on
// the initial placement reproduces the final one.
func TestAuditSwapSequenceConsistent(t *testing.T) {
	s, _ := rig(t, nil)
	final, a, err := s.GreedyCorrectionAudit()
	if err != nil {
		t.Fatal(err)
	}
	if a.Final != final.String() {
		t.Fatalf("audit final %q != placement %q", a.Final, final)
	}
	if a.FinalMeasured > a.InitialMeasured {
		t.Fatalf("correction hurt: %v -> %v", a.InitialMeasured, a.FinalMeasured)
	}

	cur := parsePlacement(t, a.Initial)
	lat := a.InitialMeasured
	for k, sw := range a.Swaps {
		if sw.Gain <= 0 {
			t.Fatalf("swap %d accepted with non-positive gain %v", k, sw.Gain)
		}
		if sw.LatBefore != lat {
			t.Fatalf("swap %d: LatBefore %v does not chain from previous %v", k, sw.LatBefore, lat)
		}
		if sw.LatAfter != sw.LatBefore-sw.Gain {
			t.Fatalf("swap %d: gain bookkeeping off: %v != %v - %v", k, sw.LatAfter, sw.LatBefore, sw.Gain)
		}
		if sw.Before != cur.String() {
			t.Fatalf("swap %d: Before %q, replay has %q", k, sw.Before, cur)
		}
		switch sw.Kind {
		case "move":
			if sw.J != -1 {
				t.Fatalf("swap %d: move with J=%d", k, sw.J)
			}
			cur[sw.I] = cur[sw.I].Other()
		case "swap":
			if cur[sw.I] == cur[sw.J] {
				t.Fatalf("swap %d: same-device pair %d,%d", k, sw.I, sw.J)
			}
			cur[sw.I], cur[sw.J] = cur[sw.J], cur[sw.I]
		default:
			t.Fatalf("swap %d: unknown kind %q", k, sw.Kind)
		}
		if sw.After != cur.String() {
			t.Fatalf("swap %d: After %q, replay has %q", k, sw.After, cur)
		}
		lat = sw.LatAfter
	}
	if cur.String() != a.Final {
		t.Fatalf("replaying swap sequence gives %q, want %q", cur, a.Final)
	}
	if lat != a.FinalMeasured {
		t.Fatalf("final latency %v != last swap latency %v", a.FinalMeasured, lat)
	}
	// The oracle agrees with the recorded final latency (noiseless rig).
	if got := measure(t, s, final); got != a.FinalMeasured {
		t.Fatalf("re-measured final %v != audited %v", got, a.FinalMeasured)
	}

	// The audit renders without error and mentions the placements.
	var sb strings.Builder
	if err := a.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), a.Initial) || !strings.Contains(sb.String(), "critical path") {
		t.Fatalf("text audit missing placements:\n%s", sb.String())
	}
	if _, err := a.JSON(); err != nil {
		t.Fatal(err)
	}
}
