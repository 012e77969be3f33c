package schedule

import (
	"encoding/json"
	"fmt"
	"io"

	"duet/internal/device"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// Placement reasons recorded by the greedy step (Algorithm 1, steps 1-2).
const (
	// ReasonSequential: the subgraph sits alone on the critical path
	// (sequential phase), so it gets its profiled-fastest device.
	ReasonSequential = "sequential-fastest"
	// ReasonCriticalPin: the subgraph anchors its multi-path phase (maximum
	// best-case cost) and is pinned to its faster device.
	ReasonCriticalPin = "critical-pin"
	// ReasonGreedyBalance: placed on whichever device minimised the phase
	// makespan at its turn of the decreasing-cost sweep.
	ReasonGreedyBalance = "greedy-balance"
)

// TieMarginFrac is the relative margin below which a placement decision is
// flagged as resting on a (near-)tie: the profile separated the
// alternatives by less than 2%, so profiling noise could have flipped the
// choice, and an exact tie was decided by the silent CPU-first tie-break
// alone.
const TieMarginFrac = 0.02

// SubgraphAudit explains one subgraph's placement: both profiled costs, the
// chosen device, and which rule of Algorithm 1 chose it.
type SubgraphAudit struct {
	Index      int            `json:"index"`
	Name       string         `json:"name"`
	CPUSeconds vclock.Seconds `json:"cpu_seconds"`
	GPUSeconds vclock.Seconds `json:"gpu_seconds"`
	Chosen     string         `json:"chosen"`
	Reason     string         `json:"reason"`
	// Fused restates the profile record's fused-kernel tags ("name+N",
	// comma-joined): the costs the decision weighed are costs of these
	// fused kernels, so the audit names them rather than hiding the fusion
	// plan behind a bare time.
	Fused string `json:"fused,omitempty"`
	// MarginFrac is the relative separation of the alternatives the
	// decision weighed: the profiled CPU/GPU costs for sequential and
	// critical-pin placements, the candidate phase makespans for
	// greedy-balance.
	MarginFrac float64 `json:"margin_frac"`
	// TieBreak marks decisions whose margin fell below TieMarginFrac —
	// including exact ties, where the CPU-first tie-break, not the
	// profile, chose the device.
	TieBreak bool `json:"tie_break,omitempty"`
}

// PhaseAudit summarises one partition phase of the greedy pass.
type PhaseAudit struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"` // "sequential" | "multi-path"
	Lo    int    `json:"lo"`   // flat subgraph range [Lo, Hi)
	Hi    int    `json:"hi"`
	// Critical is the flat index pinned as the phase's critical subgraph
	// (-1 for sequential phases, where every subgraph is critical).
	Critical int `json:"critical"`
	// PredictedMakespan is the phase cost the greedy load model predicts:
	// the max per-device load for multi-path phases, the sum of fastest
	// costs for sequential ones.
	PredictedMakespan vclock.Seconds `json:"predicted_makespan_seconds"`
}

// SwapAudit is one accepted correction (Algorithm 1, step 3): either a
// single move (J < 0) or a cross-device pair swap, with the measured
// latency on both sides of the decision.
type SwapAudit struct {
	Phase     int            `json:"phase"`
	Round     int            `json:"round"`
	Kind      string         `json:"kind"` // "move" | "swap"
	I         int            `json:"i"`
	J         int            `json:"j"` // -1 for moves
	Before    string         `json:"before"`
	After     string         `json:"after"`
	LatBefore vclock.Seconds `json:"lat_before_seconds"`
	LatAfter  vclock.Seconds `json:"lat_after_seconds"`
	Gain      vclock.Seconds `json:"gain_seconds"`
}

// Audit is the structured decision trail of one greedy-correction run: why
// each subgraph landed where it did, every accepted correction, and the
// predicted critical path against the measured one.
type Audit struct {
	Subgraphs []SubgraphAudit `json:"subgraphs"`
	Phases    []PhaseAudit    `json:"phases"`
	Swaps     []SwapAudit     `json:"swaps"`

	Initial string `json:"initial"` // greedy placement, e.g. "CGGC"
	Final   string `json:"final"`   // post-correction placement

	// PredictedCritical sums the greedy model's per-phase makespans — the
	// critical path Algorithm 1 believes it built.
	PredictedCritical vclock.Seconds `json:"predicted_critical_seconds"`
	// InitialMeasured / FinalMeasured bracket the correction step with the
	// latency oracle.
	InitialMeasured vclock.Seconds `json:"initial_measured_seconds"`
	FinalMeasured   vclock.Seconds `json:"final_measured_seconds"`
}

func kindName(k device.Kind) string {
	if k == device.GPU {
		return "gpu"
	}
	return "cpu"
}

// GreedyAudit runs steps 1-2 of Algorithm 1 and returns the placement
// together with its decision trail.
func (s *Scheduler) GreedyAudit() (runtime.Placement, *Audit) {
	a := &Audit{}
	place := s.greedy(a)
	a.Initial = place.String()
	return place, a
}

// CorrectAudit runs step 3 on initial, appending every accepted move/swap
// to a. The input placement is not mutated.
func (s *Scheduler) CorrectAudit(initial runtime.Placement, a *Audit) (runtime.Placement, error) {
	return s.correct(initial, a)
}

// GreedyCorrectionAudit runs the full Algorithm 1 and returns the final
// placement with its complete audit (greedy reasons, swap sequence,
// predicted vs measured critical path).
func (s *Scheduler) GreedyCorrectionAudit() (runtime.Placement, *Audit, error) {
	place, a := s.GreedyAudit()
	final, err := s.correct(place, a)
	if err != nil {
		return nil, nil, err
	}
	a.Final = final.String()
	return final, a, nil
}

// WriteText renders the audit as a human-readable report.
func (a *Audit) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "placement audit: %s -> %s\n", a.Initial, a.Final)
	fmt.Fprintf(w, "critical path: predicted %.6fs, measured %.6fs (greedy) -> %.6fs (corrected)\n",
		float64(a.PredictedCritical), float64(a.InitialMeasured), float64(a.FinalMeasured))
	fmt.Fprintf(w, "\n%5s %-24s %12s %12s %6s %8s %s\n", "idx", "subgraph", "cpu (s)", "gpu (s)", "dev", "margin", "reason")
	for _, sg := range a.Subgraphs {
		reason := sg.Reason
		if sg.TieBreak {
			// Flag decisions the profile barely (or not at all) separated:
			// the CPU-first tie-break or noise-level margins decided these.
			reason += " [tie]"
		}
		if sg.Fused != "" {
			// Name the fused kernels the weighed costs belong to.
			reason += " fused(" + sg.Fused + ")"
		}
		fmt.Fprintf(w, "%5d %-24s %12.6f %12.6f %6s %7.2f%% %s\n",
			sg.Index, sg.Name, float64(sg.CPUSeconds), float64(sg.GPUSeconds), sg.Chosen, sg.MarginFrac*100, reason)
	}
	if len(a.Swaps) == 0 {
		fmt.Fprintf(w, "\ncorrection: no improving move or swap found\n")
		return nil
	}
	fmt.Fprintf(w, "\ncorrection sequence (%d accepted):\n", len(a.Swaps))
	for _, sw := range a.Swaps {
		target := fmt.Sprintf("#%d", sw.I)
		if sw.J >= 0 {
			target = fmt.Sprintf("#%d<->#%d", sw.I, sw.J)
		}
		fmt.Fprintf(w, "  phase %d round %d %-4s %-10s %s -> %s  %.6fs -> %.6fs (gain %.6fs)\n",
			sw.Phase, sw.Round, sw.Kind, target, sw.Before, sw.After,
			float64(sw.LatBefore), float64(sw.LatAfter), float64(sw.Gain))
	}
	return nil
}

// JSON returns the indented JSON encoding of the audit.
func (a *Audit) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// Trail converts the audit into the scheduler-independent form the static
// verification layer replays (verify.CheckAudit).
func (a *Audit) Trail() *verify.AuditTrail {
	t := &verify.AuditTrail{
		Initial:         a.Initial,
		Final:           a.Final,
		InitialMeasured: a.InitialMeasured,
		FinalMeasured:   a.FinalMeasured,
	}
	for _, sg := range a.Subgraphs {
		t.Subgraphs = append(t.Subgraphs, verify.AuditSubgraph{
			Index:      sg.Index,
			Name:       sg.Name,
			CPUSeconds: sg.CPUSeconds,
			GPUSeconds: sg.GPUSeconds,
			Chosen:     sg.Chosen,
			Reason:     sg.Reason,
			Fused:      sg.Fused,
			MarginFrac: sg.MarginFrac,
			TieBreak:   sg.TieBreak,
		})
	}
	for _, sw := range a.Swaps {
		t.Swaps = append(t.Swaps, verify.AuditSwap{
			Phase:     sw.Phase,
			Round:     sw.Round,
			Kind:      sw.Kind,
			I:         sw.I,
			J:         sw.J,
			Before:    sw.Before,
			After:     sw.After,
			LatBefore: sw.LatBefore,
			LatAfter:  sw.LatAfter,
			Gain:      sw.Gain,
		})
	}
	return t
}

// Verify replays the audit against the partition and profiles that produced
// it and returns a *verify.Error when the decision trail is inconsistent
// with Algorithm 1 — the replay check of the static verification layer.
func (a *Audit) Verify(p *partition.Partition, records []profile.Record) error {
	return verify.AsError(verify.CheckAudit(p, records, a.Trail()))
}
