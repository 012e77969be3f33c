package runtime

import (
	"strings"
	"testing"

	"duet/internal/device"
)

func TestUtilizationSplitPlacementOverlaps(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Placement{device.CPU, device.GPU, device.CPU}, false)
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization()
	if u.Makespan != res.Latency {
		t.Fatalf("makespan mismatch")
	}
	if u.Overlap <= 0 {
		t.Fatalf("split placement should co-execute, overlap = %v", u.Overlap)
	}
	if u.OverlapFraction() <= 0 || u.OverlapFraction() > 1 {
		t.Fatalf("overlap fraction %v out of range", u.OverlapFraction())
	}
	if u.BusyFraction("cpu0") <= 0 || u.BusyFraction("gpu0") <= 0 {
		t.Fatalf("both devices should be busy: %+v", u.Busy)
	}
	if !strings.Contains(u.String(), "co-execution") {
		t.Fatalf("String format: %s", u.String())
	}
}

func TestUtilizationUniformPlacementNoOverlap(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(nil, Uniform(e.NumSubgraphs(), device.CPU), false)
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization()
	if u.Overlap != 0 {
		t.Fatalf("single-device run reports overlap %v", u.Overlap)
	}
	if u.BusyFraction("gpu0") != 0 {
		t.Fatalf("GPU should be idle")
	}
}

// TestUtilizationLinkBusyCapped is the regression for BusyFraction > 1.0:
// concurrent transfers overlap on the interconnect track (Run issues
// boundary transfers as values become available, without serialising the
// link), and summing their durations used to exceed the makespan.
func TestUtilizationLinkBusyCapped(t *testing.T) {
	r := Result{
		Latency: 10,
		Timeline: []Span{
			{Label: "xfer:cpu→gpu:a", Device: "pcie", Start: 0, End: 8},
			{Label: "xfer:cpu→gpu:b", Device: "pcie", Start: 1, End: 9},
			{Label: "xfer:gpu→cpu:c", Device: "pcie", Start: 2, End: 7},
		},
	}
	u := r.Utilization()
	if got := u.Busy["pcie"]; got != 9 {
		t.Fatalf("link busy = %v, want union 9", got)
	}
	if f := u.BusyFraction("pcie"); f > 1 {
		t.Fatalf("link busy fraction %v exceeds 1.0", f)
	}
	if u.Overlap != 0 {
		t.Fatalf("transfers must not count as compute overlap, got %v", u.Overlap)
	}
}

// TestUtilizationSameTrackConcurrencyNotOverlap: overlapping spans on a
// single track (concurrent transfers on the link, say) are not
// cross-device co-execution and must not inflate Overlap.
func TestUtilizationSameTrackConcurrencyNotOverlap(t *testing.T) {
	r := Result{
		Latency: 10,
		Timeline: []Span{
			{Label: "sub_0", Device: "cpu0", Start: 0, End: 6},
			{Label: "sub_1", Device: "cpu0", Start: 2, End: 8},
		},
	}
	u := r.Utilization()
	if u.Overlap != 0 {
		t.Fatalf("same-device sharing reported as co-execution: %v", u.Overlap)
	}
	if got := u.Busy["cpu0"]; got != 8 {
		t.Fatalf("cpu busy = %v, want union 8", got)
	}

	// With a second device active the overlap is exactly the cross-device
	// intersection, regardless of the intra-device span structure.
	r.Timeline = append(r.Timeline, Span{Label: "sub_2", Device: "gpu0", Start: 4, End: 10})
	u = r.Utilization()
	if u.Overlap != 4 {
		t.Fatalf("cross-device overlap = %v, want 4 ([4,8])", u.Overlap)
	}
}

// TestUtilizationZeroWidthSpans: zero-width spans (Start==End, e.g. an
// instantaneous probe) occupy no time and must not perturb busy or the
// overlap sweep.
func TestUtilizationZeroWidthSpans(t *testing.T) {
	r := Result{
		Latency: 10,
		Timeline: []Span{
			{Label: "sub_0", Device: "cpu0", Start: 0, End: 10},
			{Label: "probe", Device: "gpu0", Start: 5, End: 5},
			{Label: "probe2", Device: "gpu0", Start: 0, End: 0},
		},
	}
	u := r.Utilization()
	if u.Overlap != 0 {
		t.Fatalf("zero-width spans created overlap: %v", u.Overlap)
	}
	if got := u.Busy["gpu0"]; got != 0 {
		t.Fatalf("zero-width spans created busy time: %v", got)
	}
	if got := u.Busy["cpu0"]; got != 10 {
		t.Fatalf("cpu busy = %v", got)
	}
}

// TestUtilizationExactTies: abutting open/close events at the same instant
// must not create or destroy overlap.
func TestUtilizationExactTies(t *testing.T) {
	r := Result{
		Latency: 12,
		Timeline: []Span{
			// CPU busy back-to-back; GPU takes over exactly at t=6.
			{Label: "a", Device: "cpu0", Start: 0, End: 3},
			{Label: "b", Device: "cpu0", Start: 3, End: 6},
			{Label: "c", Device: "gpu0", Start: 6, End: 12},
		},
	}
	u := r.Utilization()
	if u.Overlap != 0 {
		t.Fatalf("hand-off at an exact tie reported overlap %v", u.Overlap)
	}
	// Identical windows on both devices: overlap is the full window.
	r.Timeline = []Span{
		{Label: "a", Device: "cpu0", Start: 2, End: 9},
		{Label: "b", Device: "gpu0", Start: 2, End: 9},
	}
	u = r.Utilization()
	if u.Overlap != 7 {
		t.Fatalf("identical windows overlap = %v, want 7", u.Overlap)
	}
}

// TestUtilizationTransferNotCompute: a transfer span occupies the link, not
// a compute track. Utilization classifies spans by spanCategory, the rule
// the Chrome trace uses, so a label that only contains "xfer:" is compute.
func TestUtilizationTransferNotCompute(t *testing.T) {
	r := Result{
		Latency: 10,
		Timeline: []Span{
			{Label: "sub_0", Device: "cpu0", Start: 0, End: 10},
			{Label: "xfer:cpu→gpu:x", Device: "pcie", Start: 1, End: 4},
		},
	}
	u := r.Utilization()
	if u.Overlap != 0 {
		t.Fatalf("transfer counted as compute overlap: %v", u.Overlap)
	}
	if got := u.Busy["pcie"]; got != 3 {
		t.Fatalf("transfer busy = %v, want 3", got)
	}
	r.Timeline = append(r.Timeline, Span{Label: "sub_1:xfer:y", Device: "gpu0", Start: 5, End: 7})
	if got := r.Utilization().Overlap; got != 2 {
		t.Fatalf("overlap with a compute span whose label contains xfer: = %v, want 2", got)
	}
}

func TestUtilizationEmptyResult(t *testing.T) {
	var r Result
	u := r.Utilization()
	if u.Overlap != 0 || u.OverlapFraction() != 0 || u.BusyFraction("cpu0") != 0 {
		t.Fatalf("empty result should be all zeros: %+v", u)
	}
}
