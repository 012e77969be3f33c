package verify

import (
	"fmt"

	"duet/internal/device"
	"duet/internal/partition"
)

// PlacementError is the typed failure of the placement-legality pass: either
// the placement's length does not cover the subgraph count (Index < 0, Got
// and Want carry the lengths), or one entry names an unknown device kind
// (Index, Subgraph, Phase, and Device locate it).
type PlacementError struct {
	// Index is the offending flat subgraph index, -1 for a coverage mismatch.
	Index int
	// Subgraph is the offending subgraph's name ("" when unknown).
	Subgraph string
	// Phase is the partition phase holding the subgraph (-1 when unknown).
	Phase int
	// Device is the raw offending device kind.
	Device device.Kind
	// Got and Want are the placement length and the subgraph count.
	Got, Want int
}

// Error renders the failure with every known coordinate.
func (e *PlacementError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("verify: placement covers %d subgraphs, want %d", e.Got, e.Want)
	}
	where := fmt.Sprintf("placement[%d]", e.Index)
	if e.Subgraph != "" {
		where += fmt.Sprintf(" (subgraph %q", e.Subgraph)
		if e.Phase >= 0 {
			where += fmt.Sprintf(", phase %d", e.Phase)
		}
		where += ")"
	}
	return fmt.Sprintf("verify: %s has unknown device kind %d (want CPU or GPU)", where, int(e.Device))
}

// CheckPlacement verifies that place maps every subgraph of p to a known
// device kind. On failure it returns a *PlacementError carrying the subgraph
// name and phase; nil otherwise.
func CheckPlacement(place []device.Kind, p *partition.Partition) error {
	n := 0
	for _, ph := range p.Phases {
		n += len(ph.Subgraphs)
	}
	// The legal path allocates nothing (every engine timing walk passes
	// through here); only a bad kind pays for the flattened subgraph list.
	err := CheckPlacementN(place, n)
	if pe, ok := err.(*PlacementError); ok && pe.Index >= 0 {
		pe.Subgraph = p.Subgraphs()[pe.Index].Graph.Name
		pe.Phase = p.PhaseOf(pe.Index)
	}
	return err
}

// CheckPlacementN is CheckPlacement without partition context, for callers
// that only know the subgraph count.
func CheckPlacementN(place []device.Kind, n int) error {
	if len(place) != n {
		return &PlacementError{Index: -1, Phase: -1, Got: len(place), Want: n}
	}
	for i, k := range place {
		if k != device.CPU && k != device.GPU {
			return &PlacementError{Index: i, Phase: -1, Device: k, Got: len(place), Want: n}
		}
	}
	return nil
}

// placementFinding converts a CheckPlacement error into a Finding.
func placementFinding(err error) Finding {
	f := finding(PassPlacement, "%v", err)
	if pe, ok := err.(*PlacementError); ok {
		f.Subgraph = pe.Index
	}
	return f
}
