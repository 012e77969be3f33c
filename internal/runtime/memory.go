package runtime

import (
	"fmt"

	"duet/internal/device"
)

// MemoryReport summarises the per-device memory footprint of a placement:
// weights stay resident on the device executing their subgraph, boundary
// activations that cross the interconnect are staged on both devices, and
// ActivationBytes bounds the live intermediate tensors per device.
type MemoryReport struct {
	// WeightBytes is the resident parameter storage per device kind.
	WeightBytes [2]int
	// ActivationBytes is the peak boundary-activation staging per device:
	// every subgraph's inputs plus outputs resident while it runs.
	ActivationBytes [2]int
	// TransferBytes is the total volume crossing the interconnect per
	// inference under this placement.
	TransferBytes int
}

// Total returns the full footprint of one device kind.
func (m MemoryReport) Total(k device.Kind) int {
	return m.WeightBytes[k] + m.ActivationBytes[k]
}

// String renders the report in MiB.
func (m MemoryReport) String() string {
	const mib = 1 << 20
	return fmt.Sprintf("cpu: %.1f MiB weights + %.1f MiB activations; gpu: %.1f MiB weights + %.1f MiB activations; %.2f MiB/inference over PCIe",
		float64(m.WeightBytes[device.CPU])/mib, float64(m.ActivationBytes[device.CPU])/mib,
		float64(m.WeightBytes[device.GPU])/mib, float64(m.ActivationBytes[device.GPU])/mib,
		float64(m.TransferBytes)/mib)
}

// Memory computes the memory footprint of a placement.
func (e *Engine) Memory(place Placement) (MemoryReport, error) {
	if err := e.validatePlacement(place); err != nil {
		return MemoryReport{}, err
	}
	var rep MemoryReport

	for i, sub := range e.subgraphs {
		kind := place[i]
		// Weights of this subgraph live on its device.
		for _, n := range sub.Graph.Nodes() {
			if n.IsConst() {
				rep.WeightBytes[kind] += n.Value.Bytes()
			}
		}
		// Peak live activations while this subgraph runs.
		live := sub.InputBytes(e.Parent) + sub.OutputBytes(e.Parent)
		if live > rep.ActivationBytes[kind] {
			rep.ActivationBytes[kind] = live
		}
		// Cross-device input traffic.
		for _, v := range e.Skeleton.consumes[i] {
			if e.Skeleton.home(v, place) != int(kind) {
				rep.TransferBytes += e.Skeleton.bytes[v]
			}
		}
	}
	// Results return to the host.
	for _, v := range e.Skeleton.outputs {
		if e.Skeleton.home(v, place) != hostLane {
			rep.TransferBytes += e.Skeleton.bytes[v]
		}
	}
	return rep, nil
}
