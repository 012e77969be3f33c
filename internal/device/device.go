// Package device models the coupled CPU-GPU architecture DUET targets:
// per-device analytic roofline cost models (compute throughput, memory
// bandwidth, kernel-launch overhead, parallel-efficiency saturation) and the
// PCIe interconnect. Durations advance a virtual clock; the substitution for
// real hardware is documented in DESIGN.md §2.
package device

import (
	"fmt"

	"duet/internal/ops"
	"duet/internal/vclock"
)

// Kind distinguishes the two device classes of the paper's architecture.
type Kind int

const (
	// CPU devices have few fast cores that saturate with little parallelism
	// and cheap kernel dispatch.
	CPU Kind = iota
	// GPU devices have enormous peak throughput that only high-parallelism
	// kernels can reach, and pay a launch overhead per kernel — the reason
	// sequentially-dependent RNN steps are slow there (§III-B).
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// Other returns the opposite device kind of the coupled pair.
func (k Kind) Other() Kind {
	if k == CPU {
		return GPU
	}
	return CPU
}

// Device is an analytic execution-time model for one processor.
type Device struct {
	Name string
	Kind Kind

	// PeakFLOPS is the peak floating-point throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the sustained memory bandwidth in bytes/s.
	MemBandwidth float64
	// LaunchOverhead is the fixed cost per kernel launch in seconds.
	LaunchOverhead vclock.Seconds
	// ParallelSat is the number of independent work items at which a kernel
	// reaches half of peak throughput: efficiency = p / (p + ParallelSat).
	ParallelSat float64
	// DispatchOverhead is the host-side cost to enqueue one kernel plan.
	DispatchOverhead vclock.Seconds

	noise *vclock.Noise
}

// SetNoise installs the run-to-run variance source (nil disables noise).
func (d *Device) SetNoise(n *vclock.Noise) { d.noise = n }

// Efficiency returns the fraction of peak a kernel with the given available
// parallelism achieves on this device.
func (d *Device) Efficiency(parallelism float64) float64 {
	if parallelism <= 0 {
		parallelism = 1
	}
	return parallelism / (parallelism + d.ParallelSat)
}

// KernelTime returns the modelled wall time for one kernel described by c,
// without noise. A kernel with SeqSteps > 1 behaves as SeqSteps dependent
// launches of 1/SeqSteps of the work — the serialization that penalises
// recurrent layers on GPUs.
func (d *Device) KernelTime(c ops.Cost) vclock.Seconds {
	steps := c.SeqSteps
	if steps < 1 {
		steps = 1
	}
	eff := d.Efficiency(c.Parallelism)
	compute := c.FLOPs / float64(steps) / (d.PeakFLOPS * eff)
	memory := c.Bytes / float64(steps) / d.MemBandwidth
	perStep := compute
	if memory > perStep {
		perStep = memory
	}
	perStep += float64(c.Launches) * d.LaunchOverhead
	return float64(steps)*perStep + d.DispatchOverhead
}

// SampleKernelTime returns KernelTime perturbed by the device noise source.
func (d *Device) SampleKernelTime(c ops.Cost) vclock.Seconds {
	return d.noise.Perturb(d.KernelTime(c))
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s, %.1f TFLOP/s, %.0f GB/s)", d.Name, d.Kind, d.PeakFLOPS/1e12, d.MemBandwidth/1e9)
}

// Link models the CPU↔GPU interconnect: latency = base + bytes/bandwidth,
// the linear relation measured in the paper's Fig. 5 micro-benchmark.
type Link struct {
	Name string
	// Bandwidth is the bulk-transfer bandwidth in bytes/s.
	Bandwidth float64
	// BaseLatency is the fixed per-transfer setup cost in seconds.
	BaseLatency vclock.Seconds

	noise *vclock.Noise
}

// SetNoise installs the transfer-variance source (nil disables noise).
func (l *Link) SetNoise(n *vclock.Noise) { l.noise = n }

// TransferTime returns the modelled time to move bytes across the link,
// without noise. Zero-byte transfers cost nothing (no message is sent).
func (l *Link) TransferTime(bytes int) vclock.Seconds {
	if bytes <= 0 {
		return 0
	}
	return l.BaseLatency + float64(bytes)/l.Bandwidth
}

// SampleTransferTime returns TransferTime perturbed by the link noise.
func (l *Link) SampleTransferTime(bytes int) vclock.Seconds {
	t := l.TransferTime(bytes)
	if t == 0 {
		return 0
	}
	return l.noise.Perturb(t)
}
