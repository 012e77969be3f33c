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

// Fault describes an injected event observed at a sample site. When Fail is
// false, Delay adds to the healthy duration (a slowdown or stall). When Fail
// is true, the operation aborts after occupying the resource for Delay — the
// injector decides how much of the healthy duration was wasted before the
// failure was detected.
type Fault struct {
	Delay vclock.Seconds
	Fail  bool
	// Cause is a short label for timelines and logs, e.g. "stall", "outage".
	Cause string
}

// KernelHook intercepts one sampled kernel on a device: start is the virtual
// time the kernel begins and dur its sampled healthy duration. Hooks are
// consulted only by the *At sample variants, so fault-unaware callers pay
// nothing.
type KernelHook func(kind Kind, start, dur vclock.Seconds) Fault

// TransferHook intercepts one sampled transfer from src to dst.
type TransferHook func(src, dst Kind, start, dur vclock.Seconds) Fault

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
	hook  KernelHook
}

// SetNoise installs the run-to-run variance source (nil disables noise).
func (d *Device) SetNoise(n *vclock.Noise) { d.noise = n }

// SetKernelHook installs the fault injector consulted by SampleKernelTimeAt
// (nil removes it).
func (d *Device) SetKernelHook(h KernelHook) { d.hook = h }

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

// SampleKernelTimeAt samples a kernel starting at virtual time start and
// consults the installed fault hook. The returned duration is the time the
// kernel occupies the device — healthy duration plus injected delay, or the
// wasted time alone when the fault failed the kernel.
func (d *Device) SampleKernelTimeAt(c ops.Cost, start vclock.Seconds) (vclock.Seconds, Fault) {
	t := d.SampleKernelTime(c)
	if d.hook == nil {
		return t, Fault{}
	}
	f := d.hook(d.Kind, start, t)
	if f.Fail {
		return f.Delay, f
	}
	return t + f.Delay, f
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
	hook  TransferHook
}

// SetNoise installs the transfer-variance source (nil disables noise).
func (l *Link) SetNoise(n *vclock.Noise) { l.noise = n }

// SetTransferHook installs the fault injector consulted by
// SampleTransferTimeAt (nil removes it).
func (l *Link) SetTransferHook(h TransferHook) { l.hook = h }

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

// SampleTransferTimeAt samples a src→dst transfer starting at virtual time
// start and consults the installed fault hook. Zero-byte transfers send no
// message and cannot fault. The returned duration is the time the transfer
// occupies the link (wasted time alone when the fault failed it).
func (l *Link) SampleTransferTimeAt(bytes int, src, dst Kind, start vclock.Seconds) (vclock.Seconds, Fault) {
	t := l.SampleTransferTime(bytes)
	if t == 0 || l.hook == nil {
		return t, Fault{}
	}
	f := l.hook(src, dst, start, t)
	if f.Fail {
		return f.Delay, f
	}
	return t + f.Delay, f
}
