// Package faults provides deterministic, seedable fault injection for the
// execution engine. An Injector implements the device-layer fault hooks
// (device.KernelHook / device.TransferHook) and perturbs sampled durations
// on the virtual clock: kernels slow down, stall, or fail transiently;
// transfers fail; a whole device can go offline at a virtual time and
// optionally recover. Probabilistic kinds draw from a seeded RNG — one draw
// per matching spec per sample, so the same seed and the same call sequence
// reproduce the same fault schedule exactly. DeviceOutage is a pure
// function of the virtual clock.
//
// Injectors are not safe for concurrent use; the engine's timing pass is
// serial, which is also what keeps the draw order deterministic.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"duet/internal/device"
	"duet/internal/vclock"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KernelSlowdown multiplies a kernel's duration by Factor — modelling
	// multi-tenant interference or thermal throttling.
	KernelSlowdown Kind = iota
	// KernelStall adds a fixed Stall to a kernel's duration — a scheduler
	// hiccup or page fault.
	KernelStall
	// KernelFailure aborts a kernel after its full duration was spent — the
	// work is lost and the subgraph attempt fails.
	KernelFailure
	// TransferFailure aborts a link transfer after its full duration — a
	// dropped or corrupted DMA that must be re-issued.
	TransferFailure
	// DeviceOutage takes a whole device offline at virtual time At for
	// Duration (≤0 = permanent): kernels on it and transfers touching it
	// fail until recovery.
	DeviceOutage
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KernelSlowdown:
		return "kernel-slowdown"
	case KernelStall:
		return "kernel-stall"
	case KernelFailure:
		return "kernel-failure"
	case TransferFailure:
		return "transfer-failure"
	case DeviceOutage:
		return "device-outage"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// DetectDelay is the virtual time a worker needs to notice that its device
// is unreachable (a poll timeout), charged per failed attempt on a device
// that is down.
const DetectDelay vclock.Seconds = 5e-6

// Spec configures one fault source inside an Injector.
type Spec struct {
	Kind Kind
	// Device targets kernel kinds and DeviceOutage (ignored for
	// TransferFailure, which lives on the link).
	Device device.Kind
	// Prob is the per-sample probability for the probabilistic kinds.
	Prob float64
	// Factor is the KernelSlowdown duration multiplier (e.g. 3 = 3× slower).
	Factor float64
	// Stall is the KernelStall added duration.
	Stall vclock.Seconds
	// At is the start of a DeviceOutage on the run's virtual clock.
	At vclock.Seconds
	// Duration is the DeviceOutage's length; ≤0 means the device never
	// recovers.
	Duration vclock.Seconds
}

// Slowdown returns a spec multiplying kernel durations on dev by factor with
// the given per-kernel probability.
func Slowdown(dev device.Kind, prob, factor float64) Spec {
	return Spec{Kind: KernelSlowdown, Device: dev, Prob: prob, Factor: factor}
}

// Stalls returns a spec adding stall to kernels on dev with the given
// per-kernel probability.
func Stalls(dev device.Kind, prob float64, stall vclock.Seconds) Spec {
	return Spec{Kind: KernelStall, Device: dev, Prob: prob, Stall: stall}
}

// KernelFailures returns a spec failing kernels on dev with the given
// per-kernel probability.
func KernelFailures(dev device.Kind, prob float64) Spec {
	return Spec{Kind: KernelFailure, Device: dev, Prob: prob}
}

// TransferFailures returns a spec failing link transfers with the given
// per-transfer probability.
func TransferFailures(prob float64) Spec {
	return Spec{Kind: TransferFailure, Prob: prob}
}

// Outage returns a spec taking dev offline at virtual time at for duration
// (≤0 = permanently).
func Outage(dev device.Kind, at, duration vclock.Seconds) Spec {
	return Spec{Kind: DeviceOutage, Device: dev, At: at, Duration: duration}
}

// Injector is a deterministic fault source. The zero value injects nothing;
// construct with New.
type Injector struct {
	seed  int64
	rng   *rand.Rand
	specs []Spec
}

// New returns an injector drawing from the given seed. With no specs it is
// a no-op (Empty reports true).
func New(seed int64, specs ...Spec) *Injector {
	in := &Injector{seed: seed, specs: specs}
	in.Reset()
	return in
}

// Reset rewinds the RNG to the seed so the next run reproduces the first
// run's fault schedule exactly.
func (in *Injector) Reset() { in.rng = rand.New(rand.NewSource(in.seed)) }

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

// Specs returns the configured fault sources.
func (in *Injector) Specs() []Spec { return in.specs }

// Empty reports whether the injector has no fault sources.
func (in *Injector) Empty() bool { return in == nil || len(in.specs) == 0 }

// Down reports whether dev is inside an outage window at virtual time t,
// and when it recovers (math.Inf(1) for a permanent outage).
func (in *Injector) Down(dev device.Kind, t vclock.Seconds) (bool, vclock.Seconds) {
	if in == nil {
		return false, 0
	}
	for _, s := range in.specs {
		if s.Kind != DeviceOutage || s.Device != dev || t < s.At {
			continue
		}
		if s.Duration <= 0 {
			return true, math.Inf(1)
		}
		if t < s.At+s.Duration {
			return true, s.At + s.Duration
		}
	}
	return false, 0
}

// Kernel implements device.KernelHook: it is consulted once per sampled
// kernel and decides the injected delay or failure. Each probabilistic spec
// matching the device consumes exactly one RNG draw whether or not it fires,
// keeping the stream aligned across runs.
func (in *Injector) Kernel(kind device.Kind, start, dur vclock.Seconds) device.Fault {
	if down, _ := in.Down(kind, start); down {
		return device.Fault{Delay: DetectDelay, Fail: true, Cause: "outage"}
	}
	var f device.Fault
	for _, s := range in.specs {
		switch s.Kind {
		case KernelSlowdown:
			if s.Device == kind && in.rng.Float64() < s.Prob {
				f.Delay += dur * (s.Factor - 1)
				f.Cause = "slowdown"
			}
		case KernelStall:
			if s.Device == kind && in.rng.Float64() < s.Prob {
				f.Delay += s.Stall
				f.Cause = "stall"
			}
		case KernelFailure:
			if s.Device == kind && in.rng.Float64() < s.Prob && !f.Fail {
				// The kernel runs to completion before the bad result is
				// detected: the whole duration (plus any stall) is wasted.
				f.Delay += dur
				f.Fail = true
				f.Cause = "kernel"
			}
		}
	}
	return f
}

// Transfer implements device.TransferHook: transfers touching a device that
// is down fail immediately; otherwise TransferFailure specs may fail the
// transfer after its full duration.
func (in *Injector) Transfer(src, dst device.Kind, start, dur vclock.Seconds) device.Fault {
	for _, k := range [2]device.Kind{src, dst} {
		if down, _ := in.Down(k, start); down {
			return device.Fault{Delay: DetectDelay, Fail: true, Cause: "outage"}
		}
	}
	var f device.Fault
	for _, s := range in.specs {
		if s.Kind != TransferFailure {
			continue
		}
		if in.rng.Float64() < s.Prob && !f.Fail {
			f.Delay += dur
			f.Fail = true
			f.Cause = "transfer"
		}
	}
	return f
}

// Install hooks the injector into both devices and the link of a platform.
func (in *Injector) Install(p *device.Platform) {
	p.CPU.SetKernelHook(in.Kernel)
	p.GPU.SetKernelHook(in.Kernel)
	p.Link.SetTransferHook(in.Transfer)
}

// Uninstall removes the platform's fault hooks.
func (in *Injector) Uninstall(p *device.Platform) {
	p.CPU.SetKernelHook(nil)
	p.GPU.SetKernelHook(nil)
	p.Link.SetTransferHook(nil)
}
