package faults

import (
	"math"
	"testing"

	"duet/internal/device"
	"duet/internal/ops"
)

func TestDownWindows(t *testing.T) {
	in := New(1, Outage(device.GPU, 0.010, 0.005))
	cases := []struct {
		t    float64
		down bool
	}{
		{0, false}, {0.009, false}, {0.010, true}, {0.012, true}, {0.015, false}, {1, false},
	}
	for _, c := range cases {
		if down, _ := in.Down(device.GPU, c.t); down != c.down {
			t.Fatalf("Down(GPU, %v) = %v, want %v", c.t, down, c.down)
		}
		if down, _ := in.Down(device.CPU, c.t); down {
			t.Fatalf("CPU should never be down")
		}
	}
	if down, until := New(2, Outage(device.CPU, 1, 0)).Down(device.CPU, 2); !down || !math.IsInf(until, 1) {
		t.Fatalf("permanent outage: down=%v until=%v", down, until)
	}
}

func TestKernelDeterministicUnderSeed(t *testing.T) {
	mk := func() *Injector {
		return New(7, KernelFailures(device.GPU, 0.3), Slowdown(device.CPU, 0.3, 2), TransferFailures(0.2))
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		start := float64(i) * 1e-4
		fa := a.Kernel(device.GPU, start, 1e-3)
		fb := b.Kernel(device.GPU, start, 1e-3)
		if fa != fb {
			t.Fatalf("kernel draw %d diverges: %+v vs %+v", i, fa, fb)
		}
		xa := a.Transfer(device.CPU, device.GPU, start, 1e-4)
		xb := b.Transfer(device.CPU, device.GPU, start, 1e-4)
		if xa != xb {
			t.Fatalf("transfer draw %d diverges: %+v vs %+v", i, xa, xb)
		}
	}
	// Reset rewinds the stream.
	first := mk().Kernel(device.GPU, 0, 1e-3)
	a.Reset()
	if got := a.Kernel(device.GPU, 0, 1e-3); got != first {
		t.Fatalf("Reset did not rewind: %+v vs %+v", got, first)
	}
}

func TestFaultShapes(t *testing.T) {
	// Certain slowdown: delay = dur*(factor-1), no failure.
	f := New(1, Slowdown(device.CPU, 1, 3)).Kernel(device.CPU, 0, 2e-3)
	if f.Fail || math.Abs(f.Delay-4e-3) > 1e-12 {
		t.Fatalf("slowdown fault = %+v", f)
	}
	// Certain stall.
	f = New(1, Stalls(device.GPU, 1, 5e-4)).Kernel(device.GPU, 0, 1e-3)
	if f.Fail || f.Delay != 5e-4 {
		t.Fatalf("stall fault = %+v", f)
	}
	// Certain kernel failure wastes the full duration.
	f = New(1, KernelFailures(device.GPU, 1)).Kernel(device.GPU, 0, 1e-3)
	if !f.Fail || f.Delay != 1e-3 || f.Cause != "kernel" {
		t.Fatalf("kernel failure = %+v", f)
	}
	// Specs targeting the other device never fire.
	f = New(1, KernelFailures(device.GPU, 1)).Kernel(device.CPU, 0, 1e-3)
	if f.Fail || f.Delay != 0 {
		t.Fatalf("mistargeted fault = %+v", f)
	}
	// Outage dominates kernels and transfers on the dead device.
	in := New(1, Outage(device.GPU, 0, 0))
	if f = in.Kernel(device.GPU, 0, 1e-3); !f.Fail || f.Cause != "outage" {
		t.Fatalf("outage kernel = %+v", f)
	}
	if f = in.Transfer(device.CPU, device.GPU, 0, 1e-4); !f.Fail || f.Cause != "outage" {
		t.Fatalf("outage transfer = %+v", f)
	}
	if f = in.Kernel(device.CPU, 0, 1e-3); f.Fail {
		t.Fatalf("surviving device faulted: %+v", f)
	}
}

func TestInstalledHooksPerturbSamples(t *testing.T) {
	plat := device.NewPlatform(0)
	in := New(1, Stalls(device.CPU, 1, 1e-3))
	in.Install(plat)
	c := ops.Cost{FLOPs: 1e6, Bytes: 1e4, Parallelism: 64, Launches: 1}
	healthy := plat.CPU.SampleKernelTime(c)
	dur, f := plat.CPU.SampleKernelTimeAt(c, 0)
	if f.Fail || dur != healthy+1e-3 {
		t.Fatalf("hooked sample = %v (+%v fault %+v), healthy %v", dur, dur-healthy, f, healthy)
	}
	in.Uninstall(plat)
	if dur, f = plat.CPU.SampleKernelTimeAt(c, 0); f.Fail || dur != healthy {
		t.Fatalf("uninstalled sample = %v, want %v", dur, healthy)
	}
	// Failed transfers occupy the link for the wasted duration only.
	in2 := New(1, TransferFailures(1))
	in2.Install(plat)
	dur, f = plat.Link.SampleTransferTimeAt(1<<20, device.CPU, device.GPU, 0)
	if !f.Fail || dur != plat.Link.TransferTime(1<<20) {
		t.Fatalf("failed transfer = %v fault %+v", dur, f)
	}
	// Zero-byte transfers cannot fault.
	if dur, f = plat.Link.SampleTransferTimeAt(0, device.CPU, device.GPU, 0); dur != 0 || f.Fail {
		t.Fatalf("zero-byte transfer = %v fault %+v", dur, f)
	}
	in2.Uninstall(plat)
}

func TestEmptyAndNil(t *testing.T) {
	if !New(1).Empty() {
		t.Fatalf("spec-less injector should be Empty")
	}
	var nilIn *Injector
	if !nilIn.Empty() {
		t.Fatalf("nil injector should be Empty")
	}
	if down, _ := nilIn.Down(device.GPU, 5); down {
		t.Fatalf("nil injector reports outage")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KernelSlowdown: "kernel-slowdown", KernelStall: "kernel-stall",
		KernelFailure: "kernel-failure", TransferFailure: "transfer-failure",
		DeviceOutage: "device-outage",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}

// TestPermanentOutageNeverRecovers is the regression test for the
// Duration ≤ 0 path: the device must stay down (and keep failing kernels
// and transfers) arbitrarily far past the outage start, with recovery
// reported at +Inf.
func TestPermanentOutageNeverRecovers(t *testing.T) {
	in := New(3, Outage(device.GPU, 0.002, 0))
	if down, _ := in.Down(device.GPU, 0.001); down {
		t.Fatalf("down before the outage start")
	}
	for _, at := range []float64{0.002, 0.01, 1, 1e6} {
		down, until := in.Down(device.GPU, at)
		if !down || !math.IsInf(until, 1) {
			t.Fatalf("Down(GPU, %v) = %v until %v, want permanent", at, down, until)
		}
		if f := in.Kernel(device.GPU, at, 1e-3); !f.Fail || f.Cause != "outage" || f.Delay != DetectDelay {
			t.Fatalf("kernel at %v under permanent outage = %+v", at, f)
		}
		if f := in.Transfer(device.GPU, device.CPU, at, 1e-4); !f.Fail || f.Cause != "outage" {
			t.Fatalf("transfer at %v under permanent outage = %+v", at, f)
		}
	}
	// Negative durations are the same permanent path as zero.
	if down, until := New(3, Outage(device.CPU, 1, -5)).Down(device.CPU, 2); !down || !math.IsInf(until, 1) {
		t.Fatalf("negative duration: down=%v until=%v", down, until)
	}
}
