package runtime

import (
	"testing"

	"duet/internal/device"
	"duet/internal/obs"
)

// TestInstrumentRunCounters: instrumented Run records run counts, a latency
// histogram, and per-device busy seconds that reconcile with the timeline.
func TestInstrumentRunCounters(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	place := Placement{device.CPU, device.GPU, device.CPU}

	const runs = 7
	for i := 0; i < runs; i++ {
		if _, err := e.Run(inputs, place, false); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Counters[`duet_runs_total{path="run"}`]; got != runs {
		t.Fatalf("runs counter = %d, want %d", got, runs)
	}
	if got := s.Histograms[`duet_latency_seconds{path="run"}`].Count; got != runs {
		t.Fatalf("latency histogram count = %d, want %d", got, runs)
	}
	for _, dev := range []string{"cpu0", "gpu0"} {
		if s.Gauges[`duet_device_busy_seconds_total{device="`+dev+`"}`] <= 0 {
			t.Fatalf("device %s busy seconds not recorded: %+v", dev, s.Gauges)
		}
	}
	// Busy seconds must reconcile with one run's timeline times the run count.
	res, err := e.Run(inputs, place, false)
	if err != nil {
		t.Fatal(err)
	}
	var cpu, gpu float64
	for _, sp := range res.Timeline {
		switch sp.Device {
		case "cpu0":
			cpu += float64(sp.End - sp.Start)
		case "gpu0":
			gpu += float64(sp.End - sp.Start)
		}
	}
	s = reg.Snapshot()
	wantCPU := cpu * (runs + 1)
	if got := s.Gauges[`duet_device_busy_seconds_total{device="cpu0"}`]; !approxEqual(got, wantCPU) {
		t.Fatalf("cpu busy = %g, want %g", got, wantCPU)
	}
	wantGPU := gpu * (runs + 1)
	if got := s.Gauges[`duet_device_busy_seconds_total{device="gpu0"}`]; !approxEqual(got, wantGPU) {
		t.Fatalf("gpu busy = %g, want %g", got, wantGPU)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

// TestUninstrumentedEngineNoop: every recording path must tolerate the
// all-nil zero metrics (no registry attached).
func TestUninstrumentedEngineNoop(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	place := Placement{device.CPU, device.GPU, device.CPU}
	if _, err := e.Run(inputs, place, false); err != nil {
		t.Fatal(err)
	}
	if e.Registry() != nil {
		t.Fatal("uninstrumented engine reports a registry")
	}
}

// TestInstrumentFusionGauges: Instrument publishes the compile-time fusion
// plan — group/chain-op counts and saved launches reconcile with the
// engine's modules.
func TestInstrumentFusionGauges(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	groups, chainOps, saved := 0, 0, 0
	for i := 0; i < e.NumSubgraphs(); i++ {
		m := e.Module(i)
		s := m.FusionStats()
		groups += s.Groups
		chainOps += s.FusedOps - s.Groups
		saved += m.UnfusedLaunchCount() - m.LaunchCount()
	}
	if groups == 0 || saved <= 0 {
		t.Fatalf("fixture compiled without fused groups (groups=%d saved=%d) — gauge test is vacuous", groups, saved)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"duet_fusion_groups":         float64(groups),
		"duet_fusion_chain_ops":      float64(chainOps),
		"duet_fusion_launches_saved": float64(saved),
	} {
		if got := snap.Gauges[name]; got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
}
