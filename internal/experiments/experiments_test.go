package experiments

import (
	"bytes"
	"encoding/json"
	"io"

	"duet/internal/device"
	"strings"
	"testing"

	"duet/internal/stats"
)

// tiny returns a minimal config so experiment tests stay fast.
func tiny() Config { return Config{Seed: 42, Runs: 40, ProfileRuns: 3} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig4", "fig5", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tab1", "tab2", "tab3"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("All() returned %d experiments, want ≥ %d", len(All()), len(want))
	}
	prev := ""
	for _, e := range All() {
		if e.ID <= prev {
			t.Fatalf("All() not sorted: %s after %s", e.ID, prev)
		}
		prev = e.ID
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	runs, err := Fig11Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expected 3 models")
	}
	for _, r := range runs {
		gpuSpeed := stats.Speedup(r.TVMGPU.Mean, r.DUET.Mean)
		cpuSpeed := stats.Speedup(r.TVMCPU.Mean, r.DUET.Mean)
		// Paper bands (abstract): 1.5-2.3x vs TVM-GPU, 1.3-6.4x vs TVM-CPU
		// (up to 15.9x per §VI-B); allow generous slack around them.
		if gpuSpeed < 1.3 || gpuSpeed > 3.5 {
			t.Errorf("%s: GPU speedup %.2fx outside [1.3, 3.5]", r.Model, gpuSpeed)
		}
		if cpuSpeed < 1.2 || cpuSpeed > 20 {
			t.Errorf("%s: CPU speedup %.2fx outside [1.2, 20]", r.Model, cpuSpeed)
		}
		// DUET must never lose to the frameworks.
		if r.DUET.Mean >= r.FrameworkGPU.Mean || r.DUET.Mean >= r.FrameworkCPU.Mean {
			t.Errorf("%s: DUET should beat both frameworks", r.Model)
		}
	}
}

func TestFig12TailsOrdered(t *testing.T) {
	runs, err := Fig11Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		for _, s := range []stats.Summary{r.DUET, r.TVMGPU} {
			if !(s.P50 <= s.P99 && s.P99 <= s.P999) {
				t.Errorf("%s: percentiles not ordered: %+v", r.Model, s)
			}
		}
		// DUET keeps winning at the tail.
		if r.DUET.P99 >= r.TVMGPU.P99 {
			t.Errorf("%s: DUET P99 (%v) should beat TVM-GPU P99 (%v)", r.Model, r.DUET.P99, r.TVMGPU.P99)
		}
	}
}

func TestFig13OrderingMatchesPaper(t *testing.T) {
	r, err := Fig13Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.GreedyCorrection > r.Ideal*1.02 {
		t.Errorf("greedy+correction (%v) should match ideal (%v)", r.GreedyCorrection, r.Ideal)
	}
	if r.GreedyCorrection > r.Random {
		t.Errorf("greedy+correction should beat random")
	}
	if r.RandomCorrection > r.Random {
		t.Errorf("random+correction should beat random")
	}
	if r.Ideal > r.RoundRobin || r.Ideal > r.Random {
		t.Errorf("ideal must lower-bound the baselines")
	}
}

func TestFig14GPUDegradesFastest(t *testing.T) {
	points, err := Fig14Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 sweep points")
	}
	// GPU latency growth from 1 to 8 layers must exceed CPU growth in
	// relative terms (RNN hurts GPU more, Fig. 14).
	gpuGrowth := points[3].TVMGPU / points[0].TVMGPU
	cpuGrowth := points[3].TVMCPU / points[0].TVMCPU
	if gpuGrowth <= cpuGrowth {
		t.Errorf("GPU growth %.2fx should exceed CPU growth %.2fx", gpuGrowth, cpuGrowth)
	}
	for _, p := range points {
		if p.DUET >= p.TVMGPU || p.DUET >= p.TVMCPU {
			t.Errorf("DUET should win at rnn_layers=%d", p.X)
		}
	}
}

func TestFig15CPUDegradesFastest(t *testing.T) {
	points, err := Fig15Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	cpuGrowth := points[len(points)-1].TVMCPU / points[0].TVMCPU
	gpuGrowth := points[len(points)-1].TVMGPU / points[0].TVMGPU
	if cpuGrowth <= gpuGrowth {
		t.Errorf("CNN depth should hurt CPU most: cpu %.2fx vs gpu %.2fx", cpuGrowth, gpuGrowth)
	}
	// DUET stays flat while the CNN hides under the RNN (18 → 50).
	if points[2].DUET > points[0].DUET*1.2 {
		t.Errorf("DUET should stay nearly flat to depth 50: %v vs %v", points[2].DUET, points[0].DUET)
	}
}

func TestFig16FlatAcrossFFNDepth(t *testing.T) {
	points, err := Fig16Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points[1:] {
		if p.DUET > points[0].DUET*1.15 {
			t.Errorf("FFN depth should barely change DUET: %v vs %v", p.DUET, points[0].DUET)
		}
	}
}

func TestFig17SpeedupDiminishesWithBatch(t *testing.T) {
	points, err := Fig17Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	first := stats.Speedup(points[0].TVMGPU, points[0].DUET)
	last := stats.Speedup(points[len(points)-1].TVMGPU, points[len(points)-1].DUET)
	if first < 1.3 {
		t.Errorf("batch-2 speedup %.2fx too small", first)
	}
	if last > first {
		t.Errorf("speedup should diminish with batch: %.2fx -> %.2fx", first, last)
	}
	if last < 0.95 {
		t.Errorf("DUET should never lose at large batch: %.2fx", last)
	}
}

func TestTab3FallbackMatchesGPU(t *testing.T) {
	rows, err := Tab3Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		rel := r.DUET / r.TVMGPU
		if rel > 1.02 || rel < 0.9 {
			t.Errorf("%s: DUET/GPU ratio %.3f should be ~1 (fallback)", r.Model, rel)
		}
		if r.TVMCPU < r.TVMGPU {
			t.Errorf("%s: CPU should be slower than GPU on CNNs", r.Model)
		}
	}
}

func TestAllExperimentsRenderOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full render pass is slow")
	}
	cfg := tiny()
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(cfg, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.Contains(out, e.ID) {
			t.Errorf("%s output missing header: %q", e.ID, out[:min(80, len(out))])
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short", e.ID)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = io.Discard

func TestBuildReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report build is slow")
	}
	r, err := BuildReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fig11) != 3 || len(r.Fig14) != 4 || len(r.Fig17) != 5 || len(r.Tab3) != 5 {
		t.Fatalf("report incomplete: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if back.Fig11[0].DUET.Mean != r.Fig11[0].DUET.Mean {
		t.Fatalf("JSON round trip lost data")
	}
}

func TestAbl8PlatformSensitivity(t *testing.T) {
	var buf bytes.Buffer
	if err := Abl8(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"baseline", "nvlink", "slow-launch", "fast-launch", "weak-cpu", "beefy-cpu"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing variant %q:\n%s", frag, out)
		}
	}
}

func TestPlatformVariantsIndependent(t *testing.T) {
	// Variant builders must not mutate shared state: building nvlink then
	// baseline must leave baseline calibrated.
	vs := platformVariants()
	var nv, base *device.Platform
	for _, v := range vs {
		switch v.Name {
		case "nvlink":
			nv = v.Build()
		case "baseline":
			base = v.Build()
		}
	}
	if nv.Link.Bandwidth <= base.Link.Bandwidth {
		t.Fatalf("nvlink variant not applied")
	}
	fresh := device.NewPlatform(0)
	if base.Link.Bandwidth != fresh.Link.Bandwidth || base.GPU.LaunchOverhead != fresh.GPU.LaunchOverhead {
		t.Fatalf("baseline variant drifted from calibration")
	}
}
