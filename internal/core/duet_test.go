package core

import (
	"errors"
	"testing"

	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/profile"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

func buildWideDeep(t *testing.T, seed int64) *Engine {
	t.Helper()
	g, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.ProfileRuns = 5
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildWideDeepCoExecutes(t *testing.T) {
	e := buildWideDeep(t, 0)
	if e.FellBack {
		t.Fatalf("Wide&Deep should not fall back to single device")
	}
	hasCPU, hasGPU := false, false
	for _, k := range e.Placement {
		if k == device.CPU {
			hasCPU = true
		} else {
			hasGPU = true
		}
	}
	if !hasCPU || !hasGPU {
		t.Fatalf("placement %s should use both devices", e.Placement)
	}
}

func TestDuetBeatsBothUniformPlacements(t *testing.T) {
	e := buildWideDeep(t, 0)
	duet, err := e.Measure(1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := e.MeasureUniform(device.CPU, 1)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := e.MeasureUniform(device.GPU, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, c, g := vclock.Mean(duet), vclock.Mean(cpu), vclock.Mean(gpu)
	if d >= c || d >= g {
		t.Fatalf("DUET %.3fms should beat CPU %.3fms and GPU %.3fms", d*1e3, c*1e3, g*1e3)
	}
	// Paper band: 1.5-2.3× vs TVM-GPU.
	if g/d < 1.3 || g/d > 3.0 {
		t.Fatalf("GPU speedup %.2fx outside plausible band", g/d)
	}
}

func TestResNetFallsBackToGPU(t *testing.T) {
	g, err := models.ResNet(models.DefaultResNet(50))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 2
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table III behaviour: DUET matches the best single device on a
	// sequential CNN — the placement collapses to all-GPU (whether by
	// explicit fallback or because the scheduler converges there).
	for i, k := range e.Placement {
		if k != device.GPU {
			t.Fatalf("subgraph %d placed on %s; expected all-GPU", i, k)
		}
	}
	duet, _ := e.Measure(1)
	gpu, _ := e.MeasureUniform(device.GPU, 1)
	rel := vclock.Mean(duet) / vclock.Mean(gpu)
	if rel < 0.99 || rel > 1.01 {
		t.Fatalf("fallback should match TVM-GPU: ratio %.3f", rel)
	}
}

func TestInferProducesCorrectValues(t *testing.T) {
	// Small Wide&Deep executed for real through the chosen heterogeneous
	// placement must match whole-graph single-device execution.
	cfg := models.DefaultWideDeep()
	cfg.ImageSize = 32
	cfg.SeqLen = 6
	cfg.Vocab = 50
	cfg.EmbedDim = 16
	cfg.RNNHidden = 16
	cfg.FFNWidth = 32
	cfg.WideFeatures = 8
	cfg.DeepFeatures = 8
	cfg.Classes = 4
	g, err := models.WideDeep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := DefaultConfig(0)
	ecfg.ProfileRuns = 1
	e, err := Build(g, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Tensor{
		"wide.x":    tensor.Full(0.1, 1, 8),
		"deep.x":    tensor.Full(0.2, 1, 8),
		"rnn.ids":   tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 6),
		"cnn.image": tensor.Full(0.5, 1, 3, 32, 32),
	}
	res, err := e.Infer(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against an all-CPU run of the same engine.
	ref, err := e.Runtime.Run(inputs, uniform(e, device.CPU), true)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(res.Outputs[0], ref.Outputs[0], 0, 0) {
		t.Fatalf("heterogeneous inference changed values")
	}
	if len(res.Timeline) == 0 || res.Latency <= 0 {
		t.Fatalf("missing timeline/latency")
	}
}

func uniform(e *Engine, k device.Kind) []device.Kind {
	p := make([]device.Kind, e.Runtime.NumSubgraphs())
	for i := range p {
		p[i] = k
	}
	return p
}

func TestSeedReproducibility(t *testing.T) {
	a := buildWideDeep(t, 99)
	b := buildWideDeep(t, 99)
	if a.Placement.String() != b.Placement.String() {
		t.Fatalf("placements differ under same seed: %s vs %s", a.Placement, b.Placement)
	}
	sa, _ := a.Measure(20)
	sb, _ := b.Measure(20)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("latency sample %d differs under same seed", i)
		}
	}
}

func TestPlacementTableRows(t *testing.T) {
	e := buildWideDeep(t, 0)
	rows := e.PlacementTable()
	if len(rows) != len(e.Profiles) {
		t.Fatalf("rows = %d, want %d", len(rows), len(e.Profiles))
	}
	for _, r := range rows {
		if r.CPUTime <= 0 || r.GPUTime <= 0 || r.String() == "" {
			t.Fatalf("bad row: %+v", r)
		}
	}
	// Table II shape: an lstm row decided CPU, a conv row decided GPU.
	var okRNN, okCNN bool
	for _, r := range rows {
		if contains(r.Summary, "lstm") && r.Decision == device.CPU {
			okRNN = true
		}
		if contains(r.Summary, "conv2d") && r.Decision == device.GPU {
			okCNN = true
		}
	}
	if !okRNN || !okCNN {
		t.Fatalf("placement decisions do not match Table II shape: %+v", rows)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBuildRejectsInvalidGraph(t *testing.T) {
	g := graph.New("broken")
	g.AddInput("x", 1)
	if _, err := Build(g, DefaultConfig(0)); err == nil {
		t.Fatalf("expected validation error")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	g, err := models.Siamese(models.DefaultSiamese())
	if err != nil {
		t.Fatal(err)
	}
	// Zero-valued config fields must be filled with defaults.
	e, err := Build(g, Config{ProfileRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Placement == nil {
		t.Fatalf("no placement chosen")
	}
}

func TestVGGSequentialCollapsesToGPU(t *testing.T) {
	g, err := models.VGG(models.DefaultVGG())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 1
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range e.Placement {
		if k != device.GPU {
			t.Fatalf("VGG should collapse to all-GPU, got %s", e.Placement)
		}
	}
	// A single sequential phase means a single subgraph.
	if e.Runtime.NumSubgraphs() != 1 {
		t.Fatalf("VGG should be one subgraph, got %d", e.Runtime.NumSubgraphs())
	}
}

func TestMTDNNEncoderOnGPUHeadsSplit(t *testing.T) {
	g, err := models.MTDNN(models.DefaultMTDNN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 2
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Subgraph 0 is the shared Transformer encoder: GPU.
	if e.Placement[0] != device.GPU {
		t.Fatalf("encoder should run on GPU, placement %s", e.Placement)
	}
	// At least one task head must land on the CPU (co-execution).
	cpuHeads := 0
	for _, k := range e.Placement[1:] {
		if k == device.CPU {
			cpuHeads++
		}
	}
	if cpuHeads == 0 {
		t.Fatalf("no task heads on CPU: %s", e.Placement)
	}
}

func TestMemoryReportConservation(t *testing.T) {
	g, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 1
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Runtime.Memory(e.Placement)
	if err != nil {
		t.Fatal(err)
	}
	// All weights live somewhere: per-device weight bytes sum to 4 bytes ×
	// the model's parameter count.
	total := rep.WeightBytes[device.CPU] + rep.WeightBytes[device.GPU]
	if total != 4*models.ParamCount(g) {
		t.Fatalf("weight bytes %d != 4×params %d", total, 4*models.ParamCount(g))
	}
}

func TestPipelinedThroughputViaEngine(t *testing.T) {
	g, err := models.MTDNN(models.DefaultMTDNN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 1
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	duet, err := e.Search.MeasurePipelined(e.Placement, 100)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := e.Search.MeasurePipelined(uniform(e, device.GPU), 100)
	if err != nil {
		t.Fatal(err)
	}
	if duet.Throughput <= gpu.Throughput {
		t.Fatalf("pipelined DUET (%v req/s) should beat GPU (%v req/s)", duet.Throughput, gpu.Throughput)
	}
	// The throughput gain should be at least the latency gain (phases of
	// consecutive requests overlap).
	dl, _ := e.Search.MeasureLatency(e.Placement, 1)
	gl, _ := e.Search.MeasureLatency(uniform(e, device.GPU), 1)
	latencyGain := gl[0] / dl[0]
	throughputGain := duet.Throughput / gpu.Throughput
	if throughputGain < latencyGain*0.95 {
		t.Fatalf("throughput gain %.2f below latency gain %.2f", throughputGain, latencyGain)
	}
}

func TestBuildWithSuppliedRecords(t *testing.T) {
	// An engine built from persisted profiling records must reach the same
	// placement as one that profiles live — the deployment path where
	// profiling ran once offline.
	g1, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.ProfileRuns = 2
	live, err := Build(g1, cfg)
	if err != nil {
		t.Fatal(err)
	}

	g2, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	reuse := DefaultConfig(0)
	reuse.Records = live.Profiles
	fromRecords, err := Build(g2, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if fromRecords.Placement.String() != live.Placement.String() {
		t.Fatalf("record reuse changed placement: %s vs %s", fromRecords.Placement, live.Placement)
	}
}

func TestBuildRejectsMismatchedRecords(t *testing.T) {
	g, err := models.Siamese(models.DefaultSiamese())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.Records = make([]profile.Record, 1) // Siamese has 3 subgraphs
	if _, err := Build(g, cfg); err == nil {
		t.Fatalf("expected record-count error")
	}
}

// TestBuildRejectsZeroTimeRecords pins the profile-io pass's time rule on
// the path that skips LoadRecords: a supplied record with a zero CPU time
// must fail the build, not schedule against a free subgraph.
func TestBuildRejectsZeroTimeRecords(t *testing.T) {
	live := buildWideDeep(t, 0)
	recs := append([]profile.Record(nil), live.Profiles...)
	recs[0].Time[device.CPU] = 0
	g, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.Records = recs
	_, err = Build(g, cfg)
	var verr *verify.Error
	if !errors.As(err, &verr) {
		t.Fatalf("Build with a zero-time record: err = %v, want a verification error", err)
	}
	for _, f := range verr.Findings {
		if f.Pass == verify.PassProfiles && f.Subgraph == 0 && contains(f.Msg, "non-positive profiled time") {
			return
		}
	}
	t.Fatalf("no profile-io finding for subgraph 0 in %v", verr)
}

// TestProfileCacheSkipsMicrobenchmarks pins the content-hash cache
// satellite: rebuilding an unchanged model against the same cache runs
// zero micro-benchmarks, and a changed model misses.
func TestProfileCacheSkipsMicrobenchmarks(t *testing.T) {
	cache := profile.NewCache()
	cfg := DefaultConfig(5)
	cfg.ProfileRuns = 20
	cfg.ProfileCache = cache

	wideDeep := func() *graph.Graph {
		g, err := models.WideDeep(models.DefaultWideDeep())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	e1, err := Build(wideDeep(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.ProfileStats.CacheHits != 0 || e1.ProfileStats.Microbenchmarks == 0 {
		t.Fatalf("first build: stats %+v, want a cold miss with real benchmarks", e1.ProfileStats)
	}

	e2, err := Build(wideDeep(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2.ProfileStats.CacheHits != 1 || e2.ProfileStats.Microbenchmarks != 0 {
		t.Fatalf("rebuild: stats %+v, want a cache hit with zero benchmarks", e2.ProfileStats)
	}
	if len(e1.Profiles) != len(e2.Profiles) {
		t.Fatalf("cache returned %d records, first build had %d", len(e2.Profiles), len(e1.Profiles))
	}
	for i := range e1.Profiles {
		if e1.Profiles[i].Time != e2.Profiles[i].Time {
			t.Fatalf("cached record %d differs from the original", i)
		}
	}

	// A different model with the same cache must miss.
	gs, err := models.Siamese(models.DefaultSiamese())
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Build(gs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e3.ProfileStats.CacheHits != 0 || e3.ProfileStats.Microbenchmarks == 0 {
		t.Fatalf("different model: stats %+v, want a miss", e3.ProfileStats)
	}

	// Changed profiling config (different noise stream) must also miss.
	cfg2 := cfg
	cfg2.Seed = 6
	e4, err := Build(wideDeep(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if e4.ProfileStats.CacheHits != 0 {
		t.Fatalf("different seed hit the cache: stats %+v", e4.ProfileStats)
	}
}
