// Package core assembles DUET's pipeline — coarse-grained partitioning,
// compiler-aware profiling, greedy-correction scheduling, and heterogeneous
// execution — into the inference engine the paper presents (Fig. 6). If the
// scheduled co-execution does not beat the best single device, the engine
// falls back to single-device execution (§VI-E).
package core

import (
	"fmt"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/obs"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// Config controls how a DUET engine is built.
type Config struct {
	// Seed drives every noise source; the same seed reproduces the same
	// latency samples. Seed 0 builds a noiseless engine.
	Seed int64
	// ProfileRuns is the micro-benchmark repetition count (paper: 500).
	ProfileRuns int
	// MeasureRuns is how many runs each correction-step latency measurement
	// averages.
	MeasureRuns int
	// Compiler selects the graph-level optimizations subgraphs are compiled
	// with. Defaults to the full pipeline.
	Compiler compiler.Options
	// Records, when non-nil, supplies previously persisted profiling
	// records (profile.SaveRecords/LoadRecords) instead of re-profiling —
	// profiling is an offline one-time cost (§IV-B). The record count must
	// match the partition's subgraph count.
	Records []profile.Record
	// DisableVerify skips the static verification passes that otherwise run
	// over every built engine's artifacts (graph, partition, profiles,
	// placement, kernel plans). Verification is on by default and a finding
	// fails the build; disabling is for experiments that deliberately build
	// corrupted artifacts.
	DisableVerify bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		ProfileRuns: 500,
		MeasureRuns: 3,
		Compiler:    compiler.DefaultOptions(),
	}
}

// Engine is a built DUET inference engine for one model.
type Engine struct {
	Graph     *graph.Graph
	Partition *partition.Partition
	// Runtime executes with seeded run-to-run noise (evaluation).
	Runtime *runtime.Engine
	// Search executes noiselessly (deterministic schedule search).
	Search *runtime.Engine
	// Profiles holds the per-subgraph records from the compiler-aware
	// profiler.
	Profiles []profile.Record
	// Scheduler is retained so callers can run baseline algorithms.
	Scheduler *schedule.Scheduler
	// Placement is the chosen subgraph→device mapping.
	Placement runtime.Placement
	// FellBack reports that single-device execution won and Placement is
	// uniform.
	FellBack bool
	// Options records the compiler options the engine was built with, so
	// layers above (the serving layer's batched-module compiler) can compile
	// sibling graphs through the identical optimization pipeline.
	Options compiler.Options
	// ProfileStats accounts for the profiler's work; zero when Records
	// were supplied.
	ProfileStats ProfileStats
}

// ProfileStats accounts for the micro-benchmarking Build ran.
type ProfileStats struct {
	// Microbenchmarks is the number of micro-benchmark executions, one per
	// device per repetition per subgraph.
	Microbenchmarks int
}

// Build constructs the engine: validates and shape-infers the graph,
// partitions it, profiles every subgraph on both devices, runs
// greedy-correction scheduling, and applies the single-device fallback
// comparison.
func Build(g *graph.Graph, cfg Config) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := compiler.InferShapes(g); err != nil {
		return nil, err
	}
	if cfg.ProfileRuns <= 0 {
		cfg.ProfileRuns = 500
	}
	if cfg.MeasureRuns <= 0 {
		cfg.MeasureRuns = 1
	}
	zero := compiler.Options{}
	if cfg.Compiler == zero {
		cfg.Compiler = compiler.DefaultOptions()
	}

	part, err := partition.Build(g)
	if err != nil {
		return nil, err
	}
	noisy, err := runtime.New(part, device.NewPlatform(cfg.Seed), cfg.Compiler)
	if err != nil {
		return nil, err
	}
	// Modules, tuned costs and the dataflow skeleton depend on device
	// constants, never on the seed: the noiseless search engine shares them.
	search := noisy.WithPlatform(device.NewPlatform(0))

	var stats ProfileStats
	records := cfg.Records
	if records == nil {
		records, stats = cfg.profileAll(search)
	} else if len(records) != len(part.Subgraphs()) {
		return nil, fmt.Errorf("core: %d supplied profile records for %d subgraphs — re-profile after model changes", len(records), len(part.Subgraphs()))
	}

	sched, err := schedule.New(part, records, schedule.EngineMeasure(search, cfg.MeasureRuns))
	if err != nil {
		return nil, err
	}

	e := &Engine{
		Graph:        g,
		Partition:    part,
		Runtime:      noisy,
		Search:       search,
		Profiles:     records,
		Scheduler:    sched,
		Options:      cfg.Compiler,
		ProfileStats: stats,
	}

	if e.Placement, err = sched.GreedyCorrection(); err != nil {
		return nil, err
	}
	if err := e.applyFallback(); err != nil {
		return nil, err
	}
	if !cfg.DisableVerify {
		if err := verify.AsError(e.Verify()); err != nil {
			return nil, fmt.Errorf("core: built engine failed static verification: %w", err)
		}
	}
	return e, nil
}

// profileAll micro-benchmarks every subgraph over the engine's compiled
// modules, one record per subgraph in flat partition order: per-device
// lowering still happens inside the profiler, where it belongs, but no
// subgraph is compiled a second time.
func (cfg Config) profileAll(eng *runtime.Engine) ([]profile.Record, ProfileStats) {
	prof := &profile.Profiler{
		Platform: device.NewPlatform(mix(cfg.Seed)),
		Options:  cfg.Compiler,
		Runs:     cfg.ProfileRuns,
	}
	records := make([]profile.Record, eng.NumSubgraphs())
	for i, sub := range eng.Subgraphs() {
		records[i] = prof.ProfileModule(eng.Parent, sub, eng.Module(i), i)
	}
	return records, ProfileStats{Microbenchmarks: prof.Benchmarks}
}

// Verify runs the static verification layer over the built engine's
// artifacts — graph well-formedness, partition invariants, schedule order,
// sync-queue liveness, profile I/O accounting, placement legality, and
// per-module arena release safety — and returns the findings (nil when
// everything verifies). Build calls this automatically unless
// Config.DisableVerify is set.
func (e *Engine) Verify() []verify.Finding {
	n := e.Runtime.NumSubgraphs()
	modules := make([]*compiler.Module, n)
	for i := 0; i < n; i++ {
		modules[i] = e.Runtime.Module(i)
	}
	return verify.All(verify.Artifacts{
		Graph:     e.Graph,
		Partition: e.Partition,
		Placement: []device.Kind(e.Placement),
		Records:   e.Profiles,
		Modules:   modules,
	})
}

// mix derives the profiling seed so profile noise is independent of the
// evaluation noise stream but still reproducible; seed 0 stays noiseless.
func mix(seed int64) int64 {
	if seed == 0 {
		return 0
	}
	return seed*0x9e3779b9 + 1
}

// applyFallback replaces the scheduled placement with the best uniform one
// when co-execution does not measure faster (§VI-E).
func (e *Engine) applyFallback() error {
	n := e.Runtime.NumSubgraphs()
	measure := e.Scheduler.Measure
	duet, err := measure(e.Placement)
	if err != nil {
		return err
	}
	for _, kind := range []device.Kind{device.GPU, device.CPU} {
		uni := runtime.Uniform(n, kind)
		lat, err := measure(uni)
		if err != nil {
			return err
		}
		if lat < duet {
			duet = lat
			e.Placement = uni
			e.FellBack = true
		}
	}
	return nil
}

// Instrument attaches a metrics registry to the evaluation runtime: run
// counts, latency histograms, per-device busy seconds, and
// synchronization-queue depths are recorded into reg for every subsequent
// Infer/Measure call. Passing nil detaches. The search
// engine stays uninstrumented so schedule-search runs do not pollute
// serving metrics.
func (e *Engine) Instrument(reg *obs.Registry) { e.Runtime.Instrument(reg) }

// Registry returns the attached metrics registry (nil when uninstrumented).
func (e *Engine) Registry() *obs.Registry { return e.Runtime.Registry() }

// ScheduleAudit re-runs greedy-correction scheduling with the decision
// trail enabled and returns the audit: per-subgraph device choices with
// both profiled costs, the accepted swap sequence, and predicted vs
// measured critical path. The search engine is noiseless, so the audit
// reproduces the placement Build chose (before any single-device
// fallback).
func (e *Engine) ScheduleAudit() (*schedule.Audit, error) {
	_, audit, err := e.Scheduler.GreedyCorrectionAudit()
	return audit, err
}

// Infer runs one real inference (values materialised) under the chosen
// placement.
func (e *Engine) Infer(inputs map[string]*tensor.Tensor) (*runtime.Result, error) {
	return e.Runtime.Run(inputs, e.Placement, true)
}

// InferParallel runs one real inference with host-concurrent subgraph
// execution (one worker goroutine per device, §IV-D); outputs are identical
// to Infer's and the reported virtual latency uses the same timing model.
func (e *Engine) InferParallel(inputs map[string]*tensor.Tensor) (*runtime.Result, error) {
	return e.Runtime.RunParallel(inputs, e.Placement)
}

// Measure samples end-to-end latency for the chosen placement.
func (e *Engine) Measure(runs int) ([]vclock.Seconds, error) {
	return e.Runtime.MeasureLatency(e.Placement, runs)
}

// MeasureUniform samples latency with every subgraph on one device — the
// TVM-CPU / TVM-GPU comparison points.
func (e *Engine) MeasureUniform(kind device.Kind, runs int) ([]vclock.Seconds, error) {
	return e.Runtime.MeasureLatency(runtime.Uniform(e.Runtime.NumSubgraphs(), kind), runs)
}

// PlacementTable renders the profiled costs and final decision per subgraph
// — the rows of the paper's Table II.
func (e *Engine) PlacementTable() []PlacementRow {
	rows := make([]PlacementRow, len(e.Profiles))
	flat := 0
	for _, ph := range e.Partition.Phases {
		for range ph.Subgraphs {
			rec := e.Profiles[flat]
			rows[flat] = PlacementRow{
				Subgraph: e.Partition.Subgraphs()[flat].Graph.Name,
				Summary:  rec.Summary,
				Phase:    ph.Index,
				Kind:     ph.Kind,
				CPUTime:  rec.Time[device.CPU],
				GPUTime:  rec.Time[device.GPU],
				Decision: e.Placement[flat],
			}
			flat++
		}
	}
	return rows
}

// PlacementRow is one line of the placement-decision table.
type PlacementRow struct {
	Subgraph string
	Summary  string
	Phase    int
	Kind     partition.PhaseKind
	CPUTime  vclock.Seconds
	GPUTime  vclock.Seconds
	Decision device.Kind
}

// String renders the row.
func (r PlacementRow) String() string {
	return fmt.Sprintf("%-28s phase=%d(%s) cpu=%8.3fms gpu=%8.3fms → %s [%s]",
		r.Subgraph, r.Phase, r.Kind, r.CPUTime*1e3, r.GPUTime*1e3, r.Decision, r.Summary)
}
