package runtime

import (
	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/obs"
	"duet/internal/queue"
	"duet/internal/tensor"
)

// engineMetrics caches the engine's resolved instruments so the hot paths
// pay one registry lookup per instrument at Instrument time, and only a
// nil check per event afterwards. The zero value (uninstrumented engine)
// is all-nil: every recording call is a no-op.
type engineMetrics struct {
	reg *obs.Registry

	runs      *obs.Counter   // duet_runs_total{path=run}
	runErrors *obs.Counter   // duet_run_errors_total
	latency   *obs.Histogram // duet_latency_seconds{path=run}

	parallelRuns    *obs.Counter   // duet_runs_total{path=parallel}
	parallelLatency *obs.Histogram // duet_latency_seconds{path=parallel}

	deviceBusy [2]*obs.Gauge // duet_device_busy_seconds_total{device=...}
	linkBusy   *obs.Gauge    // duet_device_busy_seconds_total{device=<link>}

	syncQueues [2]queue.Instruments // duet_queue_*{queue=...}, RunParallel's per-run queues

	arenaHits      *obs.Gauge // duet_arena_events_total{event=hit}
	arenaMisses    *obs.Gauge // duet_arena_events_total{event=miss}
	arenaRecycled  *obs.Gauge // duet_arena_events_total{event=recycled}
	arenaDiscarded *obs.Gauge // duet_arena_events_total{event=discarded}
	panelBytes     *obs.Gauge // duet_packed_panel_bytes

	fusionGroups      *obs.Gauge // duet_fusion_groups
	fusionChainOps    *obs.Gauge // duet_fusion_chain_ops
	fusionEmits       *obs.Gauge // duet_fusion_emits
	fusionSavedLaunch *obs.Gauge // duet_fusion_launches_saved
}

// Instrument attaches a metrics registry to the engine. Subsequent Run /
// RunParallel calls record run counts and latency histograms (one series
// each, path="run" / path="parallel"), per-device busy seconds, and (for
// RunParallel) synchronization-queue depths into reg. Passing nil detaches. The engine
// is not safe for concurrent Instrument against in-flight runs; attach
// once at setup, the way core.Build's callers do.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.m = engineMetrics{}
		return
	}
	m := engineMetrics{
		reg:       reg,
		runs:      reg.Counter(obs.Series("duet_runs_total", "path", "run")),
		runErrors: reg.Counter("duet_run_errors_total"),
		latency:   reg.Histogram(obs.Series("duet_latency_seconds", "path", "run")),

		parallelRuns:    reg.Counter(obs.Series("duet_runs_total", "path", "parallel")),
		parallelLatency: reg.Histogram(obs.Series("duet_latency_seconds", "path", "parallel")),

		arenaHits:      reg.Gauge(obs.Series("duet_arena_events_total", "event", "hit")),
		arenaMisses:    reg.Gauge(obs.Series("duet_arena_events_total", "event", "miss")),
		arenaRecycled:  reg.Gauge(obs.Series("duet_arena_events_total", "event", "recycled")),
		arenaDiscarded: reg.Gauge(obs.Series("duet_arena_events_total", "event", "discarded")),
		panelBytes:     reg.Gauge("duet_packed_panel_bytes"),

		fusionGroups:      reg.Gauge("duet_fusion_groups"),
		fusionChainOps:    reg.Gauge("duet_fusion_chain_ops"),
		fusionEmits:       reg.Gauge("duet_fusion_emits"),
		fusionSavedLaunch: reg.Gauge("duet_fusion_launches_saved"),
	}
	for _, kind := range []device.Kind{device.CPU, device.GPU} {
		name := e.Platform.Device(kind).Name
		m.deviceBusy[kind] = reg.Gauge(obs.Series("duet_device_busy_seconds_total", "device", name))
		m.syncQueues[kind] = queue.ResolveInstruments(reg, name)
	}
	m.linkBusy = reg.Gauge(obs.Series("duet_device_busy_seconds_total", "device", e.Platform.Link.Name))
	m.recordFusion(e.modules)
	e.m = m
}

// recordFusion publishes the compile-time fusion plan of the engine's
// modules: group and chain-op counts, materialized intermediates, and how
// many kernel launches fusion removed relative to dispatching every op on
// its own. The plan is fixed at compile, so the gauges are set once at
// Instrument time.
func (m *engineMetrics) recordFusion(modules []*compiler.Module) {
	var s compiler.FusionStats
	saved := 0
	for _, mod := range modules {
		ms := mod.FusionStats()
		s.Groups += ms.Groups
		s.FusedOps += ms.FusedOps
		s.Emits += ms.Emits
		saved += mod.UnfusedLaunchCount() - mod.LaunchCount()
	}
	m.fusionGroups.Set(float64(s.Groups))
	m.fusionChainOps.Set(float64(s.FusedOps - s.Groups))
	m.fusionEmits.Set(float64(s.Emits))
	m.fusionSavedLaunch.Set(float64(saved))
}

// Registry returns the attached metrics registry (nil when the engine is
// uninstrumented).
func (e *Engine) Registry() *obs.Registry { return e.m.reg }

// recordMemory publishes the arena's cumulative event counts as gauges.
// Called after each value-carrying run; the counters are monotonic and
// sampled at run granularity, so Set (not Add) is correct. No-op when
// uninstrumented.
func (m *engineMetrics) recordMemory(ar *tensor.Arena) {
	if m.reg == nil {
		return
	}
	s := ar.Stats()
	m.arenaHits.Set(float64(s.Hits))
	m.arenaMisses.Set(float64(s.Misses))
	m.arenaRecycled.Set(float64(s.Recycled))
	m.arenaDiscarded.Set(float64(s.Discarded))
}

// recordPanels publishes the bytes of packed panels the engine's weights
// hold. Called after each completed run, when every weight the run read
// has been packed, so the value does not depend on the order lanes ran in.
// No-op when uninstrumented.
func (e *Engine) recordPanels() {
	if e.m.reg != nil {
		e.m.panelBytes.Set(float64(e.PanelBytes()))
	}
}
