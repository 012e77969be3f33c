package experiments

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/serve"
	"duet/internal/vclock"
	"duet/internal/workload"
)

// ServeLoad is the load-generator and server shape for the serving
// benchmark. Every field is surfaced as a duet-bench flag so offered load,
// SLA, and batching policy can be swept without recompiling.
type ServeLoad struct {
	// Requests is the request-stream length per mode and load pattern.
	Requests int `json:"requests"`
	// QPS is the Poisson offered load for the open-loop runs. 0 picks
	// 1.2× the measured serial Infer rate — past the serial engine's
	// capacity, inside the batched/pipelined server's.
	QPS float64 `json:"qps"`
	// Deadline is the per-request relative SLA; 0 disables deadlines (and
	// with them admission control and shedding).
	Deadline vclock.Seconds `json:"deadline_s"`
	// Replicas is the engine replica count.
	Replicas int `json:"replicas"`
	// MaxBatch caps the micro-batcher in rows for the batched modes.
	MaxBatch int `json:"max_batch"`
	// Window is the micro-batcher's maximum accumulation latency.
	Window vclock.Seconds `json:"window_s"`
}

// DefaultServeLoad is the golden-table shape: one replica (so the
// batching and pipelining wins are not confounded with replica scaling),
// batches up to 8 rows under a 2 ms window, no deadline.
func DefaultServeLoad() ServeLoad {
	return ServeLoad{Requests: 48, Replicas: 1, MaxBatch: 8, Window: 2e-3}
}

// ServeModeRow is one serving configuration measured under both load
// patterns: an all-at-once burst (saturated capacity) and a Poisson open
// loop at the offered QPS (tail latency at load).
type ServeModeRow struct {
	Mode     string        `json:"mode"`
	MaxBatch int           `json:"max_batch"`
	Capacity *serve.Report `json:"capacity"`
	Offered  *serve.Report `json:"offered"`
}

// ServeReport is the machine-readable serving benchmark: a serial
// back-to-back Infer loop as the floor, then the concurrent server in
// unbatched, batched, and batched+pipelined modes. Every leaf is pinned at
// seeds 42–44 by TestSuiteGolden (testdata/suites.json), so the pipelining
// and batching speedups are diffable across revisions.
type ServeReport struct {
	Model string    `json:"model"`
	Load  ServeLoad `json:"load"`
	// SerialRPS is the back-to-back Infer loop's throughput (1 / mean
	// single-request latency) — the no-server baseline.
	SerialRPS float64        `json:"serial_rps"`
	Modes     []ServeModeRow `json:"modes"`
	// PipelinedVsSerial is the pipelined mode's burst capacity over the
	// serial Infer rate (the headline ≥1.3× claim).
	PipelinedVsSerial float64 `json:"pipelined_vs_serial"`
	// BatchedVsUnbatched compares burst capacities of the two
	// non-pipelined server modes, isolating the micro-batching win.
	BatchedVsUnbatched float64 `json:"batched_vs_unbatched"`
	// Metrics snapshots the serve_* instrument families from the pipelined
	// capacity run, so the metric surface is part of the golden table.
	Metrics obs.Snapshot `json:"metrics"`
}

// serveModel is the reduced Wide&Deep the serving benchmark runs: requests
// execute real tensor math, so the full-size model would dominate wall
// clock without changing the virtual-time comparison.
func serveModel() models.WideDeepConfig {
	wd := models.DefaultWideDeep()
	wd.ImageSize = 64
	wd.SeqLen = 16
	return wd
}

// BuildServeReport measures the serving layer on the reduced Wide&Deep:
// serial floor, then {unbatched, batched, pipelined} × {burst, Poisson}.
func BuildServeReport(cfg Config, load ServeLoad) (*ServeReport, error) {
	wd := serveModel()
	g, err := models.WideDeep(wd)
	if err != nil {
		return nil, err
	}
	e, err := buildEngine(g, cfg)
	if err != nil {
		return nil, err
	}

	if load.Requests <= 0 {
		load.Requests = DefaultServeLoad().Requests
	}
	if load.Replicas <= 0 {
		load.Replicas = 1
	}
	if load.MaxBatch <= 0 {
		load.MaxBatch = DefaultServeLoad().MaxBatch
	}
	if load.Window <= 0 {
		load.Window = DefaultServeLoad().Window
	}

	n := cfg.Runs
	if n > 200 {
		n = 200
	}
	if n < 1 {
		n = 1
	}
	lat, err := e.Measure(n)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, l := range lat {
		sum += l
	}
	serialRPS := float64(n) / sum
	if load.QPS <= 0 {
		load.QPS = 1.2 * serialRPS
	}

	inputs := workload.WideDeepStream(wd, cfg.Seed+1000)
	batchGraph := func(b int) (*graph.Graph, error) {
		c := wd
		c.Batch = b
		return models.WideDeep(c)
	}

	runOnce := func(maxBatch int, pipelined bool, spec serve.LoadSpec, reg *obs.Registry) (*serve.Report, error) {
		scfg := serve.Config{
			Engine:    e,
			Replicas:  load.Replicas,
			MaxBatch:  maxBatch,
			Window:    load.Window,
			Pipelined: pipelined,
			Admission: load.Deadline > 0,
			Seed:      cfg.Seed,
			Registry:  reg,
		}
		if maxBatch > 1 {
			scfg.BatchGraph = batchGraph
		}
		srv, err := serve.New(scfg)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		rep, _, err := srv.Run(serve.OpenLoop(spec))
		return rep, err
	}

	burst := serve.LoadSpec{Requests: load.Requests, Burst: true, Deadline: load.Deadline, Inputs: inputs}
	poisson := serve.LoadSpec{Requests: load.Requests, QPS: load.QPS, Deadline: load.Deadline, Seed: cfg.Seed + 3, Inputs: inputs}

	reg := obs.NewRegistry()
	modes := []struct {
		name      string
		maxBatch  int
		pipelined bool
		reg       *obs.Registry
	}{
		{"unbatched", 1, false, nil},
		{"batched", load.MaxBatch, false, nil},
		{"pipelined", load.MaxBatch, true, reg},
	}

	rep := &ServeReport{Model: g.Name, Load: load, SerialRPS: serialRPS}
	caps := map[string]float64{}
	for _, m := range modes {
		capRep, err := runOnce(m.maxBatch, m.pipelined, burst, m.reg)
		if err != nil {
			return nil, fmt.Errorf("%s capacity: %w", m.name, err)
		}
		offRep, err := runOnce(m.maxBatch, m.pipelined, poisson, nil)
		if err != nil {
			return nil, fmt.Errorf("%s offered: %w", m.name, err)
		}
		caps[m.name] = capRep.Throughput
		rep.Modes = append(rep.Modes, ServeModeRow{Mode: m.name, MaxBatch: m.maxBatch, Capacity: capRep, Offered: offRep})
	}
	if serialRPS > 0 {
		rep.PipelinedVsSerial = caps["pipelined"] / serialRPS
	}
	if caps["unbatched"] > 0 {
		rep.BatchedVsUnbatched = caps["batched"] / caps["unbatched"]
	}
	rep.Metrics = reg.Snapshot()
	return rep, nil
}

// String renders the headline comparison.
func (r *ServeReport) String() string {
	s := fmt.Sprintf("serving %s: serial %.1f req/s\n", r.Model, r.SerialRPS)
	for _, m := range r.Modes {
		s += fmt.Sprintf("  %-10s capacity %7.1f req/s (p99 %.3f ms)   offered@%.0fqps p99 %.3f ms mean_rows %.2f\n",
			m.Mode, m.Capacity.Throughput, float64(m.Capacity.P99Latency)*1e3,
			r.Load.QPS, float64(m.Offered.P99Latency)*1e3, m.Offered.MeanBatchRows)
	}
	s += fmt.Sprintf("  pipelined/serial %.2fx   batched/unbatched %.2fx", r.PipelinedVsSerial, r.BatchedVsUnbatched)
	return s
}
