package benchdiff

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"duet/internal/experiments"
)

// This file declares the three committed benchmark suites: which file holds
// the baseline, how to pull the metric set out of it, what each metric's
// direction and gate are, and how to run the suite fresh. Metric names are
// structured kind-first (serve/p99/capacity/pipelined, kernels/fusion/...)
// so a schema rule's prefix selects a metric family, not a lexical
// accident.

// Suites returns every registered suite, in gate order.
func Suites() []*Suite {
	return []*Suite{KernelsSuite(), ObsSuite(), ServeSuite()}
}

// SuiteByName resolves one suite.
func SuiteByName(name string) (*Suite, bool) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Diff loads each suite's committed baseline from dir, executes cfg.Runs
// fresh seed-varied runs per suite, and writes benchstat-style comparison
// tables to w. The returned result carries the gated regression count the
// caller turns into an exit code.
func Diff(suites []*Suite, dir string, cfg Config, w io.Writer) (*Result, error) {
	res := &Result{}
	for _, s := range suites {
		path := filepath.Join(dir, s.File)
		b, err := LoadBaseline(s, path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "running %s suite (%d fresh runs, seeds %d..%d)...\n", s.Name, cfg.Runs, cfg.Seed, cfg.Seed+int64(cfg.Runs)-1)
		fresh := make([]map[string]float64, 0, cfg.Runs)
		for i := 0; i < cfg.Runs; i++ {
			m, err := s.Run(cfg, cfg.Seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("benchdiff: %s run %d: %w", s.Name, i, err)
			}
			fresh = append(fresh, m)
		}
		d, err := DiffSuite(s, b.Metrics, b.MetricHistory(), fresh, cfg)
		if err != nil {
			return nil, err
		}
		d.Write(w)
		res.Suites = append(res.Suites, *d)
		res.Regressions += d.Regressions
	}
	return res, nil
}

// expConfig maps a benchdiff config to the experiment scale it re-runs.
func expConfig(cfg Config, seed int64) experiments.Config {
	e := experiments.Default()
	if cfg.Quick {
		e = experiments.Quick()
	}
	e.Seed = seed
	return e
}

// metricKey joins name segments, normalizing the spaces kernel shapes
// carry into underscores so names stay path- and URL-safe.
func metricKey(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "/"), " ", "_")
}

// --- kernels ---

// KernelsSuite gates the fusion ablation in BENCH_kernels.json. The
// structural launch counts are deterministic per fusion setting and gate
// exactly. Per-workload wall times and speedups are host-dependent and
// only trend; the fused-vs-unfused geomean, where per-workload noise
// averages out, holds relatively, and an exact 0/1 gate re-derives whether
// it clears the absolute FusionSpeedupBar.
func KernelsSuite() *Suite {
	s := &Suite{
		Name: "kernels",
		File: "BENCH_kernels.json",
		Rules: []Rule{
			{Prefix: "kernels/fusion/gate/", Better: HigherIsBetter, Gate: true, Threshold: Exact},
			{Prefix: "kernels/fusion/speedup_geomean", Better: HigherIsBetter, Gate: true, Threshold: 0.25},
			{Prefix: "kernels/fusion/launch_reduction", Better: HigherIsBetter, Gate: true, Threshold: Exact},
			{Prefix: "kernels/fusion/launches/", Better: LowerIsBetter, Gate: true, Threshold: Exact},
			{Prefix: "kernels/fusion/speedup/", Better: HigherIsBetter},
			{Prefix: "kernels/fusion/ns/", Better: LowerIsBetter},
			{Prefix: "kernels/fusion/groups/", Better: HigherIsBetter},
		},
		Extract: extractKernels,
	}
	s.Run = func(cfg Config, seed int64) (map[string]float64, error) {
		rep, err := experiments.BuildKernelsReport(expConfig(cfg, seed))
		if err != nil {
			return nil, err
		}
		return ExtractReport(s, rep)
	}
	return s
}

func extractKernels(doc map[string]any) (map[string]float64, error) {
	out := map[string]float64{}
	fusion, err := getArr(doc, "fusion")
	if err != nil {
		return nil, err
	}
	for i, raw := range fusion {
		f, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("fusion[%d]: not an object", i)
		}
		name, err := getStr(f, "workload")
		if err != nil {
			return nil, fmt.Errorf("fusion[%d]: %w", i, err)
		}
		for key, field := range map[string]string{
			"kernels/fusion/speedup":                "speedup",
			"kernels/fusion/ns/off":                 "ns_off",
			"kernels/fusion/ns/unconstrained":       "ns_unconstrained",
			"kernels/fusion/launches/off":           "launches_off",
			"kernels/fusion/launches/unconstrained": "launches_unconstrained",
			"kernels/fusion/groups":                 "fused_groups",
		} {
			v, err := getNum(f, field)
			if err != nil {
				return nil, fmt.Errorf("fusion %s: %w", name, err)
			}
			out[metricKey(key, name)] = v
		}
	}
	geo, err := getNum(doc, "fusion_speedup_geomean")
	if err != nil {
		return nil, err
	}
	red, err := getNum(doc, "fusion_launch_reduction")
	if err != nil {
		return nil, err
	}
	out["kernels/fusion/speedup_geomean"] = geo
	out["kernels/fusion/launch_reduction"] = red
	if geo >= experiments.FusionSpeedupBar {
		out["kernels/fusion/gate/speedup_ok"] = 1
	} else {
		out["kernels/fusion/gate/speedup_ok"] = 0
	}
	return out, nil
}

// --- obs ---

// ObsSuite gates the observability baseline's latency histogram and the
// error counter. The Run path is deterministic per seed and gates at the
// default threshold.
func ObsSuite() *Suite {
	s := &Suite{
		Name: "obs",
		File: "BENCH_obs.json",
		Rules: []Rule{
			{Prefix: "obs/latency/run/", Better: LowerIsBetter, Gate: true},
			{Prefix: "obs/errors", Better: LowerIsBetter, Gate: true, Threshold: Exact},
			{Prefix: "obs/", Better: LowerIsBetter},
		},
		Extract: extractObs,
	}
	s.Run = func(cfg Config, seed int64) (map[string]float64, error) {
		rep, err := experiments.BuildObsReport(expConfig(cfg, seed))
		if err != nil {
			return nil, err
		}
		return ExtractReport(s, rep)
	}
	return s
}

func extractObs(doc map[string]any) (map[string]float64, error) {
	metrics, err := getMap(doc, "metrics")
	if err != nil {
		return nil, err
	}
	hists, err := getMap(metrics, "histograms")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	h, err := getMap(hists, `duet_latency_seconds{path="run"}`)
	if err != nil {
		return nil, err
	}
	for _, field := range []string{"mean", "p50", "p99"} {
		v, err := getNum(h, field)
		if err != nil {
			return nil, fmt.Errorf("latency run: %w", err)
		}
		out["obs/latency/run/"+field] = v
	}
	counters, err := getMap(metrics, "counters")
	if err != nil {
		return nil, err
	}
	errsTotal, err := getNum(counters, "duet_run_errors_total")
	if err != nil {
		return nil, err
	}
	out["obs/errors"] = errsTotal
	if audit, err := getMap(doc, "audit"); err == nil {
		if subs, err := getArr(audit, "subgraphs"); err == nil {
			out["obs/audit/subgraphs"] = float64(len(subs))
		}
	}
	return out, nil
}

// --- serve ---

// ServeSuite gates the serving-layer baseline: the serial floor, the
// headline pipelining/batching speedups, per-mode burst capacity, and
// capacity-tail latency. Offered-load (Poisson) throughput and tails
// depend on the seed's arrival draws and only trend; delivered counts
// gate exactly.
func ServeSuite() *Suite {
	s := &Suite{
		Name: "serve",
		File: "BENCH_serve.json",
		Rules: []Rule{
			{Prefix: "serve/serial_rps", Better: HigherIsBetter, Gate: true},
			{Prefix: "serve/speedup/", Better: HigherIsBetter, Gate: true},
			{Prefix: "serve/tput/offered/", Better: HigherIsBetter},
			{Prefix: "serve/tput/", Better: HigherIsBetter, Gate: true},
			{Prefix: "serve/ok/", Better: HigherIsBetter, Gate: true, Threshold: Exact},
			{Prefix: "serve/p99/capacity/", Better: LowerIsBetter, Gate: true, Threshold: 0.2},
			{Prefix: "serve/mean/capacity/", Better: LowerIsBetter, Gate: true, Threshold: 0.15},
			{Prefix: "serve/p99/offered/", Better: LowerIsBetter},
			{Prefix: "serve/mean/offered/", Better: LowerIsBetter},
			{Prefix: "serve/rows/", Better: HigherIsBetter},
		},
		Extract: extractServe,
	}
	s.Run = func(cfg Config, seed int64) (map[string]float64, error) {
		rep, err := experiments.BuildServeReport(expConfig(cfg, seed), experiments.DefaultServeLoad())
		if err != nil {
			return nil, err
		}
		return ExtractReport(s, rep)
	}
	return s
}

func extractServe(doc map[string]any) (map[string]float64, error) {
	out := map[string]float64{}
	serial, err := getNum(doc, "serial_rps")
	if err != nil {
		return nil, err
	}
	out["serve/serial_rps"] = serial
	pvs, err := getNum(doc, "pipelined_vs_serial")
	if err != nil {
		return nil, err
	}
	out["serve/speedup/pipelined_vs_serial"] = pvs
	bvu, err := getNum(doc, "batched_vs_unbatched")
	if err != nil {
		return nil, err
	}
	out["serve/speedup/batched_vs_unbatched"] = bvu

	modes, err := getArr(doc, "modes")
	if err != nil {
		return nil, err
	}
	for i, raw := range modes {
		m, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("modes[%d]: not an object", i)
		}
		mode, err := getStr(m, "mode")
		if err != nil {
			return nil, fmt.Errorf("modes[%d]: %w", i, err)
		}
		for _, pattern := range []string{"capacity", "offered"} {
			rep, err := getMap(m, pattern)
			if err != nil {
				return nil, fmt.Errorf("mode %s: %w", mode, err)
			}
			fields := map[string]string{
				"throughput_rps":  "serve/tput",
				"ok":              "serve/ok",
				"p99_latency_s":   "serve/p99",
				"mean_latency_s":  "serve/mean",
				"mean_batch_rows": "serve/rows",
			}
			for field, kind := range fields {
				v, err := getNum(rep, field)
				if err != nil {
					return nil, fmt.Errorf("mode %s %s: %w", mode, pattern, err)
				}
				out[metricKey(kind, pattern, mode)] = v
			}
		}
	}
	return out, nil
}

// --- generic JSON access ---

func getMap(doc map[string]any, key string) (map[string]any, error) {
	v, ok := doc[key].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("missing or non-object field %q", key)
	}
	return v, nil
}

func getArr(doc map[string]any, key string) ([]any, error) {
	v, ok := doc[key].([]any)
	if !ok {
		return nil, fmt.Errorf("missing or non-array field %q", key)
	}
	return v, nil
}

func getNum(doc map[string]any, key string) (float64, error) {
	v, ok := doc[key].(float64)
	if !ok {
		return 0, fmt.Errorf("missing or non-numeric field %q", key)
	}
	return v, nil
}

func getStr(doc map[string]any, key string) (string, error) {
	v, ok := doc[key].(string)
	if !ok {
		return "", fmt.Errorf("missing or non-string field %q", key)
	}
	return v, nil
}
