// Package benchdiff is the statistical perf-regression gate over the
// committed BENCH_*.json baselines. It re-runs a benchmark suite N times
// with varied seeds, extracts a declared set of metrics from each run, and
// compares the fresh sample sets against the committed baseline with
// benchstat-style statistics: a Mann-Whitney U significance test, median
// plus order-statistic confidence intervals, and a direction-aware
// regression threshold. Metric direction (latency and allocations are
// lower-is-better, throughput and delivered counts higher-is-better) and
// gating are declared per suite in a metric schema, never inferred from
// names.
package benchdiff

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"duet/internal/stats"
)

// Direction says which way a metric is allowed to move.
type Direction int

const (
	// LowerIsBetter marks latencies, allocation counts, error counters.
	LowerIsBetter Direction = iota
	// HigherIsBetter marks throughputs, delivered fractions, invariants.
	HigherIsBetter
)

func (d Direction) String() string {
	if d == HigherIsBetter {
		return "higher"
	}
	return "lower"
}

// Exact is the threshold for metrics where any worsening at all is a
// regression (delivered invariants, error counters): small enough that
// every real change exceeds it, large enough to absorb float noise.
const Exact = 1e-9

// Rule is one entry of a suite's metric schema. Rules are matched in
// declaration order by name prefix; the first match declares the metric's
// direction, whether it gates the diff, and an optional per-metric
// threshold override. Extracted metrics that match no rule are a schema
// bug, not a default: Diff rejects them.
type Rule struct {
	// Prefix matches metric names by prefix; "" matches everything.
	Prefix string
	// Better is the direction the metric is allowed to move freely.
	Better Direction
	// Gate makes regressions in this metric fail the diff. Ungated metrics
	// are still compared and trended (wall-clock kernel times, chaos-draw
	// dependent tails), but only inform.
	Gate bool
	// Threshold overrides the run's default relative regression threshold
	// for this metric; 0 keeps the default. Use Exact for metrics where
	// any worsening must flag.
	Threshold float64
}

// Config shapes one Diff run.
type Config struct {
	// Quick selects the reduced experiment scale (the committed serving
	// and observability baselines are quick-scale).
	Quick bool
	// Seed is the base seed; fresh run i uses Seed+i, so run 0 reproduces
	// the seed the committed baselines were generated with.
	Seed int64
	// Runs is the fresh sample count per suite.
	Runs int
	// Threshold is the default relative change beyond which a worsening
	// flags (~0.10-0.15 per the gating design).
	Threshold float64
	// Alpha is the Mann-Whitney significance level. When the combined
	// sample sizes are too small for the U test to ever reach Alpha, the
	// comparison falls back to the threshold alone.
	Alpha float64
}

// DefaultConfig is the make-check gate shape: quick scale, three
// seed-varied fresh runs, a 12% threshold, 5% significance.
func DefaultConfig() Config {
	return Config{Quick: true, Seed: 42, Runs: 3, Threshold: 0.12, Alpha: 0.05}
}

// Suite binds a committed baseline file to its metric schema, its
// extractor, and its runner.
type Suite struct {
	// Name is the suite ID (kernels, obs, serve).
	Name string
	// File is the committed baseline filename (BENCH_<name>.json).
	File string
	// Rules is the declared metric schema.
	Rules []Rule
	// Extract pulls the metric set out of a decoded baseline document.
	// Runners reuse it: a fresh report is marshalled and re-extracted, so
	// committed and fresh metrics always come from the same code path.
	Extract func(doc map[string]any) (map[string]float64, error)
	// Run executes one fresh suite run at the given seed and returns its
	// metric set.
	Run func(cfg Config, seed int64) (map[string]float64, error)
}

// rule resolves the schema entry for a metric name.
func (s *Suite) rule(name string) (Rule, bool) {
	for _, r := range s.Rules {
		if strings.HasPrefix(name, r.Prefix) {
			return r, true
		}
	}
	return Rule{}, false
}

// Verdict classifies one metric comparison.
type Verdict string

const (
	// VerdictOK: inside the threshold (or an improvement below it).
	VerdictOK Verdict = "ok"
	// VerdictInsignificant: the median moved beyond the threshold in the
	// bad direction, but the U test — which had enough samples to reach
	// Alpha — calls the sample sets indistinguishable.
	VerdictInsignificant Verdict = "~"
	// VerdictImproved: moved beyond the threshold in the good direction.
	VerdictImproved Verdict = "improved"
	// VerdictRegressed: a statistically supported worsening beyond the
	// threshold on an ungated metric.
	VerdictRegressed Verdict = "regressed"
	// VerdictRegression: same, on a gated metric — fails the diff.
	VerdictRegression Verdict = "REGRESSION"
	// VerdictMissing: the baseline has the metric, the fresh runs lost it.
	VerdictMissing Verdict = "MISSING"
	// VerdictNew: the fresh runs produced a metric the baseline lacks.
	VerdictNew Verdict = "new"
)

// MetricDiff is one compared metric.
type MetricDiff struct {
	Name      string    `json:"name"`
	Better    Direction `json:"-"`
	Gated     bool      `json:"gated"`
	Base      float64   `json:"base"`
	BaseN     int       `json:"base_n"`
	Median    float64   `json:"median"`
	CILo      float64   `json:"ci_lo"`
	CIHi      float64   `json:"ci_hi"`
	Delta     float64   `json:"delta"`
	P         float64   `json:"p"`
	Threshold float64   `json:"threshold"`
	Verdict   Verdict   `json:"verdict"`
}

// SuiteDiff is one suite's comparison.
type SuiteDiff struct {
	Suite       string       `json:"suite"`
	File        string       `json:"file"`
	BaseN       int          `json:"base_runs"`
	FreshN      int          `json:"fresh_runs"`
	Metrics     []MetricDiff `json:"metrics"`
	Regressions int          `json:"regressions"`
}

// Result aggregates every compared suite.
type Result struct {
	Suites      []SuiteDiff `json:"suites"`
	Regressions int         `json:"regressions"`
}

// DiffSuite compares fresh seed-varied runs of one suite against its
// committed baseline samples. baseline holds the committed headline metric
// set; history holds prior regenerations' metric sets (oldest first,
// including the headline's own entry when present) and widens the baseline
// side of the U test.
func DiffSuite(s *Suite, baseline map[string]float64, history []map[string]float64, fresh []map[string]float64, cfg Config) (*SuiteDiff, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultConfig().Threshold
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = DefaultConfig().Alpha
	}

	names := make([]string, 0, len(baseline))
	seen := map[string]bool{}
	for n := range baseline {
		names = append(names, n)
		seen[n] = true
	}
	for _, f := range fresh {
		for n := range f {
			if !seen[n] {
				names = append(names, n)
				seen[n] = true
			}
		}
	}
	sort.Strings(names)

	baseSamples := func(name string) []float64 {
		var out []float64
		for _, h := range history {
			if v, ok := h[name]; ok {
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			if v, ok := baseline[name]; ok {
				out = []float64{v}
			}
		}
		return out
	}

	d := &SuiteDiff{Suite: s.Name, File: s.File, FreshN: len(fresh)}
	if len(history) > 0 {
		d.BaseN = len(history)
	} else {
		d.BaseN = 1
	}
	for _, name := range names {
		rule, ok := s.rule(name)
		if !ok {
			return nil, fmt.Errorf("benchdiff: suite %s extracted metric %q matches no schema rule", s.Name, name)
		}
		var freshVals []float64
		for _, f := range fresh {
			if v, ok := f[name]; ok {
				freshVals = append(freshVals, v)
			}
		}
		baseVal, inBase := baseline[name]
		md := MetricDiff{Name: name, Better: rule.Better, Gated: rule.Gate, Threshold: rule.Threshold}
		if md.Threshold == 0 {
			md.Threshold = cfg.Threshold
		}
		switch {
		case inBase && len(freshVals) == 0:
			md.Base, md.BaseN = baseVal, len(baseSamples(name))
			md.Verdict = VerdictMissing
			if rule.Gate {
				d.Regressions++
			}
		case !inBase:
			md.Median = stats.Median(freshVals)
			md.CILo, md.Median, md.CIHi = stats.MedianCI(freshVals, 0.95)
			md.Verdict = VerdictNew
		default:
			bs := baseSamples(name)
			md.Base, md.BaseN = baseVal, len(bs)
			md.CILo, md.Median, md.CIHi = stats.MedianCI(freshVals, 0.95)
			_, md.P = stats.MannWhitneyU(bs, freshVals)
			md.Delta = relChange(baseVal, md.Median)
			md.Verdict = classify(md, bs, freshVals, rule, cfg)
			if md.Verdict == VerdictRegression {
				d.Regressions++
			}
		}
		d.Metrics = append(d.Metrics, md)
	}
	return d, nil
}

// relChange is the signed relative change from base to next, with the
// zero-baseline edges made explicit instead of masked: any nonzero value
// off a zero baseline is an infinite relative change.
func relChange(base, next float64) float64 {
	if base == 0 {
		switch {
		case next > 0:
			return math.Inf(1)
		case next < 0:
			return math.Inf(-1)
		default:
			return 0
		}
	}
	return (next - base) / math.Abs(base)
}

// classify applies the direction-aware threshold and the significance
// test. A worsening beyond the threshold flags unless the U test both had
// enough samples to ever reach Alpha and calls the sets indistinguishable
// — with tiny sample counts the threshold alone decides, which is exactly
// the single-run ±tolerance check this package generalizes.
func classify(md MetricDiff, base, fresh []float64, rule Rule, cfg Config) Verdict {
	worse := rule.Better == LowerIsBetter && md.Delta > 0 ||
		rule.Better == HigherIsBetter && md.Delta < 0
	beyond := math.Abs(md.Delta) > md.Threshold
	if !beyond {
		return VerdictOK
	}
	if !worse {
		return VerdictImproved
	}
	powered := stats.MannWhitneyMinP(len(base), len(fresh)) <= cfg.Alpha
	if powered && md.P > cfg.Alpha {
		return VerdictInsignificant
	}
	if rule.Gate {
		return VerdictRegression
	}
	return VerdictRegressed
}

// Write renders the suite diff as a benchstat-style table.
func (d *SuiteDiff) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s): %d fresh run(s) vs baseline (n=%d)\n", d.Suite, d.File, d.FreshN, d.BaseN)
	fmt.Fprintf(w, "%-52s %14s %14s %24s %8s %7s  %s\n", "metric", "base", "median", "95% CI", "delta", "p", "verdict")
	for _, m := range d.Metrics {
		gate := " "
		if m.Gated {
			gate = "*"
		}
		switch m.Verdict {
		case VerdictMissing:
			fmt.Fprintf(w, "%-52s %14s %14s %24s %8s %7s  %s%s\n", m.Name, num(m.Base), "-", "-", "-", "-", string(m.Verdict), gate)
		case VerdictNew:
			fmt.Fprintf(w, "%-52s %14s %14s %24s %8s %7s  %s%s\n", m.Name, "-", num(m.Median),
				fmt.Sprintf("[%s, %s]", num(m.CILo), num(m.CIHi)), "-", "-", string(m.Verdict), gate)
		default:
			fmt.Fprintf(w, "%-52s %14s %14s %24s %7.1f%% %7.3f  %s%s\n", m.Name, num(m.Base), num(m.Median),
				fmt.Sprintf("[%s, %s]", num(m.CILo), num(m.CIHi)), m.Delta*100, m.P, string(m.Verdict), gate)
		}
	}
	fmt.Fprintf(w, "   %d gated regression(s)\n\n", d.Regressions)
}

// num formats a metric value compactly across the magnitudes the suites
// mix (nanoseconds to sub-millisecond latencies to req/s).
func num(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.IsInf(v, 0):
		return fmt.Sprintf("%v", v)
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
