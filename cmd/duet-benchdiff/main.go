// Command duet-benchdiff compares fresh benchmark runs against the
// committed BENCH_*.json baselines with benchstat-style statistics, and
// renders the baselines' run histories into a static trend dashboard.
//
// Usage:
//
//	duet-benchdiff                        # re-run every suite (quick), diff vs baselines
//	duet-benchdiff -runs 5 -seed 100      # 5 fresh runs, seeds 100..104
//	duet-benchdiff -quick=false           # paper-scale fresh runs (slow)
//	duet-benchdiff -json diff.json        # also write the machine-readable result
//	duet-benchdiff -dashboard             # write docs/bench/{index.html,trends.json} and exit
//
// Each fresh run varies the seed (base seed + run index) so the sample set
// reflects seed sensitivity, then per-metric sample sets are compared with
// a Mann–Whitney U test, order-statistic median confidence intervals, and
// the per-suite direction schema. Exits 1 if any gated metric regresses,
// 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"duet/internal/benchdiff"
)

func main() {
	def := benchdiff.DefaultConfig()
	var (
		suiteList = flag.String("suite", "", "comma-separated suites to diff (default: all; see -list)")
		list      = flag.Bool("list", false, "list suites and their gated metric rules")
		dir       = flag.String("baseline-dir", ".", "directory holding the committed BENCH_*.json baselines")
		runs      = flag.Int("runs", def.Runs, "fresh seed-varied runs per suite")
		seed      = flag.Int64("seed", def.Seed, "base seed for fresh runs (run i uses seed+i)")
		quick     = flag.Bool("quick", def.Quick, "run suites at quick scale (matches the committed quick baselines)")
		threshold = flag.Float64("threshold", def.Threshold, "default relative regression threshold for gated metrics")
		alpha     = flag.Float64("alpha", def.Alpha, "significance level for the Mann-Whitney U test")
		jsonPath  = flag.String("json", "", "write the machine-readable diff result to this file")
		dashboard = flag.Bool("dashboard", false, "render the trend dashboard from committed baselines and exit")
		dashOut   = flag.String("dashboard-out", "docs/bench", "output directory for -dashboard")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "duet-benchdiff: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	suites := benchdiff.Suites()
	if *suiteList != "" {
		suites = suites[:0]
		for _, name := range strings.Split(*suiteList, ",") {
			s, ok := benchdiff.SuiteByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "duet-benchdiff: unknown suite %q (use -list)\n", name)
				os.Exit(2)
			}
			suites = append(suites, s)
		}
	}

	if *list {
		for _, s := range benchdiff.Suites() {
			fmt.Printf("%-8s %s\n", s.Name, s.File)
			for _, r := range s.Rules {
				gate := "trend"
				if r.Gate {
					gate = "gate"
				}
				thr := ""
				switch {
				case r.Gate && r.Threshold == benchdiff.Exact:
					thr = " (exact)"
				case r.Gate && r.Threshold > 0:
					thr = fmt.Sprintf(" (%.0f%%)", r.Threshold*100)
				case r.Gate:
					thr = fmt.Sprintf(" (%.0f%%)", *threshold*100)
				}
				fmt.Printf("  %-38s %s is better, %s%s\n", r.Prefix, r.Better, gate, thr)
			}
		}
		return
	}

	if *dashboard {
		if err := benchdiff.WriteDashboard(suites, *dir, *dashOut, time.Now().Unix()); err != nil {
			fmt.Fprintf(os.Stderr, "duet-benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s/index.html and %s/trends.json\n", *dashOut, *dashOut)
		return
	}

	cfg := benchdiff.Config{
		Quick:     *quick,
		Seed:      *seed,
		Runs:      *runs,
		Threshold: *threshold,
		Alpha:     *alpha,
	}
	if cfg.Runs < 1 {
		fmt.Fprintln(os.Stderr, "duet-benchdiff: -runs must be >= 1")
		os.Exit(2)
	}

	res, err := benchdiff.Diff(suites, *dir, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duet-benchdiff: %v\n", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-benchdiff: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "duet-benchdiff: %v\n", err)
			os.Exit(1)
		}
	}
	if res.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "duet-benchdiff: %d gated regression(s)\n", res.Regressions)
		os.Exit(1)
	}
	fmt.Println("no gated regressions")
}
