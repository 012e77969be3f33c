// Command bench is the repository's host-clock benchmark: per workload it
// brings the engine and server up through the public pipeline, checks the
// outputs, measures Build / Infer / InferParallel / served requests per
// second with tracing off, and then (with -trace 1) re-walks the pipeline
// with a span around every exported call to attribute the time to the
// repo's packages. See README.md for the metric tables.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one workload; last line is the result JSON
//	bench -workload all [-out file] [-tracedir dir]              every workload, one process each, in turn
//	bench -compare a.json b.json                                 two -out files, metric by metric
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected output hashes for one seed on one architecture
// (float32 arithmetic is reproducible per GOARCH, not across them).
var golden struct {
	GOARCH string            `json:"goarch"`
	Seed   int64             `json:"seed"`
	Hashes map[string]string `json:"hashes"`
}

func main() {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fatal(2, "golden.json: %v", err)
	}
	var (
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 30, "how long set-up, gate and timed operations last together")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		out      = flag.String("out", "", "write the full results, with the environment stamp, to this file")
		traceDir = flag.String("tracedir", "", "directory for Chrome traces (default with -workload all: bench/out)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fatal(2, "usage: bench -workload <name|all> -seed <n> -seconds <s> -trace <0|1>")
	}

	if *name == "all" {
		if *traceDir == "" {
			*traceDir = filepath.Join("bench", "out")
		}
		if err := runAll(*seed, *seconds, *out, *traceDir); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(2, "unknown workload %q", *name)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(2, "%v", err)
		}
	}
	b := &bench{w: w, opt: options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}}
	res, err := b.run()
	if err != nil {
		fatal(2, "%s: %v", w.name, err)
	}
	printTable(res)
	if *out != "" {
		if err := writeReport(*out, report{Env: stampEnv(), Results: []*result{res}}); err != nil {
			fatal(2, "%v", err)
		}
	}
	printResultLine(res, *trace == 1)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in its own process, one after another and
// never two at once, so each workload's peak RSS is its own. Each child is
// a traced run: its end-to-end numbers still come from its untraced part.
func runAll(seed int64, seconds float64, out, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Env: stampEnv()}
	failed := false
	for _, w := range workloads() {
		part := filepath.Join(traceDir, w.name+".result.json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "1", "-tracedir", traceDir, "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if _, isExit := err.(*exec.ExitError); !isExit {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = true
		}
		one, err := readReport(part)
		if err != nil {
			return fmt.Errorf("%s wrote no result: %w", w.name, err)
		}
		rep.Results = append(rep.Results, one.Results...)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// printResultLine prints the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func printResultLine(res *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Println(string(line))
}

// printTable prints every metric by name with its unit; timings show the
// quartiles, median and sample count beside the reported fast end.
func printTable(res *result) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s\tseed %d\tcycles %.1f\tattempted %d\tfailed %d\n", res.Workload, res.Seed, res.Cycles, res.Attempted, res.Failed)
	for _, d := range endToEnd {
		m := res.EndToEnd[d.Name]
		detail := ""
		if s := m.Samples; s != nil {
			detail = fmt.Sprintf("q1 %.4g  median %.4g  q3 %.4g  iqr/median %.1f%%  n %d", s.Q1, s.Median, s.Q3, 100*s.spread(), s.N)
			if s.TailPct > 50 {
				detail += fmt.Sprintf("  p%.0f %.4g", s.TailPct, s.Tail)
			}
		}
		fmt.Fprintf(tw, "%s\t%.6g %s\t%s\t%s\n", d.Name, m.Value, m.Unit, detail, m.Status)
	}
	if res.PerLayer != nil {
		names := make([]string, 0, len(res.PerLayer))
		for name := range res.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.PerLayer[name]
			fmt.Fprintf(tw, "%s\t%.6g %s\t\t\n", name, m.Value, m.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(tw, "note: %s\n", n)
	}
	tw.Flush()
}
