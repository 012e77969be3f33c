package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// env is the stamp every output file carries. Machine and toolchain fields
// decide whether two files may be compared; Commit says what was measured.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two stamps describe the same machine and
// toolchain (the commit is what an A/B varies, so it does not count).
func (e env) sameMachine(o env) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

type report struct {
	Env     env       `json:"env"`
	Results []*result `json:"results"`
}

func stampEnv() env {
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles prints each end-to-end metric of each workload in its own
// row — both values, b as a ratio of a, the bound, and a verdict — and
// reports whether any row is worse. Files from different machines or
// toolchains are refused: their difference is not the code's.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if !a.Env.sameMachine(b.Env) {
		return false, fmt.Errorf("refusing to compare: environment stamps differ\n  %s: %+v\n  %s: %+v", pathA, a.Env, pathB, b.Env)
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (%s)\tb (%s)\tb/a\tbound\tverdict\n", short(a.Env.Commit), short(b.Env.Commit))
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		for _, d := range endToEnd {
			ma, mb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			verdict := verdictOf(d, ma, mb)
			worse = worse || verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f\t%.0f%%\t%s\n",
				ra.Workload, d.Name, ma.Value, ma.Unit, mb.Value, mb.Unit, mb.Value/ma.Value, 100*d.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// verdictOf judges b against baseline a: unresolved when either side's own
// spread exceeds the bound, worse when b's value is beyond the bound in the
// metric's bad direction.
func verdictOf(d metricDef, a, b metricValue) string {
	if a.Status == "unresolved" || b.Status == "unresolved" {
		return "unresolved"
	}
	change := b.Value/a.Value - 1
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

func short(commit string) string {
	if len(commit) > 8 {
		return commit[:8]
	}
	return commit
}
