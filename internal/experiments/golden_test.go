package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"duet/internal/golden"
)

// goldenSeeds are the seeds each suite is pinned at.
var goldenSeeds = []int64{42, 43, 44}

// quickAt is the quick-scale config at seed.
func quickAt(seed int64) Config {
	cfg := Quick()
	cfg.Seed = seed
	return cfg
}

// hostDependent reports whether a leaf of a suite's report depends on the
// host rather than on (code, seed), and so stays out of the golden table.
func hostDependent(suite, key string) bool {
	leaf := key[strings.LastIndex(key, "/")+1:]
	switch suite {
	case "kernels":
		// Wall-clock ns per run, the ratios of those ns, and the host's CPU
		// count. The launch counts, fused groups and launch reduction are
		// structural and stay in; TestFusionSpeedupBar holds the speedup.
		return strings.HasPrefix(leaf, "ns_") || strings.Contains(leaf, "speedup") || leaf == "gomaxprocs"
	case "obs":
		// The pack-cache gauges read tensor.PackCacheSnapshot(), which is
		// process-global: in a fresh process they read 0 at seed 42, after
		// an earlier report in the same binary they count that report's
		// misses and hits. They depend on what ran before, not on the seed.
		return strings.HasPrefix(key, "metrics/gauges/duet_packcache_")
	}
	return false
}

// flatten records every leaf of a decoded JSON value under its
// slash-joined path: numbers as hex floats, so they compare bit for bit,
// strings as they are, booleans and null as JSON, and an empty object or
// array as {} or [] so a shape change still shows.
func flatten(path string, v any, out map[string]string) {
	join := func(k string) string {
		if path == "" {
			return k
		}
		return path + "/" + k
	}
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			out[path] = "{}"
		}
		for k, x := range v {
			flatten(join(k), x, out)
		}
	case []any:
		if len(v) == 0 {
			out[path] = "[]"
		}
		for i, x := range v {
			flatten(join(strconv.Itoa(i)), x, out)
		}
	case float64:
		out[path] = golden.Floats(v)
	case string:
		out[path] = v
	default:
		b, _ := json.Marshal(v)
		out[path] = string(b)
	}
}

// leaves flattens a report through its JSON form.
func leaves(t *testing.T, report any) map[string]string {
	t.Helper()
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	flatten("", doc, out)
	return out
}

// TestSuiteGolden pins every virtual-clock leaf of the obs, serve and
// kernels reports at quick scale and seeds 42–44 against
// testdata/suites.json, key "<suite>/<seed>/<path>". Every number is a
// fixed function of (code, seed), so the comparison is exact; a change
// meant to move one re-records the table with -update and names the moved
// keys. "<suite>/<seed>/#leaves" counts the pinned leaves, so a leaf that
// disappears fails as well as one that moves.
func TestSuiteGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the values do not depend on the race detector; the plain run pins them")
	}
	g := golden.Open(t, "testdata/suites.json")
	suites := []struct {
		name  string
		build func(Config) (any, error)
	}{
		{"obs", func(cfg Config) (any, error) { return BuildObsReport(cfg) }},
		{"serve", func(cfg Config) (any, error) { return BuildServeReport(cfg, DefaultServeLoad()) }},
		{"kernels", func(cfg Config) (any, error) { return BuildKernelsReport(cfg) }},
	}
	for _, s := range suites {
		for _, seed := range goldenSeeds {
			report, err := s.build(quickAt(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, seed, err)
			}
			prefix := fmt.Sprintf("%s/%d/", s.name, seed)
			n := 0
			for key, val := range leaves(t, report) {
				if !hostDependent(s.name, key) {
					g.Check(prefix+key, val)
					n++
				}
			}
			g.Check(prefix+"#leaves", strconv.Itoa(n))
		}
	}
}

// TestFusionSpeedupBar is the one wall-clock gate on the kernels suite: the
// median fusion_speedup_geomean of three quick runs (seeds 42–44) must clear
// FusionSpeedupBar and stay at or above 0.75× the value recorded in
// BENCH_kernels.json.
func TestFusionSpeedupBar(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock: the race detector slows the unfused and fused runs unevenly")
	}
	raw, err := os.ReadFile("../../BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed KernelsReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	var geo []float64
	for _, seed := range goldenSeeds {
		rep, err := BuildKernelsReport(quickAt(seed))
		if err != nil {
			t.Fatal(err)
		}
		geo = append(geo, rep.FusionSpeedupGeomean)
	}
	sort.Float64s(geo)
	median := geo[len(geo)/2]
	t.Logf("fusion_speedup_geomean: runs %.3f, median %.3f, committed %.3f", geo, median, committed.FusionSpeedupGeomean)
	if median < FusionSpeedupBar {
		t.Errorf("median fusion speedup %.3f is below the %.2f bar", median, FusionSpeedupBar)
	}
	if floor := 0.75 * committed.FusionSpeedupGeomean; median < floor {
		t.Errorf("median fusion speedup %.3f is below 0.75× the committed %.3f", median, committed.FusionSpeedupGeomean)
	}
}
