package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"duet/internal/graph"
	"duet/internal/ops"
	"duet/internal/tensor"
)

func TestSummarizeQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s10 := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(s10)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("got %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// The reported value is the mean of the fastest tenth, at least two
	// samples: the low end of times, the high end of rates.
	if ms, rps := timed("infer_ms", s10).Value, timed("served_rps", s10).Value; ms != 1.5 || rps != 9.5 {
		t.Fatalf("fast end of ten: infer_ms %v, served_rps %v", ms, rps)
	}
	s40 := make([]float64, 40)
	for i := range s40 {
		s40[i] = float64(40 - i)
	}
	if got := fastTime(s40); got != 2.5 { // 1..4
		t.Fatalf("fast end of forty: %v", got)
	}
	if fastTime([]float64{7}) != 7 || fastTime(nil) != 0 {
		t.Fatalf("fast end of one / none: %v / %v", fastTime([]float64{7}), fastTime(nil))
	}
	// statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Fatalf("got %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Fatalf("single sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("empty: %+v", s)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 21 samples: ten lie beyond the median itself, so only the median.
	if s := summarize(seq(21)); s.Tail != s.Median || s.TailPct != 50 {
		t.Fatalf("n=21: %+v", s)
	}
	// 61 samples: the 51st has exactly ten beyond it (p83).
	s := summarize(seq(61))
	if s.Tail != 51 || math.Round(s.TailPct) != 84 {
		t.Fatalf("n=61: %+v", s)
	}
	if s := summarize(seq(12)); s.Tail != s.Median {
		t.Fatalf("n=12: %+v", s)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: msec(0), End: msec(100)},
		{ID: 1, Parent: 0, Start: msec(10), End: msec(40)},
		{ID: 2, Parent: 0, Start: msec(30), End: msec(60)}, // overlaps span 1: the union counts once
		{ID: 3, Parent: 1, Start: msec(15), End: msec(20)},
		{ID: 4, Parent: 0, Start: msec(90), End: msec(120)}, // runs past its parent: only the inside part counts
	}
	want := []time.Duration{msec(40), msec(25), msec(30), msec(5), msec(30)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got, want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("run")
	tr.do("a", "outer", "", func() {
		tr.do("b", "inner", "conv", func() {})
	})
	tr.do("a", "next", "", func() {})
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Args["run"] != "run" || doc.TraceEvents[1].Args["class"] != "conv" {
		t.Fatalf("trace: %+v", doc.TraceEvents)
	}
}

// A new operator must be given a class here; it may not fall into "other"
// unnoticed.
func TestOpClassCoversOps(t *testing.T) {
	classes := map[string]bool{}
	for _, c := range kernelClasses {
		classes[c] = true
	}
	for _, kind := range ops.Kinds() {
		if c, ok := opClass[kind]; !ok {
			t.Errorf("operator %q has no kernel class in opClass", kind)
		} else if !classes[c] {
			t.Errorf("operator %q maps to unknown class %q", kind, c)
		}
	}
	if len(opClass) != len(ops.Kinds()) {
		t.Errorf("opClass has %d entries for %d registered operators", len(opClass), len(ops.Kinds()))
	}
}

func TestCompareRefusesOtherEnvironment(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, e env, infer float64, status string) string {
		res := &result{Workload: "w", EndToEnd: map[string]metricValue{}}
		for _, d := range endToEnd {
			res.EndToEnd[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		res.EndToEnd["infer_ms"] = metricValue{Value: infer, Unit: "ms", Status: status}
		path := filepath.Join(dir, name)
		if err := writeReport(path, report{Env: e, Results: []*result{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := stampEnv()
	other := here
	other.GOMAXPROCS++
	newer := here
	newer.Commit = "0123456789abcdef"

	base := mk("a.json", here, 100, "")
	var buf bytes.Buffer
	if _, err := compareFiles(&buf, base, mk("other.json", other, 100, "")); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("different GOMAXPROCS compared: err=%v", err)
	}
	// Another commit on the same machine is what compare is for.
	worse, err := compareFiles(&buf, base, mk("same.json", newer, 105, ""))
	if err != nil || worse {
		t.Fatalf("within bound: worse=%v err=%v", worse, err)
	}
	buf.Reset()
	worse, err = compareFiles(&buf, base, mk("slow.json", newer, 130, ""))
	if err != nil || !worse || !strings.Contains(buf.String(), "worse") {
		t.Fatalf("30%% slower Infer: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	buf.Reset()
	worse, err = compareFiles(&buf, base, mk("noisy.json", newer, 130, "unresolved"))
	if err != nil || worse || !strings.Contains(buf.String(), "unresolved") {
		t.Fatalf("unresolved side: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}

func TestVerdictDirection(t *testing.T) {
	rps := metricDef{Name: "served_rps", Better: "higher", Bound: 0.1}
	if v := verdictOf(rps, metricValue{Value: 10}, metricValue{Value: 8}); v != "worse" {
		t.Errorf("20%% fewer req/s: %s", v)
	}
	if v := verdictOf(rps, metricValue{Value: 10}, metricValue{Value: 12}); v != "ok" {
		t.Errorf("20%% more req/s: %s", v)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	specs := workloads()
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads()", len(doc.Workloads), len(specs))
	}
	for i, w := range specs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// quickstartSpec is the two-branch model of examples/quickstart: an LSTM
// branch and a dense stack joined by a dense head.
func quickstartSpec() workloadSpec {
	return workloadSpec{
		name: "quickstart", maxBatch: 1, burst: 2, pairs: 2, bursts: 2,
		graph: func(b int) (*graph.Graph, error) {
			rng := rand.New(rand.NewSource(1))
			g := graph.New("quickstart")
			ids := g.AddInput("tokens", b, 32)
			table := g.AddConst("embed", tensor.Rand(rng, 0.1, 100, 64))
			emb := g.Add("embedding", "emb", nil, ids, table)
			wx := g.AddConst("wx", tensor.Rand(rng, 0.1, 4*128, 64))
			wh := g.AddConst("wh", tensor.Rand(rng, 0.1, 4*128, 128))
			bias := g.AddConst("b", tensor.Rand(rng, 0.1, 4*128))
			rnn := g.Add("lstm", "rnn", graph.Attrs{"last_only": 1}, emb, wx, wh, bias)
			h := g.AddInput("features", b, 256)
			for i := 0; i < 3; i++ {
				w := g.AddConst(fmt.Sprintf("w%d", i), tensor.Rand(rng, 0.05, 256, 256))
				d := g.Add("dense", fmt.Sprintf("dense%d", i), nil, h, w)
				h = g.Add("relu", fmt.Sprintf("relu%d", i), nil, d)
			}
			cat := g.Add("concat", "cat", graph.Attrs{"axis": 1}, rnn, h)
			wOut := g.AddConst("w_out", tensor.Rand(rng, 0.05, 10, 128+256))
			g.SetOutputs(g.Add("softmax", "probs", nil, g.Add("dense", "head", nil, cat, wOut)))
			return g, nil
		},
		inputs: func(b int, seed int64) map[string]*tensor.Tensor {
			rng := rand.New(rand.NewSource(seed))
			tokens := tensor.New(b, 32)
			for i := range tokens.Data() {
				tokens.Data()[i] = float32(rng.Intn(100))
			}
			return map[string]*tensor.Tensor{"tokens": tokens, "features": tensor.Rand(rng, 1, b, 256)}
		},
	}
}

// The whole harness — set-up, gate, untraced cycle, traced pass, trace
// file — on a model small enough to finish in well under five seconds.
func TestSmokeQuickstart(t *testing.T) {
	dir := t.TempDir()
	b := &bench{w: quickstartSpec(), opt: options{seed: 3, seconds: 0.2, trace: true, traceDir: dir}}
	start := time.Now()
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("smoke run took %v", took)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("end-to-end %s = %+v", d.Name, m)
		}
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer %s = %+v", d.Name, m)
		}
	}
	share := 0.0
	for _, c := range kernelClasses {
		share += res.PerLayer["tensor.share."+c].Value
	}
	if math.Abs(share-1) > 0.01 {
		t.Errorf("tensor.share.* sums to %v", share)
	}
	if res.PerLayer["tensor.share.rnn"].Value == 0 || res.PerLayer["tensor.share.gemm"].Value == 0 {
		t.Errorf("two-branch model shows no rnn or no gemm share: %+v", res.PerLayer)
	}
	exec, over, infer := res.PerLayer["compiler.exec_ms"].Value, res.PerLayer["runtime.overhead_ms"].Value, res.EndToEnd["infer_ms"].Value
	if math.Abs(exec+over-infer) > 1e-9*infer {
		t.Errorf("exec_ms %v + overhead_ms %v != infer_ms %v", exec, over, infer)
	}
	if _, err := os.Stat(filepath.Join(dir, "quickstart.trace.json")); err != nil {
		t.Errorf("no trace written: %v", err)
	}
	// A second run with the same seed sees the same inputs and outputs.
	again, err := (&bench{w: quickstartSpec(), opt: options{seed: 3, seconds: 0.05}}).run()
	if err != nil || again.OutputSHA256 != res.OutputSHA256 {
		t.Errorf("same seed, different outputs: %v vs %v (err %v)", again, res.OutputSHA256, err)
	}
	other, err := (&bench{w: quickstartSpec(), opt: options{seed: 4, seconds: 0.05}}).run()
	if err != nil || other.OutputSHA256 == res.OutputSHA256 {
		t.Errorf("different seed, same outputs (err %v)", err)
	}
}
