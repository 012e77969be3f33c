package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/graph"
	duetrt "duet/internal/runtime"
	"duet/internal/serve"
	"duet/internal/tensor"
)

// Fixed shape of a run: how often set-up is repeated, and
// how many cold Builds precede each timed inference or burst, so that Build
// samples spread over the whole run the way the other operations' do.
const (
	setupReps   = 3
	buildsPerOp = 3
	// tracedShare is the part of opt.seconds a traced run spends before its
	// traced pass, which needs the rest.
	tracedShare = 0.7
)

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where the traced pass writes its Chrome trace ("" = nowhere)
}

// metricValue is one reported number. Timing metrics carry the summary of
// the samples behind the value; a metric whose interquartile range exceeds
// its bound is marked unresolved rather than offered as a value to trust.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
	Status  string   `json:"status,omitempty"`
	// Raw holds the samples in the order taken; only -out files carry it.
	Raw []float64 `json:"raw,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Cycles       float64                `json:"cycles"`
	OutputSHA256 string                 `json:"output_sha256"`
	Notes        []string               `json:"notes,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

// bench carries one workload run's tallies.
type bench struct {
	w         workloadSpec
	opt       options
	attempted int
	failed    int
	notes     []string
}

// check counts one attempted operation and, when it did not succeed, one
// failure; the reason goes to standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", b.w.name, fmt.Sprintf(format, args...))
	}
}

// stack is one warmed-up instance of the program under test, with what each
// step of bringing it up cost.
type stack struct {
	g   *graph.Graph
	eng *core.Engine
	srv *serve.Server
	// coldResps are the responses of the first, cold Server.Run.
	coldResps []serve.Response
	setupCost
}

type setupCost struct {
	graphBuild, build, serveNew, firstRun time.Duration
}

func (c setupCost) total() time.Duration { return c.graphBuild + c.build + c.serveNew + c.firstRun }

func (b *bench) serveConfig(eng *core.Engine, maxBatch int) serve.Config {
	return serve.Config{Engine: eng, Replicas: 1, MaxBatch: maxBatch, Pipelined: true, BatchGraph: b.w.graph}
}

// setup brings the stack up the way a user would before the first response:
// construct the zoo graph, Build with full verification, start the server,
// and serve one burst cold (weights get packed, batch engines compiled).
func (b *bench) setup(reqs []serve.Request) (*stack, error) {
	// A fresh process has an empty pack cache; repeat set-ups start from
	// the same state.
	tensor.ResetPackCache()
	st := &stack{}
	var err error
	t := time.Now()
	if st.g, err = b.w.graph(1); err != nil {
		return nil, fmt.Errorf("building graph: %w", err)
	}
	st.graphBuild = time.Since(t)

	t = time.Now()
	if st.eng, err = core.Build(st.g, core.DefaultConfig(0)); err != nil {
		return nil, fmt.Errorf("Build: %w", err)
	}
	st.build = time.Since(t)

	t = time.Now()
	if st.srv, err = serve.New(b.serveConfig(st.eng, b.w.maxBatch)); err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	st.serveNew = time.Since(t)

	t = time.Now()
	if _, st.coldResps, err = st.srv.Run(reqs); err != nil {
		st.srv.Close()
		return nil, fmt.Errorf("first Server.Run: %w", err)
	}
	st.firstRun = time.Since(t)
	return st, nil
}

// run executes the workload: repeated set-up, the correctness gate, the
// untraced timed operations, and (with opt.trace) the traced pass. Set-up,
// gate and timed operations together last opt.seconds.
func (b *bench) run() (*result, error) {
	start := time.Now()
	w := b.w
	reqs := serve.OpenLoop(serve.LoadSpec{
		Requests: w.burst,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return w.inputs(1, b.opt.seed*1000+int64(i)) },
	})
	// Infer and InferParallel run on the first request's tensors.
	inputs := reqs[0].Inputs

	// Only the last stack is kept; earlier ones are released so that peak
	// RSS is that of one engine and one server.
	var st *stack
	var setups [setupReps]setupCost
	for i := range setups {
		if st != nil {
			st.srv.Close()
		}
		var err error
		if st, err = b.setup(reqs); err != nil {
			return nil, err
		}
		setups[i] = st.setupCost
	}
	defer st.srv.Close()

	// Gate, before any timing: Infer, InferParallel and every response of
	// the cold Server.Run must agree bit for bit. These calls are also the
	// engine's warm-up.
	wantReq := make([]string, len(reqs))
	for i := range reqs {
		r, err := st.eng.Infer(reqs[i].Inputs)
		if err != nil {
			return nil, fmt.Errorf("expected output of request %d: %w", i, err)
		}
		wantReq[i] = hashTensors(r.Outputs)
	}
	want := wantReq[0]
	res, err := st.eng.InferParallel(inputs)
	b.check(sameOutputs(res, err, want), "warm-up InferParallel differs from Infer (err=%v)", err)
	b.checkResponses(st.coldResps, wantReq, nil)

	// Timed operations, tracing off, in a fixed cycle: Infer and
	// InferParallel alternate so drift hits both, bursts follow, and cold
	// Builds precede each. The cycle is cut where the time runs out, but
	// not before every operation has run once.
	var buildMS, inferMS, parMS, rps []float64
	var lastReport *serve.Report
	timedInfer := func() {
		t := time.Now()
		res, err := st.eng.Infer(inputs)
		inferMS = append(inferMS, ms(time.Since(t)))
		b.check(sameOutputs(res, err, want), "Infer output mismatch (err=%v)", err)
	}
	timedParallel := func() {
		t := time.Now()
		res, err := st.eng.InferParallel(inputs)
		parMS = append(parMS, ms(time.Since(t)))
		b.check(sameOutputs(res, err, want), "InferParallel output mismatch (err=%v)", err)
	}
	timedBurst := func() {
		t := time.Now()
		rep, resps, err := st.srv.Run(reqs)
		wall := time.Since(t)
		ok := b.checkResponses(resps, wantReq, err)
		rps = append(rps, float64(ok)/wall.Seconds())
		lastReport = rep
	}
	var cycle []func()
	for i := 0; i < w.pairs; i++ {
		cycle = append(cycle, timedInfer, timedParallel)
	}
	for i := 0; i < w.bursts; i++ {
		cycle = append(cycle, timedBurst)
	}
	budget := b.opt.seconds
	if b.opt.trace {
		budget *= tracedShare
	}
	runtime.GC()
	ops := 0
	for ; ops < len(cycle) || time.Since(start).Seconds() < budget; ops++ {
		for i := 0; i < buildsPerOp; i++ {
			t := time.Now()
			_, err := core.Build(st.g, core.DefaultConfig(0))
			buildMS = append(buildMS, ms(time.Since(t)))
			b.check(err == nil, "Build: %v", err)
		}
		cycle[ops%len(cycle)]()
	}
	// Everything after this point is the benchmark's own work (reference
	// execution, traced pass); the high-water mark is read before it.
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Gate, continued: an unpartitioned, unfused, arena-free execution of
	// the whole graph must produce the same bits.
	ref, err := compiler.Compile(st.g, compiler.Options{})
	if err != nil {
		return nil, fmt.Errorf("compiling reference: %w", err)
	}
	refOut, err := ref.Execute(inputs)
	b.check(err == nil && hashTensors(refOut) == want, "whole-graph reference differs from Infer (err=%v)", err)

	sum := sha256.New()
	for _, h := range wantReq {
		sum.Write([]byte(h))
	}
	digest := hex.EncodeToString(sum.Sum(nil))
	if gold, ok := golden.Hashes[w.name]; ok && golden.Seed == b.opt.seed && golden.GOARCH == runtime.GOARCH {
		b.check(gold == digest, "output hash %s differs from golden %s", digest, gold)
	} else {
		b.notes = append(b.notes, fmt.Sprintf("no golden hash for seed %d on %s: outputs checked against each other and the whole-graph reference only", b.opt.seed, runtime.GOARCH))
	}

	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.total().Seconds())
	}
	e2e := map[string]metricValue{
		"setup_s":           timed("setup_s", setupS),
		"build_ms":          timed("build_ms", buildMS),
		"infer_ms":          timed("infer_ms", inferMS),
		"infer_parallel_ms": timed("infer_parallel_ms", parMS),
		"served_rps":        timed("served_rps", rps),
		"peak_rss_mb":       {Value: rssMB, Unit: "MB"},
	}
	out := &result{
		Workload: w.name, Seed: b.opt.seed, Seconds: b.opt.seconds, Cycles: float64(ops) / float64(len(cycle)),
		OutputSHA256: digest, EndToEnd: e2e,
	}
	if b.opt.trace {
		layers, err := b.tracedPass(st, setups[:], inputs, reqs, want, e2e, lastReport)
		if err != nil {
			return nil, err
		}
		out.PerLayer = layers
	}
	out.Attempted, out.Failed, out.Correct, out.Notes = b.attempted, b.failed, b.failed == 0, b.notes
	return out, nil
}

// checkResponses counts every request of one Server.Run as an attempted
// operation and returns how many came back OK with the expected bits.
func (b *bench) checkResponses(resps []serve.Response, want []string, err error) int {
	if err != nil {
		for range want {
			b.check(false, "Server.Run: %v", err)
		}
		return 0
	}
	ok := 0
	for i := range resps {
		good := resps[i].Outcome == serve.OK && hashTensors(resps[i].Outputs) == want[i]
		b.check(good, "served request %d: outcome %s, err %v, or output mismatch", i, resps[i].Outcome, resps[i].Err)
		if good {
			ok++
		}
	}
	return ok
}

func sameOutputs(res *duetrt.Result, err error, want string) bool {
	return err == nil && hashTensors(res.Outputs) == want
}

// timed reports the fast end of an end-to-end metric's samples (fastTime,
// fastRate), marked unresolved when their interquartile range exceeds the
// metric's bound.
func timed(name string, samples []float64) metricValue {
	var def metricDef
	for _, d := range endToEnd {
		if d.Name == name {
			def = d
		}
	}
	s := summarize(samples)
	v := metricValue{Value: fastTime(samples), Unit: def.Unit, Samples: &s, Raw: samples}
	if def.Better == "higher" {
		v.Value = fastRate(samples)
	}
	if s.spread() > def.Bound {
		v.Status = "unresolved"
	}
	return v
}

// hashTensors is the SHA-256 of the tensors' shapes and float32 bit
// patterns, so equality means bit-for-bit equal outputs.
func hashTensors(ts []*tensor.Tensor) string {
	h := sha256.New()
	var buf [4]byte
	for _, t := range ts {
		if t == nil {
			h.Write([]byte("nil"))
			continue
		}
		for _, d := range t.Shape() {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
		for _, f := range t.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
