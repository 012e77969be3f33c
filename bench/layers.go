package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/queue"
	duetrt "duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/serve"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// Repetitions inside the traced pass; fixed so two runs do the same work.
const (
	tracedPasses   = 3 // replay + kernel-pass repetitions
	timingWalkReps = 200
	queuePairs     = 1 << 20
	sidePassRuns   = 3 // timed repetitions of the unbatched-server and batch-engine side measurements
)

// tracedPass re-walks the pipeline from the benchmark's side with a span
// around each exported call and derives the per-layer metrics. Nothing in
// the program under test is instrumented; a layer is measured by timing the
// calls into it. The end-to-end values it relates layers to (infer_ms and
// friends) come from the untraced operations timed just before.
func (b *bench) tracedPass(st *stack, setups []setupCost, inputs map[string]*tensor.Tensor, reqs []serve.Request,
	want string, e2e map[string]metricValue, rep *serve.Report) (map[string]metricValue, error) {
	w := b.w
	eng := st.eng
	inferMS := e2e["infer_ms"].Value
	servedRPS := e2e["served_rps"].Value
	v := map[string]float64{}
	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, b.opt.seed))

	// (a) Build, stage by stage, as core.Build strings the stages together.
	var firstErr error
	step := func(layer, name string, f func() error) time.Duration {
		if firstErr != nil {
			return 0
		}
		return tr.do(layer, name, "", func() {
			if err := f(); err != nil {
				firstErr = fmt.Errorf("traced %s: %w", name, err)
			}
		})
	}
	var (
		g          *graph.Graph
		part       *partition.Partition
		rt         *duetrt.Engine
		records    []profile.Record
		place      duetrt.Placement
		findings   []verify.Finding
		compileDur time.Duration
		schedSpan  int
	)
	opt := compiler.DefaultOptions()
	measureCalls := 0
	step("bench", "build_walk", func() error {
		step("models", "models.graph", func() (err error) { g, err = w.graph(1); return })
		step("compiler", "compiler.InferShapes", func() error {
			if err := g.Validate(); err != nil {
				return err
			}
			return compiler.InferShapes(g)
		})
		v["partition.build_ms"] = ms(step("partition", "partition.Build", func() (err error) { part, err = partition.Build(g); return }))
		if firstErr != nil {
			return nil
		}
		modules := make([]*compiler.Module, len(part.Subgraphs()))
		for i, sub := range part.Subgraphs() {
			compileDur += step("compiler", "compiler.Compile "+sub.Graph.Name, func() (err error) {
				modules[i], err = compiler.Compile(sub.Graph, opt)
				return
			})
		}
		v["runtime.new_ms"] = ms(step("runtime", "runtime.New", func() (err error) {
			rt, err = duetrt.New(part, device.NewPlatform(0), opt)
			return
		}))
		v["profile.profile_all_ms"] = ms(step("profile", "Profiler.ProfileAll", func() (err error) {
			prof := &profile.Profiler{Platform: device.NewPlatform(0), Options: opt, Runs: core.DefaultConfig(0).ProfileRuns}
			records, err = prof.ProfileAll(g, part.Subgraphs())
			return
		}))
		schedSpan = len(tr.spans)
		step("schedule", "Scheduler.GreedyCorrection", func() error {
			measure := schedule.EngineMeasure(rt, core.DefaultConfig(0).MeasureRuns)
			sched, err := schedule.New(part, records, func(p duetrt.Placement) (lat vclock.Seconds, err error) {
				measureCalls++
				tr.do("runtime", "Engine.MeasureLatency", "", func() { lat, err = measure(p) })
				return
			})
			if err != nil {
				return err
			}
			place, err = sched.GreedyCorrection()
			return err
		})
		v["verify.all_ms"] = ms(step("verify", "verify.All", func() error {
			findings = verify.All(verify.Artifacts{Graph: g, Partition: part, Placement: []device.Kind(place), Records: records, Modules: modules})
			return nil
		}))
		return nil
	})
	if firstErr != nil {
		return nil, firstErr
	}
	b.check(eng.FellBack || place.String() == eng.Placement.String(),
		"stage-by-stage placement %s differs from Build's %s", place, eng.Placement)
	v["compiler.compile_ms"] = ms(compileDur)
	v["schedule.greedy_correction_ms"] = ms(selfTimes(tr.spans)[schedSpan])
	v["schedule.measure_calls"] = float64(measureCalls)
	v["verify.passes"] = float64(len(verify.Passes()))
	v["verify.findings"] = float64(len(findings))
	v["partition.subgraphs"] = float64(len(part.Subgraphs()))
	v["partition.phases"] = float64(len(part.Phases))

	// (b) Serial executor replay: ExecuteArena per subgraph in partition
	// order, on a warm arena of the benchmark's own.
	// (c) Kernel pass: every kernel op by op through RunKernel (no fusion
	// lowering, no arena), labelled by its leader's class.
	// The two alternate, so that the ratio between them sees the same host.
	subs := eng.Runtime.Subgraphs()
	ar := tensor.NewArena()
	if _, err := replay(newTracer(""), eng, inputs, ar); err != nil { // warm-up
		return nil, err
	}
	var replayMS, execMS, kernelMS []float64
	lane := map[device.Kind]time.Duration{}
	class := map[string]time.Duration{}
	for p := 0; p < tracedPasses; p++ {
		from := len(tr.spans)
		var outs []*tensor.Tensor
		var err error
		pass := tr.do("bench", "replay", "", func() { outs, err = replay(tr, eng, inputs, ar) })
		if err != nil {
			return nil, err
		}
		b.check(hashTensors(outs) == want, "replayed outputs differ from Infer")
		replayMS = append(replayMS, ms(pass))
		var exec time.Duration
		for i, s := range tr.spans[from+1:] {
			exec += s.dur()
			lane[eng.Placement[i]] += s.dur()
		}
		execMS = append(execMS, ms(exec))

		from = len(tr.spans)
		tr.do("bench", "kernel_pass", "", func() { outs, err = kernelPass(tr, eng, inputs) })
		if err != nil {
			return nil, err
		}
		b.check(hashTensors(outs) == want, "op-by-op outputs differ from Infer")
		var kernels time.Duration
		for _, s := range tr.spans[from+1:] {
			kernels += s.dur()
			class[s.Class] += s.dur()
		}
		kernelMS = append(kernelMS, ms(kernels))
	}
	exec := fastTime(execMS)
	v["compiler.exec_ms"] = exec
	v["runtime.overhead_ms"] = inferMS - exec
	v["runtime.parallel_bound"] = float64(lane[device.CPU]+lane[device.GPU]) / float64(max(lane[device.CPU], lane[device.GPU]))
	v["bench.trace_overhead"] = fastTime(replayMS) / inferMS
	v["compiler.fusion_arena_gain"] = fastTime(kernelMS) / exec
	var kernelTotal time.Duration
	for _, d := range class {
		kernelTotal += d
	}
	for _, c := range kernelClasses {
		v["tensor.share."+c] = float64(class[c]) / float64(kernelTotal)
	}

	var flops float64
	for i := range subs {
		m := eng.Runtime.Module(i)
		flops += m.TotalCost().FLOPs
		v["compiler.kernels"] += float64(m.KernelCount())
		v["compiler.launches"] += float64(m.LaunchCount())
		v["compiler.fused_groups"] += float64(m.FusionStats().Groups)
	}
	v["tensor.gflops"] = flops / (exec * 1e6)

	// Counters the program already keeps, read around one more Infer.
	var m0, m1 runtime.MemStats
	a0 := eng.Runtime.Arena().Stats()
	runtime.ReadMemStats(&m0)
	res, err := eng.Infer(inputs)
	runtime.ReadMemStats(&m1)
	a1 := eng.Runtime.Arena().Stats()
	b.check(sameOutputs(res, err, want), "Infer output mismatch (err=%v)", err)
	v["tensor.alloc_mb_per_infer"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	v["tensor.arena_hit_rate"] = ratio(float64(a1.Hits-a0.Hits), float64(a1.Hits-a0.Hits+a1.Misses-a0.Misses+a1.Unpooled-a0.Unpooled))
	pc := tensor.PackCacheSnapshot()
	v["tensor.pack_cache_mb"] = float64(pc.Bytes) / (1 << 20)
	v["tensor.pack_cache_hit_rate"] = ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses))

	// The virtual clock: model output, labelled as such by its unit.
	n := len(subs)
	virt := func(p duetrt.Placement) (float64, error) {
		r, err := eng.Search.Run(nil, p, false)
		if err != nil {
			return 0, fmt.Errorf("timing walk: %w", err)
		}
		return float64(r.Latency) * 1e3, nil
	}
	chosen, err := virt(eng.Placement)
	if err != nil {
		return nil, err
	}
	onCPU, err := virt(duetrt.Uniform(n, device.CPU))
	if err != nil {
		return nil, err
	}
	onGPU, err := virt(duetrt.Uniform(n, device.GPU))
	if err != nil {
		return nil, err
	}
	v["schedule.virt_latency"] = chosen
	v["schedule.virt_speedup"] = min(onCPU, onGPU) / chosen
	v["schedule.fell_back"] = boolTo01(eng.FellBack)
	v["device.cpu_wall_over_virtual"] = inferMS / onCPU
	v["profile.microbenchmarks"] = float64(eng.ProfileStats.Microbenchmarks)

	var walkUS []float64
	tr.do("runtime", fmt.Sprintf("Engine.Run timing-only x%d", timingWalkReps), "", func() {
		for i := 0; i < timingWalkReps; i++ {
			walkUS = append(walkUS, us(stopwatch(func() { _, err = virt(eng.Placement) })))
		}
	})
	if err != nil {
		return nil, err
	}
	v["runtime.timing_walk_us"] = fastTime(walkUS)

	q := queue.New(64)
	pairs := tr.do("queue", fmt.Sprintf("Push+Pop x%d", queuePairs), "", func() {
		for i := 0; i < queuePairs; i++ {
			q.Push(i)
			q.Pop()
		}
	})
	v["queue.push_pop_ns"] = float64(pairs.Nanoseconds()) / queuePairs

	tail := e2e["infer_ms"].Samples
	v["runtime.infer_tail_ms"], v["runtime.infer_tail_pct"] = tail.Tail, tail.TailPct
	v["runtime.parallel_speedup"] = inferMS / e2e["infer_parallel_ms"].Value

	// Serve: what batching buys on the host clock, against the same stream
	// unbatched and against bare Infer.
	var graphMS, newMS, firstS []float64
	for _, s := range setups {
		graphMS = append(graphMS, ms(s.graphBuild))
		newMS = append(newMS, ms(s.serveNew))
		firstS = append(firstS, s.firstRun.Seconds())
	}
	v["models.graph_build_ms"] = fastTime(graphMS)
	v["serve.new_ms"] = fastTime(newMS)
	v["serve.first_run_s"] = fastTime(firstS)
	v["serve.batches"] = float64(rep.Batches)
	v["serve.mean_batch_rows"] = rep.MeanBatchRows
	v["serve.virt_rps"] = rep.Throughput
	v["serve.virt_p99"] = float64(rep.P99Latency) * 1e3
	unbatched, batchInfer := servedRPS, inferMS
	if w.maxBatch > 1 {
		if unbatched, batchInfer, err = b.sidePass(tr, eng, reqs); err != nil {
			return nil, err
		}
	}
	v["serve.rps_unbatched"] = unbatched
	v["serve.batch_gain"] = servedRPS / unbatched
	v["serve.infer_equiv_rps"] = 1000 / inferMS
	v["serve.efficiency"] = unbatched * inferMS / 1000
	v["serve.batch_infer_ms"] = batchInfer
	v["serve.batch_row_cost"] = batchInfer / float64(w.maxBatch) / inferMS

	if b.opt.traceDir != "" {
		if err := tr.writeChrome(filepath.Join(b.opt.traceDir, w.name+".trace.json")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		val, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("traced pass produced no value for %s", d.Name)
		}
		out[d.Name] = metricValue{Value: val, Unit: d.Unit}
	}
	return out, nil
}

// sidePass measures the two comparisons a batching workload needs: the same
// burst through a server that does not coalesce, and one Infer of a
// whole-batch engine (which puts a batching loss in tensor, not in serve).
func (b *bench) sidePass(tr *tracer, eng *core.Engine, reqs []serve.Request) (rpsUnbatched, batchInferMS float64, err error) {
	w := b.w
	var srv *serve.Server
	tr.do("serve", "serve.New unbatched", "", func() { srv, err = serve.New(b.serveConfig(eng, 1)) })
	if err != nil {
		return 0, 0, fmt.Errorf("unbatched serve.New: %w", err)
	}
	defer srv.Close()
	var rps []float64
	for i := 0; i <= sidePassRuns; i++ { // run 0 warms up
		var resps []serve.Response
		wall := tr.do("serve", "Server.Run unbatched", "", func() { _, resps, err = srv.Run(reqs) })
		if err != nil {
			return 0, 0, fmt.Errorf("unbatched Server.Run: %w", err)
		}
		ok := 0
		for _, r := range resps {
			if r.Outcome == serve.OK {
				ok++
			}
		}
		b.check(ok == len(reqs), "unbatched Server.Run delivered %d of %d", ok, len(reqs))
		if i > 0 {
			rps = append(rps, float64(ok)/wall.Seconds())
		}
	}

	g, err := w.graph(w.maxBatch)
	if err != nil {
		return 0, 0, fmt.Errorf("building batch-%d graph: %w", w.maxBatch, err)
	}
	var batchEng *core.Engine
	tr.do("core", fmt.Sprintf("core.Build batch %d", w.maxBatch), "", func() { batchEng, err = core.Build(g, core.DefaultConfig(0)) })
	if err != nil {
		return 0, 0, fmt.Errorf("Build at batch %d: %w", w.maxBatch, err)
	}
	in := w.inputs(w.maxBatch, b.opt.seed)
	var inferMS []float64
	for i := 0; i <= sidePassRuns; i++ { // run 0 warms up
		d := tr.do("core", fmt.Sprintf("Engine.Infer batch %d", w.maxBatch), "", func() { _, err = batchEng.Infer(in) })
		b.check(err == nil, "Infer at batch %d: %v", w.maxBatch, err)
		if i > 0 {
			inferMS = append(inferMS, ms(d))
		}
	}
	return fastRate(rps), fastTime(inferMS), nil
}

// boundaryInputs gathers subgraph sub's inputs from the values produced so
// far, under the names its extracted graph gives its placeholders.
func boundaryInputs(parent *graph.Graph, sub *graph.Subgraph, values map[graph.NodeID]*tensor.Tensor) map[string]*tensor.Tensor {
	in := make(map[string]*tensor.Tensor, len(sub.BoundaryInputs))
	for _, pid := range sub.BoundaryInputs {
		in["in."+parent.Node(pid).Name] = values[pid]
	}
	return in
}

func graphInputs(parent *graph.Graph, inputs map[string]*tensor.Tensor) map[graph.NodeID]*tensor.Tensor {
	values := make(map[graph.NodeID]*tensor.Tensor, parent.Len())
	for _, id := range parent.InputIDs() {
		values[id] = inputs[parent.Node(id).Name]
	}
	return values
}

func graphOutputs(parent *graph.Graph, values map[graph.NodeID]*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(parent.Outputs()))
	for i, o := range parent.Outputs() {
		outs[i] = values[o]
	}
	return outs
}

// replay runs the engine's compiled modules serially in partition order,
// one span per ExecuteArena call (the spans are appended in subgraph order).
func replay(tr *tracer, eng *core.Engine, inputs map[string]*tensor.Tensor, ar *tensor.Arena) ([]*tensor.Tensor, error) {
	parent := eng.Graph
	values := graphInputs(parent, inputs)
	for i, sub := range eng.Runtime.Subgraphs() {
		in := boundaryInputs(parent, sub, values)
		var outs []*tensor.Tensor
		var err error
		tr.do("compiler", "Module.ExecuteArena "+sub.Graph.Name, "", func() { outs, err = eng.Runtime.Module(i).ExecuteArena(in, ar) })
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", sub.Graph.Name, err)
		}
		for oi, pid := range sub.Outputs {
			values[pid] = outs[oi]
		}
	}
	return graphOutputs(parent, values), nil
}

// kernelPass runs every kernel of every module through RunKernel, one span
// per kernel, labelled with the class of the kernel's leader op.
func kernelPass(tr *tracer, eng *core.Engine, inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	parent := eng.Graph
	values := graphInputs(parent, inputs)
	for i, sub := range eng.Runtime.Subgraphs() {
		m := eng.Runtime.Module(i)
		env, err := m.NewEnv(boundaryInputs(parent, sub, values))
		if err != nil {
			return nil, fmt.Errorf("kernel pass over %s: %w", sub.Graph.Name, err)
		}
		for k := range m.Kernels {
			kern := &m.Kernels[k]
			lead := m.Graph.Node(kern.Nodes[0]).Op
			tr.do("tensor", "Module.RunKernel "+kern.Name, opClass[lead], func() { m.RunKernel(kern, env) })
		}
		for oi, o := range m.Graph.Outputs() {
			values[sub.Outputs[oi]] = env[o]
		}
	}
	return graphOutputs(parent, values), nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
