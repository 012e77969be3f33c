// Command duet-run builds a DUET engine for one model, executes a real
// inference on the chosen heterogeneous placement, and reports the
// placement decisions, latency statistics and execution timeline.
//
// Usage:
//
//	duet-run -model widedeep
//	duet-run -model siamese -runs 2000 -seed 7
//	duet-run -model resnet50 -timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/profile"
	"duet/internal/serve"
	"duet/internal/stats"
	"duet/internal/tensor"
	"duet/internal/verify"
	"duet/internal/workload"
)

func main() {
	var (
		model    = flag.String("model", "widedeep", "widedeep | siamese | mtdnn | resnet18/34/50/101 | vgg16 | squeezenet | googlenet")
		seed     = flag.Int64("seed", 42, "noise/workload seed")
		runs     = flag.Int("runs", 1000, "latency samples")
		timeline = flag.Bool("timeline", false, "print the execution timeline of one inference")
		small    = flag.Bool("small", false, "use a reduced model (fast real-value execution)")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON of one inference to this file")
		dot      = flag.String("dot", "", "write the model graph (with placement labels) in Graphviz dot form to this file")
		parallel = flag.Bool("parallel", false, "execute tensor math with per-device worker goroutines (InferParallel)")
		profiles = flag.String("profiles", "", "reuse persisted profiling records (from duet-profile -out) instead of re-profiling")
		metrics  = flag.String("metrics", "", "print collected metrics after the run: 'prom' (Prometheus text format) or 'json' (snapshot)")
		audit    = flag.Bool("audit", false, "print the scheduler's placement audit (device choices, swap sequence, predicted vs measured critical path)")
		lint     = flag.Bool("lint", false, "run the static verification passes over the built engine and report per-pass results instead of measuring; with -dot, failing nodes are marked red; exit 1 on findings")

		serveMode       = flag.Bool("serve", false, "serve a request stream through the concurrent serving layer (replicas + micro-batching + pipelining) instead of measuring single inferences")
		serveReqs       = flag.Int("serve-requests", 32, "serve: request count")
		serveQPS        = flag.Float64("serve-qps", 0, "serve: Poisson offered load in req/s (0 = all-at-once burst)")
		serveDeadlineMS = flag.Float64("serve-deadline-ms", 0, "serve: per-request SLA in virtual ms (0 = none; enables admission control and shedding)")
		serveReplicas   = flag.Int("serve-replicas", 1, "serve: engine replica count")
		serveBatch      = flag.Int("serve-batch", 8, "serve: micro-batch row cap (1 disables coalescing)")
		serveWindowMS   = flag.Float64("serve-window-ms", 2, "serve: micro-batch accumulation window in virtual ms")
	)
	flag.Parse()

	g, inputs, err := buildModel(*model, *seed, *small)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-run:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig(*seed)
	if *profiles != "" {
		f, err := os.Open(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-run:", err)
			os.Exit(1)
		}
		records, err := profile.LoadRecords(g.Name, -1, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-run:", err)
			os.Exit(1)
		}
		cfg.Records = records
		fmt.Printf("reusing %d persisted profile records from %s\n", len(records), *profiles)
	}
	if *lint {
		// Lint is the reporting path: let the build succeed and report the
		// findings pass-by-pass here instead of failing inside Build.
		cfg.DisableVerify = true
	}
	engine, err := core.Build(g, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-run:", err)
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metrics != "" {
		if *metrics != "prom" && *metrics != "json" {
			fmt.Fprintf(os.Stderr, "duet-run: -metrics must be 'prom' or 'json', got %q\n", *metrics)
			os.Exit(2)
		}
		reg = obs.NewRegistry()
		engine.Instrument(reg)
	}

	fmt.Printf("model %s: %d nodes, %.1fM params, %d subgraphs, placement %s (fellback=%v)\n",
		g.Name, g.Len(), float64(models.ParamCount(g))/1e6, engine.Runtime.NumSubgraphs(), engine.Placement, engine.FellBack)
	fmt.Println("\nplacement decisions (Table II style):")
	for _, row := range engine.PlacementTable() {
		fmt.Println(" ", row)
	}

	if *lint {
		os.Exit(runLint(engine, g, *dot))
	}

	if *serveMode {
		o := serveOpts{
			requests: *serveReqs, replicas: *serveReplicas, maxBatch: *serveBatch,
			qps: *serveQPS, windowMS: *serveWindowMS, deadlineMS: *serveDeadlineMS,
		}
		if err := runServe(engine, reg, *model, *seed, *small, inputs, o); err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: serve:", err)
			os.Exit(1)
		}
		if reg != nil {
			fmt.Println("\nmetrics:")
			var err error
			if *metrics == "json" {
				err = reg.WriteJSON(os.Stdout)
			} else {
				err = reg.WritePrometheus(os.Stdout)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "duet-run: metrics:", err)
				os.Exit(1)
			}
		}
		return
	}

	duet, err := engine.Measure(*runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-run:", err)
		os.Exit(1)
	}
	cpu, _ := engine.MeasureUniform(device.CPU, *runs)
	gpu, _ := engine.MeasureUniform(device.GPU, *runs)
	sDuet, sCPU, sGPU := stats.Summarize(duet), stats.Summarize(cpu), stats.Summarize(gpu)
	fmt.Printf("\nlatency over %d runs:\n  DUET     %s\n  TVM-CPU  %s\n  TVM-GPU  %s\n  speedup: %.2fx vs GPU, %.2fx vs CPU\n",
		*runs, sDuet, sCPU, sGPU, sGPU.Mean/sDuet.Mean, sCPU.Mean/sDuet.Mean)

	infer := engine.Infer
	if *parallel {
		infer = engine.InferParallel
	}
	res, err := infer(inputs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-run: inference:", err)
		os.Exit(1)
	}
	fmt.Printf("\nreal inference: latency %sms, %d output(s):\n", stats.Ms(res.Latency), len(res.Outputs))
	for i, o := range res.Outputs {
		fmt.Printf("  out[%d] %v\n", i, o)
	}
	if *timeline {
		fmt.Println("\ntimeline:")
		for _, s := range res.Timeline {
			fmt.Printf("  %-9s %9sms..%9sms  %s\n", s.Device, stats.Ms(s.Start), stats.Ms(s.End), s.Label)
		}
	}
	if *trace != "" {
		data, err := res.ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: trace:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*trace, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing)\n", *trace)
	}

	mem, err := engine.Runtime.Memory(engine.Placement)
	if err == nil {
		fmt.Printf("\nmemory footprint: %s\n", mem)
	}

	if *audit {
		a, err := engine.ScheduleAudit()
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: audit:", err)
			os.Exit(1)
		}
		fmt.Println()
		if err := a.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: audit:", err)
			os.Exit(1)
		}
	}

	if reg != nil {
		fmt.Println("\nmetrics:")
		var err error
		if *metrics == "json" {
			err = reg.WriteJSON(os.Stdout)
		} else {
			err = reg.WritePrometheus(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: metrics:", err)
			os.Exit(1)
		}
	}

	if *dot != "" {
		labels := map[graph.NodeID]string{}
		for i, sub := range engine.Runtime.Subgraphs() {
			for _, id := range sub.Members {
				labels[id] = engine.Placement[i].String()
			}
		}
		if err := os.WriteFile(*dot, []byte(g.DOT(labels)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: dot:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote placement-labelled graph to %s\n", *dot)
	}
}

// runLint runs every static verification pass over the built engine, prints
// a per-pass verdict with the findings, replays the scheduler's audit trail,
// and (when dotPath is set) writes the graph with failing nodes filled red.
// Returns the process exit code: 0 clean, 1 findings.
func runLint(engine *core.Engine, g *graph.Graph, dotPath string) int {
	findings := engine.Verify()
	byPass := map[string][]verify.Finding{}
	for _, f := range findings {
		byPass[f.Pass] = append(byPass[f.Pass], f)
	}
	fmt.Println("\nstatic verification:")
	passes := []string{
		verify.PassGraph, verify.PassPartition, verify.PassProfiles,
		verify.PassPlacement, verify.PassSchedule, verify.PassRelease,
	}
	for _, pass := range passes {
		fs := byPass[pass]
		if len(fs) == 0 {
			fmt.Printf("  %-16s ok\n", pass)
			continue
		}
		fmt.Printf("  %-16s %d finding(s)\n", pass, len(fs))
		for _, f := range fs {
			fmt.Printf("    %s\n", f)
		}
	}

	// Audit replay: re-derive the scheduler's decision trail and verify it
	// against the partition and profiles.
	auditFindings := 0
	if a, err := engine.ScheduleAudit(); err != nil {
		fmt.Printf("  %-16s skipped: %v\n", verify.PassAudit, err)
	} else if err := a.Verify(engine.Partition, engine.Profiles); err != nil {
		auditFindings++
		fmt.Printf("  %-16s FAIL: %v\n", verify.PassAudit, err)
	} else {
		fmt.Printf("  %-16s ok\n", verify.PassAudit)
	}

	if dotPath != "" {
		labels := map[graph.NodeID]string{}
		for i, sub := range engine.Runtime.Subgraphs() {
			for _, id := range sub.Members {
				labels[id] = engine.Placement[i].String()
			}
		}
		styles := map[graph.NodeID]verifyDotStyle{}
		for _, f := range findings {
			if f.Node < 0 {
				continue
			}
			st := styles[f.Node]
			st.Color = "red"
			if st.Note == "" {
				st.Note = f.Pass
			} else {
				st.Note += "," + f.Pass
			}
			styles[f.Node] = st
		}
		dotStyles := map[graph.NodeID]graph.DotStyle{}
		for id, st := range styles {
			dotStyles[id] = graph.DotStyle{Color: st.Color, Note: "FAIL: " + st.Note}
		}
		if err := os.WriteFile(dotPath, []byte(g.DOTStyled(labels, dotStyles)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "duet-run: dot:", err)
			return 1
		}
		fmt.Printf("\nwrote verification-annotated graph to %s (%d node(s) marked)\n", dotPath, len(dotStyles))
	}

	if len(findings)+auditFindings > 0 {
		fmt.Printf("\nlint: %d finding(s)\n", len(findings)+auditFindings)
		return 1
	}
	fmt.Println("\nlint: all passes clean")
	return 0
}

// verifyDotStyle accumulates per-node annotation before conversion to
// graph.DotStyle (several passes can flag the same node).
type verifyDotStyle struct {
	Color string
	Note  string
}

type serveOpts struct {
	requests, replicas, maxBatch int
	qps, windowMS, deadlineMS    float64
}

// runServe drives the built engine through the concurrent serving layer:
// an open-loop (or burst) request stream, micro-batching, and pipelined
// cross-device execution, reporting throughput, tail latency, and
// per-replica device utilization.
func runServe(engine *core.Engine, reg *obs.Registry, model string, seed int64, small bool, fallback map[string]*tensor.Tensor, o serveOpts) error {
	batchGraph, inputsFor := serveSetup(model, seed, small)
	if inputsFor == nil {
		// No per-request workload generator for this model: replay the same
		// input set each request (throughput numbers stay meaningful; outputs
		// are identical across requests).
		inputsFor = func(int) map[string]*tensor.Tensor { return fallback }
	}
	if batchGraph == nil && o.maxBatch > 1 {
		fmt.Printf("note: %s has no batch-resizing builder wired; serving unbatched\n", model)
		o.maxBatch = 1
	}
	srv, err := serve.New(serve.Config{
		Engine:     engine,
		BatchGraph: batchGraph,
		Replicas:   o.replicas,
		MaxBatch:   o.maxBatch,
		Window:     o.windowMS / 1e3,
		Pipelined:  true,
		Admission:  o.deadlineMS > 0,
		Seed:       seed,
		Registry:   reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	spec := serve.LoadSpec{
		Requests: o.requests,
		QPS:      o.qps,
		Burst:    o.qps <= 0,
		Deadline: o.deadlineMS / 1e3,
		Seed:     seed + 3,
		Inputs:   inputsFor,
	}
	rep, _, err := srv.Run(serve.OpenLoop(spec))
	if err != nil {
		return err
	}
	pattern := "burst"
	if o.qps > 0 {
		pattern = fmt.Sprintf("poisson @ %.0f req/s", o.qps)
	}
	fmt.Printf("\nserving %d requests (%s, max batch %d, window %.1fms, %d replica(s)):\n  %s\n",
		o.requests, pattern, o.maxBatch, o.windowMS, o.replicas, rep)
	for i, r := range rep.Replicas {
		fmt.Printf("  replica %d: cpu busy %.3fms (%.0f%% util), gpu busy %.3fms (%.0f%% util)\n",
			i, float64(r.CPUBusy)*1e3, r.CPUUtil*100, float64(r.GPUBusy)*1e3, r.GPUUtil*100)
	}
	return nil
}

// serveSetup wires the per-model pieces the serving layer needs beyond the
// engine itself: the batch-resizing graph builder (weights bit-identical
// across batch sizes — builders derive them from the model seed alone) and
// a deterministic per-request input stream.
func serveSetup(name string, seed int64, small bool) (func(int) (*graph.Graph, error), func(int) map[string]*tensor.Tensor) {
	switch {
	case name == "widedeep":
		cfg := models.DefaultWideDeep()
		if small {
			cfg.ImageSize, cfg.SeqLen, cfg.CNNDepth = 64, 16, 18
		}
		return func(b int) (*graph.Graph, error) {
				c := cfg
				c.Batch = b
				return models.WideDeep(c)
			},
			workload.WideDeepStream(cfg, seed+1000)
	case name == "siamese":
		cfg := models.DefaultSiamese()
		if small {
			cfg.SeqLen = 16
			cfg.Hidden = 64
		}
		return func(b int) (*graph.Graph, error) {
				c := cfg
				c.Batch = b
				return models.Siamese(c)
			},
			func(i int) map[string]*tensor.Tensor { return workload.SiameseInputs(cfg, seed+1000+int64(i)) }
	case name == "mtdnn":
		cfg := models.DefaultMTDNN()
		if small {
			cfg.SeqLen, cfg.Layers, cfg.ModelDim, cfg.FFNDim, cfg.Heads = 16, 2, 128, 256, 4
		}
		return func(b int) (*graph.Graph, error) {
				c := cfg
				c.Batch = b
				return models.MTDNN(c)
			},
			func(i int) map[string]*tensor.Tensor { return workload.MTDNNInputs(cfg, seed+1000+int64(i)) }
	case strings.HasPrefix(name, "resnet"):
		var depth int
		if _, err := fmt.Sscanf(name, "resnet%d", &depth); err != nil {
			return nil, nil
		}
		cfg := models.DefaultResNet(depth)
		if small {
			cfg.ImageSize = 64
		}
		return func(b int) (*graph.Graph, error) {
				c := cfg
				c.Batch = b
				return models.ResNet(c)
			},
			func(i int) map[string]*tensor.Tensor { return workload.ResNetInputs(cfg, seed+1000+int64(i)) }
	default:
		return nil, nil
	}
}

func buildModel(name string, seed int64, small bool) (*graph.Graph, map[string]*tensor.Tensor, error) {
	switch {
	case name == "widedeep":
		cfg := models.DefaultWideDeep()
		if small {
			cfg.ImageSize = 64
			cfg.SeqLen = 16
			cfg.CNNDepth = 18
		}
		g, err := models.WideDeep(cfg)
		return g, workload.WideDeepInputs(cfg, seed), err
	case name == "siamese":
		cfg := models.DefaultSiamese()
		if small {
			cfg.SeqLen = 16
			cfg.Hidden = 64
		}
		g, err := models.Siamese(cfg)
		return g, workload.SiameseInputs(cfg, seed), err
	case name == "mtdnn":
		cfg := models.DefaultMTDNN()
		if small {
			cfg.SeqLen = 16
			cfg.Layers = 2
			cfg.ModelDim = 128
			cfg.FFNDim = 256
			cfg.Heads = 4
		}
		g, err := models.MTDNN(cfg)
		return g, workload.MTDNNInputs(cfg, seed), err
	case name == "vgg16":
		cfg := models.DefaultVGG()
		if small {
			cfg.ImageSize = 64
		}
		g, err := models.VGG(cfg)
		return g, map[string]*tensor.Tensor{"image": tensor.Full(0.1, cfg.Batch, 3, cfg.ImageSize, cfg.ImageSize)}, err
	case name == "googlenet":
		cfg := models.DefaultGoogLeNet()
		if small {
			cfg.ImageSize = 64
		}
		g, err := models.GoogLeNet(cfg)
		return g, map[string]*tensor.Tensor{"image": tensor.Full(0.1, cfg.Batch, 3, cfg.ImageSize, cfg.ImageSize)}, err
	case name == "squeezenet":
		cfg := models.DefaultSqueezeNet()
		if small {
			cfg.ImageSize = 64
		}
		g, err := models.SqueezeNet(cfg)
		return g, map[string]*tensor.Tensor{"image": tensor.Full(0.1, cfg.Batch, 3, cfg.ImageSize, cfg.ImageSize)}, err
	case strings.HasPrefix(name, "resnet"):
		var depth int
		if _, err := fmt.Sscanf(name, "resnet%d", &depth); err != nil {
			return nil, nil, fmt.Errorf("bad model name %q", name)
		}
		cfg := models.DefaultResNet(depth)
		if small {
			cfg.ImageSize = 64
		}
		g, err := models.ResNet(cfg)
		return g, workload.ResNetInputs(cfg, seed), err
	default:
		return nil, nil, fmt.Errorf("unknown model %q", name)
	}
}
