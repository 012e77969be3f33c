// Command duet-profile runs the compiler-aware profiler (§IV-B) over a
// model's subgraphs and prints each subgraph's per-device micro-benchmark
// time, I/O volume, and the effect of compiler fusion on the measurement.
//
// Usage:
//
//	duet-profile -model widedeep
//	duet-profile -model mtdnn -nofuse   # profile without fusion (ablation)
//	duet-profile -train COSTMODEL.json  # fit the latency regressor from zoo profiles
//	duet-profile -model googlenet -eval COSTMODEL.json   # score it on one model
package main

import (
	"flag"
	"fmt"
	"os"

	"duet/internal/compiler"
	"duet/internal/costmodel"
	"duet/internal/device"
	"duet/internal/experiments"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/stats"
)

func main() {
	var (
		model    = flag.String("model", "widedeep", "widedeep | siamese | mtdnn | resnet18/34/50/101 | vgg16 | squeezenet | googlenet")
		seed     = flag.Int64("seed", 42, "profiling noise seed (0 = noiseless)")
		runs     = flag.Int("runs", 500, "micro-benchmark repetitions per device")
		noFuse   = flag.Bool("nofuse", false, "disable operator fusion (profiles framework-style kernels)")
		variants = flag.Bool("variants", false, "print the low-level schedule variant each kernel selects per device")
		out      = flag.String("out", "", "persist the profiling records as JSON to this file (reusable via duet-run -profiles)")
		train    = flag.String("train", "", "fit the per-device latency regressor from noiseless zoo profiles and save it to this file")
		eval     = flag.String("eval", "", "load a saved cost model and score its predictions against -model's measured profiles")
	)
	flag.Parse()

	if *train != "" {
		trainModel(*train)
		return
	}

	g, err := buildGraph(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(2)
	}
	if err := compiler.InferShapes(g); err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	part, err := partition.Build(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}

	opts := compiler.DefaultOptions()
	opts.Fuse = !*noFuse
	prof := &profile.Profiler{Platform: device.NewPlatform(*seed), Options: opts, Runs: *runs}
	records, err := prof.ProfileAll(g, part.Subgraphs())
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}

	fmt.Printf("model %s: %d phases, %d subgraphs (fusion=%v, %d runs/device)\n\n",
		g.Name, len(part.Phases), len(records), !*noFuse, *runs)
	fmt.Printf("%-4s %-6s %-12s %8s %10s %10s %9s %9s %7s\n",
		"idx", "phase", "kind", "kernels", "cpu (ms)", "gpu (ms)", "in (KB)", "out (KB)", "faster")
	subs := part.Subgraphs()
	for i, r := range records {
		ph := part.PhaseOf(i)
		fmt.Printf("%-4d %-6d %-12s %8d %10s %10s %9.1f %9.1f %7s  [%s]\n",
			i, ph, part.Phases[ph].Kind, r.Kernels,
			stats.Ms(r.Time[device.CPU]), stats.Ms(r.Time[device.GPU]),
			float64(r.InBytes)/1024, float64(r.OutBytes)/1024, r.Faster(), subs[i].Summary())
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "duet-profile:", err)
			os.Exit(1)
		}
		if err := profile.SaveRecords(g.Name, records, f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "duet-profile:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %d records to %s\n", len(records), *out)
	}

	if *eval != "" {
		evalModel(*eval, part, opts, records)
	}

	if *variants {
		fmt.Printf("\nlow-level schedule variants (non-default only):\n")
		plat := device.NewPlatform(0)
		for i, sub := range subs {
			m, err := compiler.Compile(sub.Graph, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "duet-profile:", err)
				os.Exit(1)
			}
			cpuV := compiler.TunedVariants(m, plat.CPU)
			gpuV := compiler.TunedVariants(m, plat.GPU)
			for k := range m.Kernels {
				if cpuV[k] == "default" && gpuV[k] == "default" {
					continue
				}
				fmt.Printf("  sub%-3d %-28s cpu=%-11s gpu=%s\n", i, m.Kernels[k].Name, cpuV[k], gpuV[k])
			}
		}
	}
}

// trainModel fits the latency regressor from noiseless profiles of the
// benchmark zoo and writes the committed COSTMODEL.json artifact.
func trainModel(path string) {
	m, samples, err := experiments.TrainZooModel(experiments.Quick())
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	acc := m.Eval(samples)
	fmt.Printf("trained on %d samples: cpu MAPE %.4f (p90 %.4f), gpu MAPE %.4f (p90 %.4f)\n",
		len(samples), acc.MAPE[device.CPU], acc.P90APE[device.CPU],
		acc.MAPE[device.GPU], acc.P90APE[device.GPU])
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("wrote cost model to %s\n", path)
}

// evalModel loads a saved cost model and scores it against the measured
// records just printed: per-device MAPE plus the worst per-subgraph error.
func evalModel(path string, part *partition.Partition,
	opts compiler.Options, records []profile.Record) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	m, err := costmodel.Load(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	samples, err := profile.CostSamples(part, opts, records)
	if err != nil {
		fmt.Fprintln(os.Stderr, "duet-profile:", err)
		os.Exit(1)
	}
	acc := m.Eval(samples)
	fmt.Printf("\ncost model %s vs %d measured subgraphs:\n", path, len(samples))
	fmt.Printf("  cpu MAPE %.4f (p90 %.4f)   gpu MAPE %.4f (p90 %.4f)\n",
		acc.MAPE[device.CPU], acc.P90APE[device.CPU],
		acc.MAPE[device.GPU], acc.P90APE[device.GPU])
	worst, werr := -1, 0.0
	for i, ape := range acc.APE {
		if e := ape[device.CPU] + ape[device.GPU]; e > werr {
			worst, werr = i, e
		}
	}
	if worst >= 0 {
		fmt.Printf("  worst subgraph %d: cpu APE %.4f, gpu APE %.4f\n",
			worst, acc.APE[worst][device.CPU], acc.APE[worst][device.GPU])
	}
}

func buildGraph(name string) (*graph.Graph, error) {
	switch name {
	case "widedeep":
		return models.WideDeep(models.DefaultWideDeep())
	case "siamese":
		return models.Siamese(models.DefaultSiamese())
	case "mtdnn":
		return models.MTDNN(models.DefaultMTDNN())
	case "resnet18", "resnet34", "resnet50", "resnet101":
		var depth int
		fmt.Sscanf(name, "resnet%d", &depth)
		return models.ResNet(models.DefaultResNet(depth))
	case "vgg16":
		return models.VGG(models.DefaultVGG())
	case "squeezenet":
		return models.SqueezeNet(models.DefaultSqueezeNet())
	case "googlenet":
		return models.GoogLeNet(models.DefaultGoogLeNet())
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}
