// Command duet-profile runs the compiler-aware profiler (§IV-B) over a
// model's subgraphs and prints each subgraph's per-device micro-benchmark
// time, I/O volume, and the effect of compiler fusion on the measurement.
//
// Usage:
//
//	duet-profile -model widedeep
//	duet-profile -model mtdnn -nofuse   # profile without fusion (ablation)
//	duet-profile -model siamese -out siamese.json   # persist the records
package main

import (
	"flag"
	"fmt"
	"os"

	"duet/internal/compiler"
	"duet/internal/device"
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
	)
	flag.Parse()

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
