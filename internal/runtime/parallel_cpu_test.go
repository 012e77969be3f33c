//go:build unix

package runtime

import (
	goruntime "runtime"
	"syscall"
	"testing"
	"time"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// processCPU is the user + system CPU time this process has consumed.
func processCPU(t testing.TB) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestRunParallelIdleLaneCostsNoCPU measures what the idle lane is for: with
// every subgraph on one device and the kernels held to one pool worker, the
// process is one busy thread, so CPU time over 20 runs must stay near wall
// time. A lane that polls its empty queue for the whole run makes it two
// (measured 1.9–2.0× at the parent of this test, 1.0× with the parking
// consumer); 1.5× leaves room for the garbage collector's background
// workers.
func TestRunParallelIdleLaneCostsNoCPU(t *testing.T) {
	if goruntime.NumCPU() < 2 || goruntime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs: on one, the idle lane's polling takes wall time instead of a second core")
	}
	// The reduced Wide&Deep of the served benchmark: ~10 ms a run, so 20
	// runs are long enough for the kernel's CPU accounting to resolve.
	cfg := models.DefaultWideDeep()
	cfg.ImageSize, cfg.SeqLen = 64, 16
	g, err := models.WideDeep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, p, 0)
	inputs := workload.WideDeepInputs(cfg, 1)
	place := Uniform(e.NumSubgraphs(), device.CPU)

	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)
	run := func() {
		if _, err := e.RunParallel(inputs, place); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: weight panels, arena free lists
	run()
	goruntime.GC()
	cpu0, wall0 := processCPU(t), time.Now()
	for i := 0; i < 20; i++ {
		run()
	}
	wall, cpu := time.Since(wall0), processCPU(t)-cpu0
	ratio := cpu.Seconds() / wall.Seconds()
	t.Logf("20 runs: cpu %v over wall %v = %.2f", cpu, wall, ratio)
	if ratio > 1.5 {
		t.Fatalf("one busy lane used %.2f CPU-seconds per wall second, want ≤ 1.5: the idle lane is burning a core", ratio)
	}
}

// BenchmarkRunParallel is the in-tree number for the idle-lane cost: ns/op
// and CPU-seconds per wall second of RunParallel on the small Wide&Deep and
// Siamese, under the placement the scheduler chose (Wide&Deep: both lanes
// have work, though rarely at the same time; the small Siamese: all CPU),
// with everything on the CPU (one lane idle throughout) and alternating
// (Siamese's two branches on different lanes — real overlap). A polling idle
// lane reads ~2.0 cpu-s/wall-s on a two-core host whatever the placement; a
// parked one reads what the dataflow can really overlap.
//
//	go test -run '^$' -bench RunParallel -benchtime 2000x ./internal/runtime/
func BenchmarkRunParallel(b *testing.B) {
	for _, model := range []string{"widedeep", "siamese"} {
		ze := zooEngineNamed(b, model)
		for _, placement := range []string{"chosen", "cpu", "alternating"} {
			place := ze.places[placement]
			b.Run(model+"/"+placement, func(b *testing.B) {
				for i := 0; i < 3; i++ {
					if _, err := ze.e.RunParallel(ze.inputs, place); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				cpu0 := processCPU(b)
				for i := 0; i < b.N; i++ {
					if _, err := ze.e.RunParallel(ze.inputs, place); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				cpu := processCPU(b) - cpu0
				b.ReportMetric(cpu.Seconds()/b.Elapsed().Seconds(), "cpu-s/wall-s")
			})
		}
	}
}
