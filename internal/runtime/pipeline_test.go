package runtime

import (
	"testing"

	"duet/internal/device"
)

func TestPipelinedThroughputExceedsInverseLatency(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	place := Placement{device.CPU, device.GPU, device.CPU}
	single, err := e.Run(nil, place, false)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := e.MeasurePipelined(place, 50)
	if err != nil {
		t.Fatal(err)
	}
	// With pipelining, throughput must be at least the serial rate (and
	// strictly better when phases overlap across requests).
	serialRate := 1 / single.Latency
	if pipe.Throughput < serialRate*0.99 {
		t.Fatalf("pipelined throughput %v below serial rate %v", pipe.Throughput, serialRate)
	}
	if pipe.Requests != 50 || pipe.Makespan <= 0 {
		t.Fatalf("bad result: %+v", pipe)
	}
	// Mean latency includes queueing, so it can only exceed the single-run
	// latency.
	if pipe.MeanLatency < single.Latency*0.99 {
		t.Fatalf("pipelined mean latency %v below single-run latency %v", pipe.MeanLatency, single.Latency)
	}
}

// TestPipelinedSingleRequestMatchesRun: a one-request pipeline is Run — the
// same walk from the same zeroed clocks — so the makespan equals the latency
// exactly, on every zoo model and placement, noiseless and noisy.
func TestPipelinedSingleRequestMatchesRun(t *testing.T) {
	for _, ze := range zooEngines(t) {
		for _, seed := range goldenSeeds {
			for name, place := range ze.places {
				ze.e.Platform = device.NewPlatform(seed)
				single, err := ze.e.Run(nil, place, false)
				if err != nil {
					t.Fatal(err)
				}
				ze.e.Platform = device.NewPlatform(seed)
				pipe, err := ze.e.MeasurePipelined(place, 1)
				if err != nil {
					t.Fatal(err)
				}
				if pipe.Makespan != single.Latency {
					t.Errorf("%s/%s/seed%d: single-request pipeline %x != Run %x", ze.name, name, seed, pipe.Makespan, single.Latency)
				}
			}
		}
	}
}

func TestPipelinedHeterogeneousBeatsUniformThroughput(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	split := Placement{device.CPU, device.GPU, device.CPU}
	duet, err := e.MeasurePipelined(split, 100)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := e.MeasurePipelined(Uniform(3, device.GPU), 100)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := e.MeasurePipelined(Uniform(3, device.CPU), 100)
	if err != nil {
		t.Fatal(err)
	}
	if duet.Throughput <= gpu.Throughput || duet.Throughput <= cpu.Throughput {
		t.Fatalf("co-execution should raise pipelined throughput: duet=%v gpu=%v cpu=%v",
			duet.Throughput, gpu.Throughput, cpu.Throughput)
	}
}

func TestPipelinedErrors(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	if _, err := e.MeasurePipelined(Placement{device.CPU}, 10); err == nil {
		t.Fatalf("expected placement-length error")
	}
	// An out-of-range device kind must fail validation, not panic inside
	// Platform.Device.
	if _, err := e.MeasurePipelined(Placement{device.CPU, device.Kind(7), device.GPU}, 10); err == nil {
		t.Fatalf("expected unknown-device-kind error")
	}
	// requests < 1 clamps to 1.
	r, err := e.MeasurePipelined(Uniform(3, device.CPU), 0)
	if err != nil || r.Requests != 1 {
		t.Fatalf("clamp failed: %+v, %v", r, err)
	}
}
