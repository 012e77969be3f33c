package runtime

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"duet/internal/device"
	"duet/internal/faults"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// TestPolicyNoFaultParity: with an empty injector set, RunWithPolicy is the
// same schedule as Run — identical virtual latency, timeline, and outputs on
// a noiseless engine.
func TestPolicyNoFaultParity(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	place := Placement{device.CPU, device.GPU, device.CPU}
	want, err := e.Run(inputs, place, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunWithPolicy(inputs, place, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got.Latency != want.Latency {
		t.Fatalf("latency diverges without faults: %v vs %v", got.Latency, want.Latency)
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("timeline length %d vs %d", len(got.Timeline), len(want.Timeline))
	}
	for i := range want.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Fatalf("timeline[%d] %+v vs %+v", i, got.Timeline[i], want.Timeline[i])
		}
	}
	for i := range want.Outputs {
		if !tensor.AllClose(got.Outputs[i], want.Outputs[i], 0, 0) {
			t.Fatalf("output %d not bit-identical", i)
		}
	}
	if got.Faults == nil || got.Faults.Retries != 0 || got.Faults.Failovers != 0 {
		t.Fatalf("phantom fault activity: %+v", got.Faults)
	}

	// The same holds span for span on every zoo model and placement, and on
	// a noisy platform too: both are one walk with one sampler, so equal
	// seeds draw equal noise in equal order.
	for _, ze := range zooEngines(t) {
		for _, seed := range goldenSeeds {
			for name, place := range ze.places {
				ze.e.Platform = device.NewPlatform(seed)
				want, err := ze.e.Run(nil, place, false)
				if err != nil {
					t.Fatal(err)
				}
				ze.e.Platform = device.NewPlatform(seed)
				got, err := ze.e.RunWithPolicy(nil, place, DefaultPolicy())
				if err != nil {
					t.Fatal(err)
				}
				if got.Latency != want.Latency || !reflect.DeepEqual(got.Timeline, want.Timeline) {
					t.Errorf("%s/%s/seed%d: RunWithPolicy %x (%d spans) != Run %x (%d spans)", ze.name, name, seed,
						got.Latency, len(got.Timeline), want.Latency, len(want.Timeline))
				}
			}
		}
	}
}

// TestPolicyReproducible: same engine seed + same injector seed + same
// policy ⇒ identical Timeline and latency across independent runs.
func TestPolicyReproducible(t *testing.T) {
	run := func() *Result {
		p, _ := branchy(t)
		e := newEngine(t, p, 99)
		pol := DefaultPolicy()
		pol.Injector = faults.New(5,
			faults.KernelFailures(device.GPU, 0.3),
			faults.TransferFailures(0.2),
			faults.Stalls(device.CPU, 0.2, 1e-4))
		res, err := e.RunWithPolicy(nil, Placement{device.CPU, device.GPU, device.GPU}, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Latency != b.Latency {
		t.Fatalf("latency not reproducible: %v vs %v", a.Latency, b.Latency)
	}
	if len(a.Timeline) != len(b.Timeline) {
		t.Fatalf("timeline length not reproducible: %d vs %d", len(a.Timeline), len(b.Timeline))
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			t.Fatalf("timeline[%d] not reproducible: %+v vs %+v", i, a.Timeline[i], b.Timeline[i])
		}
	}
}

// TestFailoverBitIdenticalOutputs: a permanent GPU outage forces every
// GPU-placed subgraph to fail over mid-request; the outputs must be
// bit-identical to the no-fault all-CPU run.
func TestFailoverBitIdenticalOutputs(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	n := e.NumSubgraphs()
	want, err := e.Run(inputs, Uniform(n, device.CPU), true)
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicy()
	pol.MaxRetries = 1
	pol.Injector = faults.New(1, faults.Outage(device.GPU, 0, 0))
	got, err := e.RunWithPolicy(inputs, Placement{device.CPU, device.GPU, device.GPU}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.Failovers == 0 {
		t.Fatalf("expected failovers under permanent GPU outage: %+v", got.Faults)
	}
	if got.Faults.FinalPlacement.String() != "CCC" {
		t.Fatalf("final placement = %s, want CCC", got.Faults.FinalPlacement)
	}
	for i := range want.Outputs {
		if !tensor.AllClose(got.Outputs[i], want.Outputs[i], 0, 0) {
			t.Fatalf("output %d differs from no-fault single-device run", i)
		}
	}
}

// TestRetryBackoffAccounting: table-driven check that retries, failovers,
// and exponential backoff intervals are charged to the virtual clock exactly
// as configured. A certain kernel failure on the GPU makes every GPU attempt
// fail deterministically on the noiseless engine.
func TestRetryBackoffAccounting(t *testing.T) {
	cases := []struct {
		name    string
		retries int
		backoff vclock.Seconds
		factor  float64
	}{
		{"no-retries", 0, 0, 0},
		{"two-retries-50us-x2", 2, 50e-6, 2},
		{"three-retries-10us-x3", 3, 10e-6, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := branchy(t)
			e := newEngine(t, p, 0)
			pol := Policy{
				Injector:      faults.New(3, faults.KernelFailures(device.GPU, 1)),
				MaxRetries:    tc.retries,
				Backoff:       tc.backoff,
				BackoffFactor: tc.factor,
				Failover:      true,
				// Breaker off so the accounting is pure retry+failover.
			}
			// Only the middle subgraph is on the GPU.
			res, err := e.RunWithPolicy(nil, Placement{device.CPU, device.GPU, device.CPU}, pol)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Faults
			if rep.Retries != tc.retries {
				t.Fatalf("retries = %d, want %d", rep.Retries, tc.retries)
			}
			if rep.Failovers != 1 || rep.KernelFaults != tc.retries+1 {
				t.Fatalf("failovers=%d kernelFaults=%d, want 1 and %d", rep.Failovers, rep.KernelFaults, tc.retries+1)
			}
			if rep.FinalPlacement.String() != "CCC" {
				t.Fatalf("final placement = %s", rep.FinalPlacement)
			}
			// Backoff spans follow the exponential schedule exactly.
			var backoffs []vclock.Seconds
			for _, s := range res.Timeline {
				if strings.HasPrefix(s.Label, "backoff:") {
					backoffs = append(backoffs, s.End-s.Start)
				}
			}
			wantSpans := tc.retries
			if tc.backoff == 0 {
				wantSpans = 0
			}
			if len(backoffs) != wantSpans {
				t.Fatalf("backoff spans = %d, want %d", len(backoffs), wantSpans)
			}
			for k, b := range backoffs {
				want := tc.backoff * vclock.Seconds(math.Pow(tc.factor, float64(k)))
				if math.Abs(b-want) > 1e-15 {
					t.Fatalf("backoff %d = %v, want %v", k, b, want)
				}
			}
			// The failed attempts occupied the GPU: its fault spans plus
			// backoffs all precede the successful CPU execution of the
			// migrated subgraph.
			var faultSpans int
			for _, s := range res.Timeline {
				if strings.HasPrefix(s.Label, "fault:kernel:") {
					faultSpans++
				}
			}
			if faultSpans != tc.retries+1 {
				t.Fatalf("fault spans = %d, want %d", faultSpans, tc.retries+1)
			}
		})
	}
}

// TestExhaustionReturnsPartialResult: with failover disabled and a certain
// kernel failure, the run aborts with ErrExhausted and reports the virtual
// time wasted so far (for whole-request abort-and-retry baselines).
func TestExhaustionReturnsPartialResult(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	pol := Policy{
		Injector:   faults.New(3, faults.KernelFailures(device.GPU, 1)),
		MaxRetries: 1,
		Backoff:    10e-6,
	}
	res, err := e.RunWithPolicy(nil, Placement{device.CPU, device.GPU, device.CPU}, pol)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if res == nil || res.Latency <= 0 {
		t.Fatalf("partial result should carry the wasted virtual time, got %+v", res)
	}
}

// TestBreakerDegradesRemaining: after the threshold of consecutive GPU
// failures, the remaining placement degrades to the CPU without attempting
// the dead device.
func TestBreakerDegradesRemaining(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	pol := Policy{
		Injector:         faults.New(1, faults.Outage(device.GPU, 0, 0)),
		MaxRetries:       0,
		Failover:         true,
		BreakerThreshold: 2,
		Probation:        1, // far beyond the run, so no re-admission
	}
	res, err := e.RunWithPolicy(nil, Uniform(e.NumSubgraphs(), device.GPU), pol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if rep.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("no subgraph was degraded to the surviving device: %+v", rep)
	}
	if rep.FinalPlacement.String() != "CCC" {
		t.Fatalf("final placement = %s, want CCC", rep.FinalPlacement)
	}
	// Degraded subgraphs skipped the dead device entirely: exactly
	// threshold-many outage faults (here boundary transfers toward the dead
	// GPU) before the breaker cut further attempts.
	outages := 0
	for _, s := range res.Timeline {
		if strings.HasPrefix(s.Label, "fault:outage:") {
			outages++
		}
	}
	if outages != pol.BreakerThreshold {
		t.Fatalf("outage fault spans = %d, want %d (breaker should cut further attempts)", outages, pol.BreakerThreshold)
	}
}

// TestProbationReadmission: a transient outage trips the breaker; once the
// probation window and the outage both pass, a probe subgraph is re-admitted
// to the recovered device.
func TestProbationReadmission(t *testing.T) {
	p, _ := branchy(t)
	e := newEngine(t, p, 0)
	pol := Policy{
		// GPU is down only for the first 10 µs of the run; the ~40 µs CPU
		// execution of the failed-over first subgraph outlasts both the
		// outage and the probation window.
		Injector:         faults.New(1, faults.Outage(device.GPU, 0, 10e-6)),
		MaxRetries:       0,
		Failover:         true,
		BreakerThreshold: 1,
		Probation:        20e-6,
	}
	res, err := e.RunWithPolicy(nil, Uniform(e.NumSubgraphs(), device.GPU), pol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if rep.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", rep)
	}
	if rep.Readmissions == 0 {
		t.Fatalf("probe never re-admitted the recovered device: %+v", rep)
	}
	if !strings.Contains(rep.FinalPlacement.String(), "G") {
		t.Fatalf("no subgraph returned to the GPU after recovery: %s", rep.FinalPlacement)
	}
}

// TestRunValidatesPlacementKinds: corrupted placements error descriptively
// instead of panicking, in every entry point that takes a placement.
func TestRunValidatesPlacementKinds(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	bad := Placement{device.CPU, device.Kind(7), device.GPU}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := e.Run(nil, bad, false); return err }},
		{"RunWithPolicy", func() error { _, err := e.RunWithPolicy(nil, bad, DefaultPolicy()); return err }},
		{"RunParallel", func() error { _, err := e.RunParallel(inputs, bad); return err }},
		{"MeasureLatency", func() error { _, err := e.MeasureLatency(bad, 1); return err }},
		{"MeasurePipelined", func() error { _, err := e.MeasurePipelined(bad, 2); return err }},
		{"Memory", func() error { _, err := e.Memory(bad); return err }},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "unknown device kind") {
			t.Fatalf("%s error = %v", c.name, err)
		}
	}
}

// TestPlacementStringUnknownKind: unknown kinds render as '?'.
func TestPlacementStringUnknownKind(t *testing.T) {
	p := Placement{device.CPU, device.Kind(9), device.GPU}
	if p.String() != "C?G" {
		t.Fatalf("String = %q, want C?G", p.String())
	}
}

// TestHealthTrackerConcurrent exercises the shared tracker from many
// goroutines (run under -race via make check).
func TestHealthTrackerConcurrent(t *testing.T) {
	h := NewHealthTracker(3, 1e-3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := device.Kind(w % 2)
			for i := 0; i < 1000; i++ {
				now := vclock.Seconds(i) * 1e-5
				if h.Available(kind, now) {
					if i%3 == 0 {
						h.Failure(kind, now)
					} else {
						h.Success(kind)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Trips and readmissions stay consistent counters.
	if h.Trips() < 0 || h.Readmissions() < 0 {
		t.Fatalf("negative counters")
	}
}

// TestHealthTrackerStateMachine walks the closed→open→half-open→closed
// cycle deterministically.
func TestHealthTrackerStateMachine(t *testing.T) {
	h := NewHealthTracker(2, 10)
	if !h.Available(device.GPU, 0) {
		t.Fatalf("fresh tracker should be available")
	}
	if h.Failure(device.GPU, 1) {
		t.Fatalf("first failure must not trip a threshold-2 breaker")
	}
	if !h.Failure(device.GPU, 2) {
		t.Fatalf("second failure must trip")
	}
	if h.Available(device.GPU, 5) {
		t.Fatalf("open breaker inside probation should be unavailable")
	}
	if h.Available(device.CPU, 5) != true {
		t.Fatalf("other device unaffected")
	}
	if !h.Available(device.GPU, 13) {
		t.Fatalf("expired probation should admit a probe")
	}
	// Probe failure re-opens for a fresh window.
	if !h.Failure(device.GPU, 13) {
		t.Fatalf("probe failure should re-trip")
	}
	if h.Available(device.GPU, 14) {
		t.Fatalf("re-opened breaker should be unavailable")
	}
	if !h.Available(device.GPU, 24) {
		t.Fatalf("second probation expiry should admit")
	}
	h.Success(device.GPU)
	if h.Readmissions() != 1 {
		t.Fatalf("readmissions = %d, want 1", h.Readmissions())
	}
	if !h.Available(device.GPU, 25) {
		t.Fatalf("closed breaker should be available")
	}
	if h.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", h.Trips())
	}
	// Disabled tracker never trips.
	d := NewHealthTracker(0, 1)
	for i := 0; i < 10; i++ {
		if d.Failure(device.GPU, vclock.Seconds(i)) {
			t.Fatalf("disabled tracker tripped")
		}
	}
	if !d.Available(device.GPU, 100) {
		t.Fatalf("disabled tracker should always be available")
	}
}
