// Serving: an online-inference queueing study. The paper motivates DUET
// with latency SLAs for online serving (§II-A); this example feeds a DUET
// engine a Poisson request stream on the virtual clock and reports waiting
// + service percentiles against the SLA for increasing offered load,
// comparing DUET's placement with single-device TVM-GPU execution.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"duet"
)

func main() {
	var (
		requests = flag.Int("requests", 4000, "requests per load point")
		slaMs    = flag.Float64("sla", 15, "latency SLA in milliseconds")
	)
	flag.Parse()

	g, err := duet.WideDeep(duet.DefaultWideDeep())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := duet.Build(g, duet.DefaultConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	reg := duet.NewMetrics()
	engine.Instrument(reg)
	n := engine.Runtime.NumSubgraphs()
	gpuPlace := make(duet.Placement, n)
	for i := range gpuPlace {
		gpuPlace[i] = duet.GPU
	}

	fmt.Printf("Wide&Deep serving, SLA %.0f ms, %d requests per point\n\n", *slaMs, *requests)
	fmt.Printf("%8s | %22s | %22s\n", "", "DUET", "TVM-GPU")
	fmt.Printf("%8s | %7s %7s %6s | %7s %7s %6s\n", "load", "p50", "p99", "SLA%", "p50", "p99", "SLA%")

	duetSvc := func() (duet.Seconds, error) {
		res, err := engine.Runtime.Run(nil, engine.Placement, false)
		if err != nil {
			return 0, err
		}
		return res.Latency, nil
	}
	gpuSvc := func() (duet.Seconds, error) {
		res, err := engine.Runtime.Run(nil, gpuPlace, false)
		if err != nil {
			return 0, err
		}
		return res.Latency, nil
	}

	for _, qps := range []float64{25, 50, 75, 100, 125, 150} {
		d, err := simulate(duetSvc, qps, *requests, 1)
		if err != nil {
			log.Printf("load %.0f/s: DUET run failed, skipping point: %v", qps, err)
			continue
		}
		gp, err := simulate(gpuSvc, qps, *requests, 2)
		if err != nil {
			log.Printf("load %.0f/s: TVM-GPU run failed, skipping point: %v", qps, err)
			continue
		}
		fmt.Printf("%5.0f/s | %6.2fms %6.2fms %5.1f%% | %6.2fms %6.2fms %5.1f%%\n",
			qps,
			d.p50*1e3, d.p99*1e3, d.slaFrac(*slaMs)*100,
			gp.p50*1e3, gp.p99*1e3, gp.slaFrac(*slaMs)*100)
	}
	fmt.Println("\nDUET's lower service time keeps the queue stable at loads where the")
	fmt.Println("single-device server saturates and response times blow up.")
	liveTable(reg)
}

// liveTable renders the engine's cumulative metrics from a registry
// snapshot — the view a serving dashboard would poll between load points.
func liveTable(reg *duet.Metrics) {
	s := reg.Snapshot()
	fmt.Println("\nengine metrics (cumulative):")
	fmt.Printf("  %-34s %12s\n", "series", "value")
	for _, name := range []string{
		`duet_runs_total{path="run"}`,
		"duet_run_errors_total",
	} {
		if v, ok := s.Counters[name]; ok && v != 0 {
			fmt.Printf("  %-34s %12d\n", name, v)
		}
	}
	for _, name := range []string{
		`duet_device_busy_seconds_total{device="cpu0"}`,
		`duet_device_busy_seconds_total{device="gpu0"}`,
		`duet_device_busy_seconds_total{device="pcie3"}`,
	} {
		if v, ok := s.Gauges[name]; ok {
			fmt.Printf("  %-34s %11.3fs\n", name, v)
		}
	}
	hists := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-34s n=%d p50=%.2fms p99=%.2fms p99.9=%.2fms\n",
			name, h.Count, h.P50*1e3, h.P99*1e3, h.P999*1e3)
	}
}

type result struct {
	responses []float64
	p50, p99  float64
}

func (r result) slaFrac(slaMs float64) float64 {
	if len(r.responses) == 0 {
		return 0
	}
	ok := 0
	for _, t := range r.responses {
		if t*1e3 <= slaMs {
			ok++
		}
	}
	return float64(ok) / float64(len(r.responses))
}

// simulate runs an M/G/1 queue: Poisson arrivals at qps, service sampled
// from the provided sampler on the engine's virtual clock, FIFO single
// server (the engine serves one request at a time, like the paper's
// deployment). A sampler error aborts only this load point; the caller
// decides whether to continue the sweep.
func simulate(service func() (duet.Seconds, error), qps float64, n int, seed int64) (result, error) {
	if n <= 0 {
		return result{}, fmt.Errorf("simulate: need at least one request, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	arrival := 0.0
	serverFree := 0.0
	responses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		arrival += rng.ExpFloat64() / qps
		svc, err := service()
		if err != nil {
			return result{}, fmt.Errorf("simulate: request %d: %w", i, err)
		}
		start := math.Max(arrival, serverFree)
		finish := start + svc
		serverFree = finish
		responses = append(responses, finish-arrival)
	}
	s, ok := duet.TrySummarize(responses)
	if !ok {
		return result{}, fmt.Errorf("simulate: no responses collected")
	}
	return result{
		responses: responses,
		p50:       s.P50,
		p99:       s.P99,
	}, nil
}
