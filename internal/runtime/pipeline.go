package runtime

import "duet/internal/vclock"

// PipelineResult summarises a back-to-back multi-request run.
type PipelineResult struct {
	// Requests is the number of simulated requests.
	Requests int
	// Makespan is the time from the first request's start to the last
	// request's completion.
	Makespan vclock.Seconds
	// Throughput is Requests / Makespan in requests per second.
	Throughput float64
	// MeanLatency is the mean per-request completion time (queueing
	// included; all requests are available at t=0).
	MeanLatency vclock.Seconds
}

// MeasurePipelined simulates `requests` back-to-back inferences under the
// placement without resetting the device clocks between requests: request
// r+1's subgraphs queue behind request r's on each device, so a
// heterogeneous placement overlaps one request's CPU phase with the next
// request's GPU phase. This is the throughput view of co-execution — the
// latency view is Run. Timing-only.
func (e *Engine) MeasurePipelined(place Placement, requests int) (*PipelineResult, error) {
	// Full validation (length and device kinds), not just a length check: an
	// out-of-range kind would otherwise panic inside Platform.Device.
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}
	if requests < 1 {
		requests = 1
	}
	// One walk, begun once per request on clocks that are never reset.
	w := NewWalk(e.Skeleton, e.Sampler(e.Platform, false), nil)
	clocks := make([]vclock.Seconds, Lanes)
	var makespan, latencySum vclock.Seconds
	for r := 0; r < requests; r++ {
		w.Begin(clocks, 0)
		finish := w.Latency(place)
		latencySum += finish
		if finish > makespan {
			makespan = finish
		}
	}

	res := &PipelineResult{
		Requests:    requests,
		Makespan:    makespan,
		MeanLatency: latencySum / vclock.Seconds(requests),
	}
	if makespan > 0 {
		res.Throughput = float64(requests) / makespan
	}
	return res, nil
}
