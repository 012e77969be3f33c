package runtime

import (
	"duet/internal/queue"
	"duet/internal/tensor"
)

// RunParallel executes the placement with real host concurrency on a
// LaneSet opened for this one dataflow: one worker per device fires
// subgraphs as their dependencies resolve. The firing rule is Run's, so
// outputs are identical to Run's and cross-subgraph intermediates return to
// the arena exactly as in Run. Reported virtual time comes from the same
// deterministic timing pass (host wall-clock parallelism does not affect the
// modelled latency, it just computes values faster on multi-core hosts). It
// is counted under path="parallel", apart from Run's series, so one parallel
// run does not shift Run's latency histogram.
func (e *Engine) RunParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, error) {
	res, _, err := e.runParallel(inputs, place)
	if err != nil {
		e.m.runErrors.Inc()
		return nil, err
	}
	e.m.parallelRuns.Inc()
	e.m.parallelLatency.Observe(res.Latency)
	e.recordPanels()
	return res, nil
}

// runParallel is RunParallel before it is counted as a run or a run error,
// also reporting what each lane's parking consumer did (scheduling-dependent,
// so it is not in the registry).
func (e *Engine) runParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, []queue.Stats, error) {
	d, err := e.NewDataflow(inputs, e.arena)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.run(nil, place, false)
	if err != nil {
		return nil, nil, err
	}
	// The memory gauges are read before the workers start: two lanes drawing
	// from one arena make its hit and miss counts scheduling-dependent, and
	// the obs suite's golden table pins the registry.
	e.m.recordMemory(e.arena)

	ls := OpenLanes(1, len(e.subgraphs), e.m.syncQueues[:])
	err = ls.Submit(d, place, func() {})
	lanes := ls.Close()
	if err != nil {
		return nil, lanes, err
	}
	if err := d.Err(); err != nil {
		return nil, lanes, err
	}
	res.Outputs = d.Outputs()
	return res, lanes, nil
}
