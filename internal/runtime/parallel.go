package runtime

import (
	"sync"

	"duet/internal/device"
	"duet/internal/queue"
	"duet/internal/tensor"
)

// RunParallel executes the placement with real host concurrency: one worker
// goroutine per device consumes subgraph jobs from its synchronization
// queue as dependencies resolve and fires them (Dataflow.Fire) — the
// paper's two-worker executor (§IV-D, Fig. 9), except that a worker whose
// queue stays empty parks instead of polling on: the paper gives each
// worker a dedicated core, and here a spinning idle lane takes a core from
// the other lane's kernels. The firing rule is Run's, so outputs are
// identical to Run's and cross-subgraph intermediates return to the arena
// exactly as in Run; only the transport — which lane's queue carries a ready
// index — is this file's. Reported virtual time comes from the same
// deterministic timing pass (host wall-clock parallelism does not affect the
// modelled latency, it just computes values faster on multi-core hosts).
func (e *Engine) RunParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, error) {
	res, _, err := e.runParallel(inputs, place)
	if err != nil {
		e.m.runErrors.Inc()
		return nil, err
	}
	e.m.runs.Inc()
	e.m.latency.Observe(res.Latency)
	return res, nil
}

// runParallel is RunParallel before it is counted as a run or a run error,
// also reporting what each lane's parking consumer did (scheduling-dependent,
// so it is not in the registry).
func (e *Engine) runParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, [2]queue.Stats, error) {
	var lanes [2]queue.Stats
	d, err := e.NewDataflow(inputs, e.arena)
	if err != nil {
		return nil, lanes, err
	}
	res, err := e.run(nil, place, false)
	if err != nil {
		return nil, lanes, err
	}
	// The memory gauges are read before the workers start: two lanes drawing
	// from one arena make its hit and miss counts scheduling-dependent, and
	// BENCH_obs.json snapshots the registry.
	e.m.recordMemory(e.arena)

	// One shared-memory synchronization queue per device worker (§IV-D:
	// "the synchronization queue is implemented as a shared memory queue
	// for high efficiency"). A worker polls it briefly, as the paper's
	// executor does, and parks when nothing arrives (queue.PopWait).
	n := len(e.subgraphs)
	queues := [2]*queue.Queue{queue.New(n + 1), queue.New(n + 1)}
	for kind, q := range queues {
		q.Instrument(e.m.syncQueues[kind])
	}
	var workers sync.WaitGroup
	worker := func(kind device.Kind) {
		defer workers.Done()
		for {
			i, done := queues[kind].PopWait()
			if done {
				return
			}
			ready, last := d.Fire(i)
			for _, c := range ready {
				queues[place[c]].MustPush(c)
			}
			if last {
				// Nothing is left to push: wake both lanes to exit.
				for _, q := range queues {
					q.Close()
				}
			}
		}
	}
	// Seed the queues before the workers start (they are buffered to n, so
	// this cannot block).
	for _, i := range e.Skeleton.Roots {
		queues[place[i]].MustPush(i)
	}
	workers.Add(2)
	go worker(device.CPU)
	go worker(device.GPU)
	workers.Wait()
	for kind, q := range queues {
		lanes[kind] = q.Stats()
	}
	if err := d.Err(); err != nil {
		return nil, lanes, err
	}
	res.Outputs = d.Outputs()
	return res, lanes, nil
}
