package runtime

import (
	"fmt"
	"sync"

	"duet/internal/device"
	"duet/internal/queue"
	"duet/internal/tensor"
)

// RunParallel executes the placement with real host concurrency: one worker
// goroutine per device consumes subgraph jobs from its synchronization
// queue as dependencies resolve and executes their tensor math — the
// paper's two-worker executor (§IV-D, Fig. 9), except that a worker whose
// queue stays empty parks instead of polling on: the paper gives each
// worker a dedicated core, and here a spinning idle lane takes a core from
// the other lane's kernels. Outputs are identical to Run's, and
// cross-subgraph intermediates return to the arena exactly as in Run;
// reported virtual time comes from the same deterministic timing pass (host
// wall-clock parallelism does not affect the modelled latency, it just
// computes values faster on multi-core hosts).
func (e *Engine) RunParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, error) {
	res, _, err := e.runParallel(inputs, place)
	return res, err
}

// runParallel is RunParallel, also reporting what each lane's parking
// consumer did (scheduling-dependent, so it is not in the registry).
func (e *Engine) runParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, [2]queue.Stats, error) {
	var lanes [2]queue.Stats
	timing, err := e.Run(nil, place, false)
	if err != nil {
		return nil, lanes, err
	}

	n := len(e.subgraphs)
	values, err := e.bindInputs(inputs)
	if err != nil {
		return nil, lanes, err
	}

	// Dependency bookkeeping: pending[i] counts unresolved producer
	// subgraphs; the skeleton's Dependents[p] lists consumers of p's
	// outputs. Both derive from the compiled sync plan — the same artifact
	// the happens-before verifier proves sufficient (verify.CheckHB), so the
	// executor's firing rule and the static proof obligation cannot drift
	// apart.
	pending := append([]int(nil), e.Skeleton.Pending...)
	var uses []int // remaining consumers per value, as in execute
	if e.arena != nil {
		uses = append(uses, e.Skeleton.uses...)
	}

	// One shared-memory synchronization queue per device worker (§IV-D:
	// "the synchronization queue is implemented as a shared memory queue
	// for high efficiency"). A worker polls it briefly, as the paper's
	// executor does, and parks when nothing arrives (queue.PopWait).
	queues := [2]*queue.Queue{queue.New(n + 1), queue.New(n + 1)}
	for kind, q := range queues {
		q.Instrument(e.m.syncQueues[kind])
	}
	var mu sync.Mutex              // guards values, pending and uses
	var wg, workers sync.WaitGroup // jobs outstanding; worker goroutines alive
	wg.Add(n)
	errCh := make(chan error, n)

	enqueue := func(i int) { queues[place[i]].MustPush(i) }

	worker := func(kind device.Kind) {
		defer workers.Done()
		for {
			i, done := queues[kind].PopWait()
			if done {
				return
			}
			sub := e.subgraphs[i]
			mu.Lock()
			subIn := e.subInputs(i, values)
			mu.Unlock()
			outs, err := e.modules[i].ExecuteArena(subIn, e.arena)
			if err != nil {
				// Record the failure but keep the pipeline draining:
				// dependents receive zero placeholders so every queued job
				// completes and Wait cannot deadlock. The error is returned
				// after the drain.
				errCh <- fmt.Errorf("runtime: executing %s: %w", sub.Graph.Name, err)
				outs = make([]*tensor.Tensor, len(sub.Outputs))
				for oi, pid := range sub.Outputs {
					outs[oi] = tensor.New(e.Parent.Node(pid).Shape...)
				}
			}
			mu.Lock()
			for oi, v := range e.Skeleton.produces[i] {
				values[v] = outs[oi]
			}
			if uses != nil {
				e.releaseConsumed(e.Skeleton.consumes[i], uses, values)
			}
			var nowReady []int
			for _, c := range e.Skeleton.Dependents[i] {
				pending[c]--
				if pending[c] == 0 {
					nowReady = append(nowReady, c)
				}
			}
			mu.Unlock()
			for _, c := range nowReady {
				enqueue(c)
			}
			wg.Done()
		}
	}
	// Seed the queues before the workers start so the initial pending reads
	// race with nothing (queues are buffered to n, so this cannot block).
	for _, i := range e.Skeleton.Roots {
		enqueue(i)
	}
	workers.Add(2)
	go worker(device.CPU)
	go worker(device.GPU)
	wg.Wait()
	for _, q := range queues {
		q.Close()
	}
	workers.Wait()
	for kind, q := range queues {
		lanes[kind] = q.Stats()
	}
	select {
	case err := <-errCh:
		return nil, lanes, err
	default:
	}

	res := &Result{Latency: timing.Latency, Timeline: timing.Timeline}
	for _, v := range e.Skeleton.outputs {
		res.Outputs = append(res.Outputs, values[v])
	}
	return res, lanes, nil
}
