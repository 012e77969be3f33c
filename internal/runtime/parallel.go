package runtime

import (
	"fmt"
	"runtime"
	"sync"

	"duet/internal/device"
	"duet/internal/queue"
	"duet/internal/tensor"
)

// RunParallel executes the placement with real host concurrency: one worker
// goroutine per device consumes subgraph jobs from its synchronization
// queue as dependencies resolve and executes their tensor math — the
// paper's two-process busy-loop architecture (§IV-D, Fig. 9). Outputs are
// identical to Run's; reported virtual time comes from the same
// deterministic timing pass (host wall-clock parallelism does not affect
// the modelled latency, it just computes values faster on multi-core
// hosts).
func (e *Engine) RunParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, error) {
	timing, err := e.Run(nil, place, false)
	if err != nil {
		return nil, err
	}

	n := len(e.subgraphs)
	values, err := e.bindInputs(inputs)
	if err != nil {
		return nil, err
	}

	// Dependency bookkeeping: pending[i] counts unresolved producer
	// subgraphs; the skeleton's Dependents[p] lists consumers of p's
	// outputs. Both derive from the compiled sync plan — the same artifact
	// the happens-before verifier proves sufficient (verify.CheckHB), so the
	// executor's firing rule and the static proof obligation cannot drift
	// apart.
	pending := append([]int(nil), e.Skeleton.Pending...)

	// One shared-memory synchronization queue per device worker (§IV-D:
	// "the synchronization queue is implemented as a shared memory queue
	// for high efficiency"); workers poll in a busy loop exactly as the
	// paper's executor does.
	queues := [2]*queue.Queue{queue.New(n + 1), queue.New(n + 1)}
	if e.m.reg != nil {
		queues[device.CPU].Instrument(e.m.reg, e.Platform.Device(device.CPU).Name)
		queues[device.GPU].Instrument(e.m.reg, e.Platform.Device(device.GPU).Name)
	}
	var mu sync.Mutex // guards values and pending
	var wg sync.WaitGroup
	wg.Add(n)
	errCh := make(chan error, n)

	enqueue := func(i int) { queues[place[i]].MustPush(i) }

	worker := func(kind device.Kind) {
		for {
			i, ok, done := queues[kind].Pop()
			if done {
				return
			}
			if !ok {
				runtime.Gosched()
				continue
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
	go worker(device.CPU)
	go worker(device.GPU)
	wg.Wait()
	queues[device.CPU].Close()
	queues[device.GPU].Close()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := &Result{Latency: timing.Latency, Timeline: timing.Timeline}
	for _, v := range e.Skeleton.outputs {
		res.Outputs = append(res.Outputs, values[v])
	}
	return res, nil
}
