package runtime

import (
	"fmt"
	"math"

	"duet/internal/device"
	"duet/internal/vclock"
)

// RunConcurrent executes the placement with intra-device concurrency — the
// paper's footnote-2 extension where multiple independent subgraphs may
// execute concurrently *within* one device. Each device is modelled as a
// processor-sharing server: the k subgraphs resident on a device at an
// instant each progress at 1/k of its throughput (work-conserving), and a
// subgraph starts the moment its inputs are available rather than when the
// device drains its queue. Timing-only; real values come from Run.
func (e *Engine) RunConcurrent(place Placement) (*Result, error) {
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}

	n := len(e.subgraphs)
	// Service demand per subgraph on its assigned device.
	demand := make([]vclock.Seconds, n)
	cost := e.Sampler(e.Platform, false)
	for i := range demand {
		demand[i], _ = cost.Kernels(i, int(place[i]), 0)
		demand[i] += syncQueueOverhead
	}

	// waiting counts unresolved boundary inputs per subgraph; readyAt is
	// the max availability time seen so far.
	sk := e.Skeleton
	waiting := make([]int, n)
	readyAt := make([]vclock.Seconds, n)
	res := &Result{}
	link := e.Platform.Link

	// arrive folds in value v — published at t — becoming usable by
	// consumer i, after a transfer when its home device differs.
	arrive := func(v int, t vclock.Seconds, i int) {
		src, dst := device.Kind(sk.home(v, place)), place[i]
		if src != dst {
			dur := link.SampleTransferTime(sk.bytes[v])
			res.Timeline = append(res.Timeline, Span{
				Label:  fmt.Sprintf("xfer:%s→%s:%s", src, dst, sk.names[v]),
				Device: link.Name,
				Start:  t,
				End:    t + dur,
			})
			t += dur
		}
		if t > readyAt[i] {
			readyAt[i] = t
		}
	}
	for i := range e.subgraphs {
		for _, v := range sk.consumes[i] {
			if sk.producer[v] < 0 {
				// Graph input: available on CPU at t=0.
				arrive(v, 0, i)
			} else {
				waiting[i]++
			}
		}
	}

	// Processor-sharing event loop.
	const inf = math.MaxFloat64
	remaining := append([]vclock.Seconds(nil), demand...)
	started := make([]vclock.Seconds, n)
	arrived := make([]bool, n)
	finished := make([]bool, n)
	finishAt := make([]vclock.Seconds, n)
	active := [2]map[int]bool{{}, {}}

	arrivalTime := func(i int) vclock.Seconds {
		if arrived[i] || finished[i] || waiting[i] > 0 {
			return inf
		}
		return readyAt[i]
	}

	clock := vclock.Seconds(0)
	done := 0
	for done < n {
		// Next arrival.
		nextArr := vclock.Seconds(inf)
		arrIdx := -1
		for i := 0; i < n; i++ {
			if t := arrivalTime(i); t < nextArr {
				nextArr = t
				arrIdx = i
			}
		}
		// Next completion under current sharing rates.
		nextComp := vclock.Seconds(inf)
		compIdx := -1
		for d := 0; d < 2; d++ {
			k := len(active[d])
			if k == 0 {
				continue
			}
			for i := range active[d] {
				t := clock + remaining[i]*vclock.Seconds(k)
				if t < nextComp {
					nextComp = t
					compIdx = i
				}
			}
		}
		if arrIdx == -1 && compIdx == -1 {
			return nil, fmt.Errorf("runtime: deadlock in concurrent simulation (cyclic placement?)")
		}

		if nextArr <= nextComp {
			// Advance work to the arrival instant, then admit the job.
			advance(active, remaining, nextArr-clock)
			clock = nextArr
			arrived[arrIdx] = true
			started[arrIdx] = clock
			active[place[arrIdx]][arrIdx] = true
			continue
		}
		advance(active, remaining, nextComp-clock)
		clock = nextComp
		i := compIdx
		remaining[i] = 0
		finished[i] = true
		finishAt[i] = clock
		delete(active[place[i]], i)
		done++
		res.Timeline = append(res.Timeline, Span{
			Label:  e.subgraphs[i].Graph.Name + " [" + e.subgraphs[i].Summary() + "]",
			Device: e.Platform.Device(place[i]).Name,
			Start:  started[i],
			End:    clock,
		})
		// Publish to every consumer the sync plan signals, value by value
		// in its boundary-input order.
		for _, c := range sk.Dependents[i] {
			for _, v := range sk.consumes[c] {
				if sk.producer[v] == i {
					arrive(v, clock, c)
					waiting[c]--
				}
			}
		}
	}

	// Results return to the host.
	finish := vclock.Seconds(0)
	for _, v := range sk.outputs {
		var t vclock.Seconds
		if p := sk.producer[v]; p >= 0 {
			t = finishAt[p]
		}
		if sk.home(v, place) != hostLane {
			t += link.SampleTransferTime(sk.bytes[v])
		}
		if t > finish {
			finish = t
		}
	}
	res.Latency = finish
	return res, nil
}

// advance progresses every active job by dt of wall time under equal
// processor sharing.
func advance(active [2]map[int]bool, remaining []vclock.Seconds, dt vclock.Seconds) {
	if dt <= 0 {
		return
	}
	for d := 0; d < 2; d++ {
		k := vclock.Seconds(len(active[d]))
		if k == 0 {
			continue
		}
		for i := range active[d] {
			remaining[i] -= dt / k
			if remaining[i] < 0 {
				remaining[i] = 0
			}
		}
	}
}

// MeasureConcurrent samples end-to-end latency under intra-device
// concurrency.
func (e *Engine) MeasureConcurrent(place Placement, runs int) ([]vclock.Seconds, error) {
	return sampleLatency(runs, func() (*Result, error) { return e.RunConcurrent(place) })
}
