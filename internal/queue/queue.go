// Package queue provides the shared-memory synchronization queue of DUET's
// executor (§IV-D): a bounded lock-free multi-producer multi-consumer ring
// buffer (Vyukov's bounded MPMC queue). Each device worker consumes one
// queue; any worker may produce into any queue when it triggers a
// dependent subgraph, so the producer side must be multi-writer.
//
// The paper's workers poll their queue in a busy loop on dedicated cores.
// Pop is that poll; PopWait is the same poll for a host that has no core to
// spare per worker: it spins briefly, then parks until a Push or Close wakes
// it.
package queue

import (
	"fmt"
	"sync/atomic"

	"duet/internal/obs"
)

type cell struct {
	seq atomic.Uint64
	val int64
}

// Queue is a bounded lock-free MPMC queue of int job IDs.
// Construct with New; the zero value is not usable.
type Queue struct {
	cells  []cell
	mask   uint64
	head   atomic.Uint64 // next position to pop
	tail   atomic.Uint64 // next position to push
	closed atomic.Bool

	// Parking (PopWait): waiting is set by the one consumer that is about
	// to park, and cleared by whoever takes on waking it; wake carries that
	// wake-up (one slot: there is one parked consumer at most, and a stale
	// token only costs it a spurious re-poll).
	waiting    atomic.Bool
	wake       chan struct{}
	parks      atomic.Uint64
	emptyPolls atomic.Uint64

	ins Instruments
}

// Instruments are a queue's resolved metric handles. The zero value records
// nothing: recording through a nil instrument is a no-op, so the
// uninstrumented fast path pays only a nil check.
type Instruments struct {
	pushes   *obs.Counter
	pops     *obs.Counter
	depth    *obs.Gauge
	depthMax *obs.Gauge
}

// ResolveInstruments looks up the per-queue series under the given queue
// label: duet_queue_pushes_total / duet_queue_pops_total counters and the
// duet_queue_depth / duet_queue_depth_max gauges. A caller that builds
// queues per run resolves once and hands the result to each queue's
// Instrument.
func ResolveInstruments(reg *obs.Registry, name string) Instruments {
	return Instruments{
		pushes:   reg.Counter(obs.Series("duet_queue_pushes_total", "queue", name)),
		pops:     reg.Counter(obs.Series("duet_queue_pops_total", "queue", name)),
		depth:    reg.Gauge(obs.Series("duet_queue_depth", "queue", name)),
		depthMax: reg.Gauge(obs.Series("duet_queue_depth_max", "queue", name)),
	}
}

// Stats counts what the parking consumer did. These are scheduling-dependent
// (how often a Push found the consumer asleep), so they are a plain snapshot
// and deliberately not obs series: registry snapshots are committed as
// deterministic baselines.
type Stats struct {
	Parks      uint64 // times PopWait went to sleep on the wake channel
	EmptyPolls uint64 // polls of PopWait's spin phase that found nothing
}

// Stats returns the parking counters so far.
func (q *Queue) Stats() Stats {
	return Stats{Parks: q.parks.Load(), EmptyPolls: q.emptyPolls.Load()}
}

// New returns a queue with capacity rounded up to the next power of two.
// The minimum size is 2: the cell-sequence scheme cannot distinguish a
// full from an empty single-cell ring.
func New(capacity int) *Queue {
	if capacity < 2 {
		capacity = 2
	}
	size := 2
	for size < capacity {
		size <<= 1
	}
	q := &Queue{cells: make([]cell, size), mask: uint64(size - 1), wake: make(chan struct{}, 1)}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// Instrument attaches resolved metric handles. Attach before the queue is
// shared between goroutines (the handles are written without
// synchronization, exactly like the rest of construction).
func (q *Queue) Instrument(ins Instruments) { q.ins = ins }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return len(q.cells) }

// Len returns the approximate number of queued items.
func (q *Queue) Len() int {
	d := int64(q.tail.Load()) - int64(q.head.Load())
	if d < 0 {
		return 0
	}
	return int(d)
}

// Push enqueues v; it returns false when the queue is full or closed.
func (q *Queue) Push(v int) bool {
	if q.closed.Load() {
		return false
	}
	pos := q.tail.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				c.val = int64(v)
				c.seq.Store(pos + 1) // publish
				q.unpark()
				q.ins.pushes.Inc()
				d := float64(q.Len())
				q.ins.depth.Set(d)
				q.ins.depthMax.Max(d)
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			return false // full: consumer hasn't freed this cell yet
		default:
			pos = q.tail.Load()
		}
	}
}

// MustPush enqueues v and panics if the queue is full or closed — for
// callers that size the queue to the total job count up front (the engine
// does).
func (q *Queue) MustPush(v int) {
	if !q.Push(v) {
		panic(fmt.Sprintf("queue: push to full or closed queue (cap %d)", len(q.cells)))
	}
}

// Pop dequeues the next value. ok=false means the queue is currently empty;
// done=true additionally means the queue is closed and drained, so no
// further values will ever arrive.
func (q *Queue) Pop() (v int, ok, done bool) {
	pos := q.head.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1: // cell holds a published value
			if q.head.CompareAndSwap(pos, pos+1) {
				v = int(c.val)
				c.seq.Store(pos + uint64(len(q.cells))) // free the cell
				q.ins.pops.Inc()
				q.ins.depth.Set(float64(q.Len()))
				return v, true, false
			}
			pos = q.head.Load()
		case seq <= pos: // empty at this position
			if q.closed.Load() && q.tail.Load() == pos {
				return 0, false, true
			}
			return 0, false, false
		default:
			pos = q.head.Load()
		}
	}
}

// spinBound is how many consecutive empty polls PopWait makes before it
// parks: about 2 µs (an empty poll is 1.6–1.9 ns on the 2-vCPU 2.1 GHz Xeon
// this was written on), which keeps the paper's busy loop as the path for a
// job published right behind the previous one and is nothing next to the
// millisecond subgraphs between parks. It is not a tuned value, because the
// end-to-end numbers cannot resolve one: two 10-s bench runs each at 1 / 256 /
// 2048 / 32768 polls read infer_parallel_ms 54.0, 58.9 / 58.0, 52.0 / 57.1,
// 57.5 / 56.2, 54.7 on widedeep_b1, 9.3, 10.6 / 10.2, 10.0 / 9.8, 10.0 / 9.4,
// 9.6 on siamese_b1 and 8.9, 8.6 / 9.5, 8.3 / 8.3, 9.6 / 8.7, 9.6 on
// serve_widedeep_b8 — all inside the run-to-run spread, against 81–100 ms on
// widedeep_b1 for a worker that never parks. What the bound must not be is
// large: handing a job to a parked consumer costs ~93 µs here
// (BenchmarkPopWait: the runtime has to restart a sleeping thread), so
// spinning that long would be the break-even in theory, but it would hand
// the idle lane's core back to the poll loop this replaces.
const spinBound = 1024

// PopWait dequeues the next value, waiting for one if the queue is empty;
// done=true means the queue is closed and drained. It polls like the
// paper's busy loop for spinBound empty polls — a job pushed back to back
// with the previous one is picked up without a context switch — and then
// parks the goroutine, so an idle worker costs no CPU. At most one
// goroutine may be inside PopWait at a time; non-blocking Pops may run
// beside it.
func (q *Queue) PopWait() (v int, done bool) {
	for {
		for spin := 0; spin < spinBound; spin++ {
			v, ok, done := q.Pop()
			if ok || done {
				if spin > 0 {
					q.emptyPolls.Add(uint64(spin))
				}
				return v, done
			}
		}
		q.emptyPolls.Add(spinBound)
		// Publish the intent to park, then poll once more. A Push
		// publishes its cell and then loads waiting; this stores waiting
		// and then loads the cell. Whichever way the two interleave, either
		// the push sees the flag and sends the wake-up, or this poll sees
		// the value — dropping the re-poll loses the push that lands
		// between the last spin and the Store, and the consumer sleeps on a
		// non-empty queue for good.
		q.waiting.Store(true)
		if v, ok, done := q.Pop(); ok || done {
			q.waiting.Store(false)
			return v, done
		}
		q.parks.Add(1)
		<-q.wake
	}
}

// unpark hands a parked consumer its wake-up; with nobody waiting — the
// common case — it is one atomic load. Of the producers that see the flag,
// the one that clears it sends; the send cannot block because the slot is
// free whenever the flag is up, bar a stale token, which serves as well.
func (q *Queue) unpark() {
	if q.waiting.Load() && q.waiting.CompareAndSwap(true, false) {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// Close marks the end of the stream; pushes after Close return false, and
// a consumer parked in PopWait wakes to drain what is left and return done.
func (q *Queue) Close() {
	q.closed.Store(true)
	q.unpark()
}
