package runtime

import (
	"fmt"
	"sync"

	"duet/internal/queue"
)

// LaneSet is the paper's host executor (§IV-D, Fig. 9): one worker goroutine
// per roster lane, each draining its own shared-memory synchronization queue.
// A worker's loop is the one loop: pop a job, Fire it, push the dependents
// that became ready onto their lanes' queues, and hand a finished dataflow
// to its done callback. A worker whose queue stays empty parks
// (queue.PopWait) instead of polling on: the paper gives each worker a
// dedicated core, and here a spinning idle lane takes a core from the other
// lane's kernels.
//
// A set carries up to a fixed number of dataflows in flight at once, each in
// a slot of its flight table; a job is subgraph·flights + slot, so it names
// its flight and completion is per flight. RunParallel opens a set for one
// dataflow; a serve replica keeps one open across every batch it runs.
type LaneSet struct {
	queues  []*queue.Queue // one per lane
	flights []flight       // in-flight dataflows, by slot
	free    chan int       // free slots
	workers sync.WaitGroup
}

// flight is one in-flight dataflow: its value state, its placement, and what
// to call once its last subgraph has fired.
type flight struct {
	d     *Dataflow
	place Placement
	done  func()
}

// OpenLanes starts one worker per lane over queues of at least the given
// capacity, with room for flights dataflows in flight at once. ins holds one
// queue's instruments per lane; nil records nothing.
func OpenLanes(flights, capacity int, ins []queue.Instruments) *LaneSet {
	ls := &LaneSet{flights: make([]flight, flights), free: make(chan int, flights)}
	for slot := 0; slot < flights; slot++ {
		ls.free <- slot
	}
	for lane := 0; lane < Lanes; lane++ {
		q := queue.New(capacity)
		if ins != nil {
			q.Instrument(ins[lane])
		}
		ls.queues = append(ls.queues, q)
	}
	ls.workers.Add(len(ls.queues))
	for _, q := range ls.queues {
		go ls.work(q)
	}
	return ls
}

// Submit seeds d's roots on their lanes under place, waiting while every
// flight slot is taken. done runs on the worker that fires d's last
// subgraph, after d's slot is free again, so a caller woken by done can
// submit at once. Submit returns an error, and starts nothing, when the
// queues could not hold every flight at d's size: a worker must never find
// a dependent's queue full.
func (ls *LaneSet) Submit(d *Dataflow, place Placement, done func()) error {
	n, flights := len(d.e.subgraphs), len(ls.flights)
	if c := ls.queues[0].Cap(); n*flights > c {
		return fmt.Errorf("runtime: %d subgraphs × %d flights overflow lane queues of %d", n, flights, c)
	}
	slot := <-ls.free
	ls.flights[slot] = flight{d: d, place: place, done: done}
	for _, i := range d.e.Skeleton.Roots {
		ls.queues[place[i]].MustPush(i*flights + slot)
	}
	return nil
}

// work is one lane's worker. The flight is read before Fire: once the
// flight's last subgraph has fired its slot may be reused, and every Fire
// of the flight returns before that one.
func (ls *LaneSet) work(q *queue.Queue) {
	defer ls.workers.Done()
	flights := len(ls.flights)
	for {
		j, closed := q.PopWait()
		if closed {
			return
		}
		slot := j % flights
		f := ls.flights[slot]
		ready, last := f.d.Fire(j / flights)
		for _, c := range ready {
			ls.queues[f.place[c]].MustPush(c*flights + slot)
		}
		if last {
			// Drop the slot's references before it is reused, so a finished
			// dataflow, its buffers and its done closure do not stay
			// reachable from an idle set.
			ls.flights[slot] = flight{}
			ls.free <- slot
			f.done()
		}
	}
}

// Close waits for every submitted dataflow to complete, stops the workers,
// and returns what each lane's parking consumer did. Submit nothing after.
func (ls *LaneSet) Close() []queue.Stats {
	for range ls.flights {
		<-ls.free
	}
	for _, q := range ls.queues {
		q.Close()
	}
	ls.workers.Wait()
	stats := make([]queue.Stats, len(ls.queues))
	for lane, q := range ls.queues {
		stats[lane] = q.Stats()
	}
	return stats
}
