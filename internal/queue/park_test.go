package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hangTimeout bounds every wait for one hand-off in these tests: a lost
// wake-up shows as a consumer asleep on a non-empty queue, which nothing but
// a deadline finds.
const hangTimeout = 5 * time.Second

// TestPopWaitNoLostWakeup: four producers against one PopWait consumer,
// 10⁵ items, every item received exactly once and each producer's items in
// the order it pushed them. The producers move in rounds: in round r the
// first 1 + r%4 of them push one item each, after a pause that varies from
// nothing to two spin phases, and then all four wait until the consumer
// has taken everything pushed so far. So the queue runs empty after every
// round, the next pushes land anywhere from the consumer's first spin poll to
// well after it has parked — including the few nanoseconds between its last
// empty poll and its waiter flag going up — and in a round with one pusher
// nobody else will push until that item is consumed: a wake-up lost there
// leaves all four producers waiting on a sleeping consumer, the test hangs
// and the deadline fails it. (Rounds with several pushers exercise the race
// between producers for the one wake-up instead.)
//
// Hand mutations, reverted before commit. (1) PopWait's re-poll after
// `q.waiting.Store(true)` deleted (park straight away): this test failed on
// the deadline in 9/9 plain runs and 4/4 under -race, asleep with one or two
// items queued after 290–32142 of the 10⁵ items; every other test in the
// package still passed. (2) Close's `q.unpark()` deleted: every test that
// ends with a consumer asleep fails on its deadline — this one after all 10⁵
// items, TestCloseWakesParkedConsumer and TestIdleConsumerPollsAreBounded.
func TestPopWaitNoLostWakeup(t *testing.T) {
	const producers = 4
	const rounds = 40000
	const total = rounds / producers * (1 + 2 + 3 + 4) // 10⁵
	q := New(8)
	var consumed atomic.Int64

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			idle := New(2)              // a pause is counted in empty polls, the consumer's own unit
			pushed, mine := int64(0), 0 // by everyone through this round; by p
			for r := 0; r < rounds; r++ {
				pushers := 1 + r%producers
				if p < pushers {
					for k := (r*7 + p*13) % (2 * spinBound); k > 0; k-- {
						idle.Pop()
					}
					q.MustPush(p<<20 | mine)
					mine++
				}
				pushed += int64(pushers)
				for consumed.Load() < pushed {
					runtime.Gosched()
				}
			}
		}(p)
	}
	go func() {
		pwg.Wait()
		q.Close()
	}()

	finished := make(chan string, 1)
	go func() {
		var next [producers]int
		for {
			v, done := q.PopWait()
			if done {
				finished <- ""
				return
			}
			// Sequence numbers per producer are dense and ascending, so
			// "next expected" is exactly-once and FIFO in one check.
			p, seq := v>>20, v&(1<<20-1)
			if p < 0 || p >= producers || seq != next[p] {
				finished <- "item lost, duplicated or out of its producer's order"
				return
			}
			next[p]++
			consumed.Add(1)
		}
	}()

	// A deadline on progress, not on the whole run: under -race the 10⁵
	// hand-offs take longer than any wait for a single one should.
	for last := int64(-1); ; {
		select {
		case msg := <-finished:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(hangTimeout):
			if n := consumed.Load(); n != last {
				last = n
				continue
			}
			t.Fatalf("lost wake-up: consumer asleep after %d of %d items, %d queued, stats %+v",
				last, total, q.Len(), q.Stats())
		}
		break
	}
	if n := consumed.Load(); n != total {
		t.Fatalf("received %d of %d items", n, total)
	}
	st := q.Stats()
	t.Logf("parks %d, empty polls %d", st.Parks, st.EmptyPolls)
	if st.Parks == 0 {
		t.Fatal("the consumer never parked; the test exercised only the spin phase")
	}
}

// waitParked returns once the queue's consumer has parked at least n times.
func waitParked(t *testing.T, q *Queue, n uint64) {
	t.Helper()
	deadline := time.Now().Add(hangTimeout)
	for q.Stats().Parks < n {
		if time.Now().After(deadline) {
			t.Fatalf("consumer did not park: %+v", q.Stats())
		}
		runtime.Gosched()
	}
}

// TestCloseWakesParkedConsumer: Close reaches a consumer that is already
// asleep, and it returns done.
func TestCloseWakesParkedConsumer(t *testing.T) {
	q := New(4)
	done := make(chan bool, 1)
	go func() {
		_, fin := q.PopWait()
		done <- fin
	}()
	waitParked(t, q, 1)
	q.Close()
	select {
	case fin := <-done:
		if !fin {
			t.Fatal("PopWait returned a value from an empty closed queue")
		}
	case <-time.After(hangTimeout):
		t.Fatal("Close did not wake the parked consumer")
	}
}

// TestCloseThenDrainPopWait: everything pushed before Close is still
// delivered, in order, before done.
func TestCloseThenDrainPopWait(t *testing.T) {
	q := New(8)
	for i := 0; i < 5; i++ {
		q.MustPush(i)
	}
	q.Close()
	for i := 0; i < 5; i++ {
		if v, done := q.PopWait(); done || v != i {
			t.Fatalf("pop %d after close = (%d, done %v)", i, v, done)
		}
	}
	if _, done := q.PopWait(); !done {
		t.Fatal("drained closed queue must report done")
	}
}

// TestIdleConsumerPollsAreBounded: a consumer with nothing to do polls at
// most spinBound times per wait and per park, however long it stays idle —
// the property that lets an idle device lane give its core away.
func TestIdleConsumerPollsAreBounded(t *testing.T) {
	const rounds = 50
	q := New(4)
	got := make(chan int)
	go func() {
		for {
			v, done := q.PopWait()
			if done {
				close(got)
				return
			}
			got <- v
		}
	}()
	recv := func() (int, bool) {
		select {
		case v, ok := <-got:
			return v, ok
		case <-time.After(hangTimeout):
			t.Fatalf("parked consumer was not woken: %+v", q.Stats())
			return 0, false
		}
	}
	for i := 0; i < rounds; i++ {
		waitParked(t, q, uint64(i+1))
		q.MustPush(i)
		if v, _ := recv(); v != i {
			t.Fatalf("round %d delivered %d", i, v)
		}
	}
	q.Close()
	if _, open := recv(); open {
		t.Fatal("consumer delivered a value after Close on an empty queue")
	}
	st := q.Stats()
	waits := uint64(rounds + 1)
	if st.Parks < rounds {
		t.Fatalf("parked %d times over %d idle rounds", st.Parks, rounds)
	}
	if limit := spinBound * (st.Parks + waits); st.EmptyPolls > limit {
		t.Fatalf("%d empty polls over %d parks and %d waits, want ≤ %d", st.EmptyPolls, st.Parks, waits, limit)
	}
}

// TestFastPathAllocFree: neither the producer's wake check nor the parking
// consumer's bookkeeping may put an allocation on the queue's hot path.
func TestFastPathAllocFree(t *testing.T) {
	q := New(8)
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	}); n != 0 {
		t.Fatalf("Push+Pop allocates %v objects", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.PopWait()
	}); n != 0 {
		t.Fatalf("Push+PopWait on a non-empty queue allocates %v objects", n)
	}
}

// BenchmarkPopWait prices the slow path: the producer waits until the
// consumer has parked, pushes one job and waits for it to be consumed, so
// every job pays a park and a wake-up — of the expensive kind, because the
// producer keeps its own thread busy and the runtime has to get a sleeping OS
// thread (here: a halted vCPU) going to run the consumer. spinBound's comment
// quotes the result. Needs two CPUs to mean anything; use a fixed -benchtime
// such as 20000x.
func BenchmarkPopWait(b *testing.B) {
	q := New(4)
	var consumed atomic.Int64
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			if _, done := q.PopWait(); done {
				return
			}
			consumed.Add(1)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q.Stats().Parks <= uint64(i) {
		}
		q.MustPush(i)
		for consumed.Load() <= int64(i) {
		}
	}
	b.StopTimer()
	q.Close()
	<-exited
}
