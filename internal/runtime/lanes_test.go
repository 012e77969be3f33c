package runtime

import (
	"sync"
	"testing"

	"duet/internal/device"
	"duet/internal/tensor"
)

// TestLaneSetMultiplexesDataflows: one set, two flights, dataflows of two
// engines submitted from several goroutines at once. Every dataflow's
// outputs must be Run's bit for bit, two of them must have been in flight
// together, and under an all-CPU placement the idle GPU lane must park.
// A dataflow the queues could not hold at the set's flight count is
// refused by Submit without disturbing the set.
func TestLaneSetMultiplexesDataflows(t *testing.T) {
	engines := []zooEngine{zooEngineNamed(t, "widedeep"), zooEngineNamed(t, "siamese")}
	const flights, submitters, rounds = 2, 4, 4
	capacity := 0
	for _, ze := range engines {
		capacity = max(capacity, flights*ze.e.NumSubgraphs())
	}
	for _, placeName := range []string{"chosen", "cpu"} {
		want := make([][]*tensor.Tensor, len(engines))
		for k, ze := range engines {
			res, err := ze.e.Run(ze.inputs, ze.places[placeName], true)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = res.Outputs
		}

		ls := OpenLanes(flights, capacity, nil)
		arena := tensor.NewArena()
		// live counts a flight from its Submit returning to its done, so
		// peak is a lower bound on the flights that were in flight at once.
		var mu sync.Mutex
		live, peak := 0, 0
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for r := 0; r < rounds; r++ {
					k := (g + r) % len(engines)
					ze := engines[k]
					d, err := ze.e.NewDataflow(ze.inputs, arena)
					if err != nil {
						t.Error(err)
						return
					}
					fin := make(chan struct{})
					done := func() {
						mu.Lock()
						live--
						mu.Unlock()
						close(fin)
					}
					if err := ls.Submit(d, ze.places[placeName], done); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					live++
					peak = max(peak, live)
					mu.Unlock()
					<-fin
					if err := d.Err(); err != nil {
						t.Errorf("%s/%s: %v", ze.name, placeName, err)
						return
					}
					for oi, o := range d.Outputs() {
						if !sameBits(o, want[k][oi]) {
							t.Errorf("%s/%s submitter %d round %d: output %d differs from Run's", ze.name, placeName, g, r, oi)
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		stats := ls.Close()
		if t.Failed() {
			t.FailNow()
		}
		if peak < 2 {
			t.Errorf("%s: at most %d dataflow in flight at once, want ≥ 2", placeName, peak)
		}
		if placeName == "cpu" && stats[device.GPU].Parks == 0 {
			t.Errorf("all-CPU: the idle GPU lane never parked: %+v", stats[device.GPU])
		}
	}

	// Overflow: a set sized for Siamese at two flights cannot hold two
	// Wide&Deep dataflows.
	wide, siamese := engines[0], engines[1]
	ls := OpenLanes(flights, flights*siamese.e.NumSubgraphs(), nil)
	if cap := ls.queues[0].Cap(); flights*wide.e.NumSubgraphs() <= cap {
		t.Fatalf("lane queues of %d hold %d Wide&Deep flights; the overflow case needs a smaller set", cap, flights)
	}
	d, err := wide.e.NewDataflow(wide.inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Submit(d, wide.places["chosen"], func() { t.Error("refused dataflow completed") }); err == nil {
		t.Fatal("Submit accepted a dataflow the lane queues cannot hold")
	}
	want, err := siamese.e.Run(siamese.inputs, siamese.places["chosen"], true)
	if err != nil {
		t.Fatal(err)
	}
	d, err = siamese.e.NewDataflow(siamese.inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fin := make(chan struct{})
	if err := ls.Submit(d, siamese.places["chosen"], func() { close(fin) }); err != nil {
		t.Fatalf("Submit after a refusal: %v", err)
	}
	<-fin
	ls.Close()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for oi, o := range d.Outputs() {
		if !sameBits(o, want.Outputs[oi]) {
			t.Fatalf("siamese after a refusal: output %d differs from Run's", oi)
		}
	}
}

// TestLaneSetClearsFreedSlot: once a dataflow's done has run, its flight
// slot holds nothing — no dataflow, placement or closure stays reachable
// from the set until the slot is reused.
func TestLaneSetClearsFreedSlot(t *testing.T) {
	ze := zooEngineNamed(t, "siamese")
	ls := OpenLanes(2, 2*ze.e.NumSubgraphs(), nil)
	defer ls.Close()
	d, err := ze.e.NewDataflow(ze.inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fin := make(chan struct{})
	if err := ls.Submit(d, ze.places["chosen"], func() { close(fin) }); err != nil {
		t.Fatal(err)
	}
	<-fin
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for slot, f := range ls.flights {
		if f.d != nil || f.place != nil || f.done != nil {
			t.Errorf("slot %d still holds its finished flight after done ran", slot)
		}
	}
}
