package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPackedPanelsHaveNoCapacityCliff: a weight set whose panels outgrow
// any fixed budget (68 MiB here; the LRU this replaced held 64 MiB and
// missed on every call of such a sweep) is packed once and then only read.
// Single-output layers keep the test small: a 1×K weight pads to nr columns.
func TestPackedPanelsHaveNoCapacityCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("holds 68 MiB of panels")
	}
	const weights, k = 34, 1 << 16
	rng := rand.New(rand.NewSource(33))
	x := Rand(rng, 1, 1, k)
	ws := make([]*Tensor, weights)
	for i := range ws {
		ws[i] = Rand(rng, 1, 1, k).MarkPinned()
	}
	out := New(1, 1)
	sweep := func() {
		for _, w := range ws {
			LinearInto(out, x, w, nil, nil)
		}
	}
	ResetPackCache()
	sweep()
	cold := PackCacheSnapshot()
	if cold.Bytes <= 64<<20 {
		t.Fatalf("panels total %d bytes; the test needs more than 64 MiB", cold.Bytes)
	}
	sweep()
	warm := PackCacheSnapshot()
	if warm.Misses != cold.Misses || warm.Hits-cold.Hits != weights {
		t.Fatalf("second sweep: want 0 misses + %d hits, got %+v -> %+v", weights, cold, warm)
	}
	if warm.Entries != weights || warm.Bytes != cold.Bytes {
		t.Fatalf("residency moved on a warm sweep: %+v -> %+v", cold, warm)
	}
	if allocs := testing.AllocsPerRun(10, func() { LinearInto(out, x, ws[0], nil, nil) }); allocs != 0 {
		t.Fatalf("warm LinearInto allocates %.0f objects, want 0", allocs)
	}
}

// TestPackedPanelsConcurrentFirstUse: replicas that meet on a cold weight
// all compute the serial bits and leave one resident panel per layout, and
// re-dimensioned views racing with them never hand a kernel a panel packed
// for other dimensions.
func TestPackedPanelsConcurrentFirstUse(t *testing.T) {
	const workers = 8
	rng := rand.New(rand.NewSource(34))
	w := Rand(rng, 1, 48, 40)
	xt := Rand(rng, 1, 3, 40) // Linear: w as transposed B
	xr := Rand(rng, 1, 3, 48) // MatMul: w as row-major B
	xv := Rand(rng, 1, 3, 80) // Linear on a 24×80 view of w: same slot, other dims
	wantT, wantR := LinearInto(nil, xt, w, nil, nil), MatMulInto(nil, xr, w, nil)
	wantV := LinearInto(nil, xv, w.Reshape(24, 80), nil, nil)
	w.MarkPinned()
	view := w.Reshape(48, 40)

	ResetPackCache()
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < workers; g++ {
		b := w
		if g%2 == 1 {
			b = view
		}
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if !bitEqual(LinearInto(nil, xt, b, nil, nil), wantT) || !bitEqual(MatMulInto(nil, xr, b, nil), wantR) {
				t.Error("cold concurrent product differs from the serial result")
			}
		}()
	}
	start.Done()
	done.Wait()
	want := int64(4 * (packedSize(40, 48) + packedSize(48, 40)))
	if st := PackCacheSnapshot(); st.Entries != 2 || st.Bytes != want {
		t.Fatalf("want one panel per layout (2 entries, %d bytes), got %+v", want, st)
	}
	if _, b := view.PanelBytes(); b != want {
		t.Fatalf("the weight holds %d panel bytes, want one panel per layout (%d)", b, want)
	}

	for g := 0; g < workers; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; i < 200; i++ {
				if !bitEqual(LinearInto(nil, xt, view, nil, nil), wantT) || !bitEqual(MatMulInto(nil, xr, w, nil), wantR) ||
					!bitEqual(LinearInto(nil, xv, w.Reshape(24, 80), nil, nil), wantV) {
					t.Error("product under a concurrent re-dimensioned view differs from the serial result")
					return
				}
			}
		}()
	}
	done.Wait()
}

// TestPackWeightSplitMatchesSerial: the cold pack fans out over column
// panels; every panel is written by exactly one block, ragged edge included.
func TestPackWeightSplitMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	// Enough whole panels to pay for the split at width 2, plus a panel
	// 3 columns wide.
	const k = 96
	const n = nr*(int(4*nsHandOff/nsStream)/(k*nr)) + 3
	w := Rand(rng, 1, k*n)
	for _, trans := range []bool{false, true} {
		serial := make([]float32, packedSize(k, n))
		SetMaxWorkers(1)
		packWeight(serial, w.data, k, n, trans)
		SetMaxWorkers(2)
		split := make([]float32, packedSize(k, n))
		for i := range split {
			split[i] = -1
		}
		pooled := fannedOut(func() { packWeight(split, w.data, k, n, trans) })
		SetMaxWorkers(0)
		if !pooled {
			t.Fatalf("trans=%v: a %d×%d pack did not fan out at width 2", trans, k, n)
		}
		for i := range serial {
			if serial[i] != split[i] {
				t.Fatalf("trans=%v: split pack differs from serial at %d", trans, i)
			}
		}
	}
}
