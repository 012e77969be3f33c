package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds covers math/rand's seed folding: zero, negative, beyond 32 bits,
// and a multiple of 2³¹-1, which math/rand maps to the same state as 0.
var rngSeeds = []int64{0, 1, -7, 1 << 40, 3 * (1<<31 - 1)}

// TestRNGMatchesMathRand pins RNG to rand.New(rand.NewSource(seed)) over
// 10⁶ interleaved Float32 (through rand.New(rng)), Int63 and Uint64 draws
// per seed.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range rngSeeds {
		ref := rand.New(rand.NewSource(seed))
		r := NewRNG(seed)
		rr := rand.New(r)
		for i := 0; i < 1_000_000; i++ {
			switch i % 3 {
			case 0:
				if got, want := rr.Float32(), ref.Float32(); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("seed %d draw %d: Float32 %v, math/rand %v", seed, i, got, want)
				}
			case 1:
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
				}
			case 2:
				if got, want := r.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, got, want)
				}
			}
		}
	}
}

// refRand is what Rand drew before RNG existed: one rng.Float32 per element.
func refRand(rng *rand.Rand, bound float32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * bound
	}
	return out
}

func sameStream(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRandBulkMatchesMathRand interleaves bulk fills whose lengths straddle
// the ring's run boundaries (273, 334, 607) with rand.New(rng).Intn on the
// shared state, and checks both against the same calls on a *rand.Rand —
// which also takes Rand's per-element path.
func TestRandBulkMatchesMathRand(t *testing.T) {
	lengths := []int{1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1000, 5000, 12345}
	for _, seed := range rngSeeds {
		ref := rand.New(rand.NewSource(seed))
		slow := rand.New(rand.NewSource(seed))
		r := NewRNG(seed)
		rr := rand.New(r)
		for i, n := range lengths {
			bound := float32(i+1) / 7
			want := refRand(ref, bound, n)
			sameStream(t, "bulk Rand", Rand(r, bound, n).Data(), want)
			sameStream(t, "per-element Rand", Rand(slow, bound, n).Data(), want)
			for k := 0; k < i; k++ {
				m := 3 + k*97
				want := ref.Intn(m)
				if got := rr.Intn(m); got != want {
					t.Fatalf("seed %d: Intn(%d) after a fill of %d is %d, math/rand %d", seed, m, n, got, want)
				}
				if got := slow.Intn(m); got != want {
					t.Fatalf("seed %d: *rand.Rand Intn(%d) drifted after a per-element fill", seed, m)
				}
			}
		}
	}
}

// TestRandFillFromEveryRingOffset starts a fill, longer than the ring, at
// each of the ring's 607 positions, and checks it and the draw after it.
func TestRandFillFromEveryRingOffset(t *testing.T) {
	for _, seed := range rngSeeds[1:3] {
		for off := 0; off < rngLen; off++ {
			ref := rand.New(rand.NewSource(seed))
			r := NewRNG(seed)
			for i := 0; i < off; i++ {
				ref.Uint64()
				r.Uint64()
			}
			sameStream(t, "fill", Rand(r, 1, rngLen+1).Data(), refRand(ref, 1, rngLen+1))
			if got, want := r.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: the draw after a fill from ring offset %d is %d, math/rand %d", seed, off, got, want)
			}
		}
	}
}

// TestRNGSeedRestarts checks that Seed, on the RNG or through rand.New,
// restarts the stream mid-ring.
func TestRNGSeedRestarts(t *testing.T) {
	r := NewRNG(3)
	Rand(r, 1, 1000)
	r.Seed(-7)
	ref := rand.New(rand.NewSource(-7))
	sameStream(t, "after Seed", Rand(r, 1, 2000).Data(), refRand(ref, 1, 2000))

	rr := rand.New(r)
	rr.Seed(1 << 40)
	ref.Seed(1 << 40)
	for i := 0; i < 1000; i++ {
		if got, want := rr.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d after rand.Rand.Seed: %d, math/rand %d", i, got, want)
		}
	}
}

// resampleSeed's stream has, at Int63 draw resampleOffset, a value whose
// float32 rounds to 1, so rand.Float32 consumes it and draws again.
const (
	resampleSeed   = 51
	resampleOffset = 51693
)

// TestRandResamples pins Float32's resample rule: the pinned draw provably
// takes the branch, and a bulk fill across it still equals math/rand and
// leaves the stream where math/rand leaves it.
func TestRandResamples(t *testing.T) {
	src := rand.NewSource(resampleSeed)
	for i := 0; i < resampleOffset; i++ {
		src.Int63()
	}
	// float32 rounds every float64 ≥ 1 - 2⁻²⁵ up to 1.
	if raw := src.Int63(); float64(raw)/(1<<63) < 1-0x1p-25 {
		t.Fatalf("draw %d of seed %d is %d, below the rounding threshold: the resample branch would not run", resampleOffset, resampleSeed, raw)
	}

	const n = resampleOffset + 1000
	ref := rand.New(rand.NewSource(resampleSeed))
	r := NewRNG(resampleSeed)
	sameStream(t, "fill across a resample", Rand(r, 0.5, n).Data(), refRand(ref, 0.5, n))
	if got, want := r.Int63(), ref.Int63(); got != want {
		t.Fatalf("after the fill: Int63 %d, math/rand %d — the skipped draw was not consumed once", got, want)
	}
}
