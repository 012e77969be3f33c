package tensor

import (
	"fmt"
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

// vectorFill reports whether fills run fillChunks' vector kernel at the
// current tier: a chunk of zero terms, which holds no resample, is run
// whole only there.
func vectorFill() bool {
	done, _ := fillChunks(make([]float32, 8), make([]uint64, 8), make([]uint64, 8), 1)
	return done == 8
}

// findResample searches seeds from 1 up for a draw, among each stream's
// first 2¹⁶, whose float32 rounds to 1 (about one draw in 2²⁵), and returns
// the seed and the draw's index.
func findResample(t *testing.T) (seed int64, at int) {
	for seed = 1; seed <= 1<<12; seed++ {
		r := NewRNG(seed)
		for i := 0; i < 1<<16; i++ {
			if float32(float64(r.Int63())/(1<<63)) == 1 {
				return seed, i
			}
		}
	}
	t.Fatal("no draw rounding to 1 in the searched streams")
	return 0, 0
}

// TestRandFillPaths holds both fill paths — the vector chunks of the
// detected tier where the machine has them, and the scalar loop at the
// portable tier — to rand.New(rand.NewSource(seed))'s Float32 stream bit
// for bit: a fill of two rings and a chunk past from every ring offset,
// back-to-back fills of every length from 1 to that, and a fill across a
// draw that Float32 resamples, with the chunk of eight holding it handed
// by the vector kernel to the scalar loop.
func TestRandFillPaths(t *testing.T) {
	const long = 2*rngLen + 9
	seed, at := findResample(t)
	if at < 7 {
		t.Fatalf("seed %d resamples at draw %d, before a whole chunk", seed, at)
	}
	t.Logf("seed %d resamples at draw %d", seed, at)
	for _, tr := range hostTiers() {
		if tr != tier && tr != tierPortable {
			continue
		}
		restore := setTier(tr)
		vector := vectorFill()
		t.Run(fmt.Sprintf("%v/vector=%v", tr, vector), func(t *testing.T) {
			for off := 0; off < rngLen; off++ {
				ref := rand.New(rand.NewSource(-7))
				r := NewRNG(-7)
				for i := 0; i < off; i++ {
					ref.Uint64()
					r.Uint64()
				}
				sameStream(t, fmt.Sprintf("fill from ring offset %d", off), Rand(r, 1, long).Data(), refRand(ref, 1, long))
				if got, want := r.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("the draw after a fill from ring offset %d is %d, math/rand %d", off, got, want)
				}
			}

			ref := rand.New(rand.NewSource(1 << 40))
			r := NewRNG(1 << 40)
			for n := 1; n <= long; n++ {
				bound := float32(n%13+1) / 5
				sameStream(t, fmt.Sprintf("fill of %d", n), Rand(r, bound, n).Data(), refRand(ref, bound, n))
			}

			ref = rand.New(rand.NewSource(seed))
			sameStream(t, "fill across the resample", Rand(NewRNG(seed), 0.5, at+100).Data(), refRand(ref, 0.5, at+100))

			// Walk to the first draw q ≥ at-7 from whose ring slot the run
			// holds a whole chunk: that chunk holds draw at.
			ref = rand.New(rand.NewSource(seed))
			r = NewRNG(seed)
			for i := 0; i < at-7; i++ {
				ref.Uint64()
				r.Uint64()
			}
			for q := at - 7; min(rngLen-r.feed, rngLen-r.tap) < 8; q++ {
				if q == at {
					t.Fatalf("no chunk holds draw %d", at)
				}
				ref.Uint64()
				r.Uint64()
			}
			ring := r.vec
			done, stopped := fillChunks(make([]float32, 8), r.vec[r.feed:r.feed+8], r.vec[r.tap:r.tap+8], 1)
			if done != 0 || stopped != vector {
				t.Fatalf("the chunk holding draw %d of seed %d: fillChunks ran %d terms, stopped %v; want 0 terms, stopped %v", at, seed, done, stopped, vector)
			}
			if r.vec != ring {
				t.Fatal("fillChunks stored the ring of a chunk it left to the scalar loop")
			}
			sameStream(t, "fill from the chunk holding the resample", Rand(r, 0.5, 64).Data(), refRand(ref, 0.5, 64))
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("after the fill: Int63 %d, math/rand %d — the resampled draw was not consumed once", got, want)
			}
		})
		restore()
	}
}
