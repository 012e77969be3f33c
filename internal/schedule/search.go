package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"duet/internal/device"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/vclock"
)

// Predictor is the analytic makespan model behind the wide Step-3 search:
// the engine's own timeline walk (runtime.Walk — per-device serial queues,
// lazy cross-device value transfers, per-dispatch queue overhead, final host
// gather) priced by the profile records instead of the device models, which
// in predicted/hybrid mode means by the learned cost model. One evaluation
// is O(subgraphs + boundary edges) and allocates nothing, cheap enough to
// score thousands of candidate placements per second. Not safe for
// concurrent use.
type Predictor struct {
	recs   []profile.Record
	link   *device.Link
	walk   *runtime.Walk
	clocks []vclock.Seconds
}

// NewPredictor builds a predictor for the partition, records, and link.
func NewPredictor(part *partition.Partition, records []profile.Record, link *device.Link) (*Predictor, error) {
	sk, err := runtime.NewSkeleton(part.Parent, part.Subgraphs())
	if err != nil {
		return nil, err
	}
	p := &Predictor{recs: records, link: link, clocks: make([]vclock.Seconds, runtime.Lanes)}
	p.walk = runtime.NewWalk(sk, p, nil)
	return p, nil
}

// Transfer and Kernels make the predictor its walk's runtime.Sampler: the
// link model, and each subgraph's profiled time on the lane's device.
func (p *Predictor) Transfer(bytes, _, _ int, _ vclock.Seconds) (vclock.Seconds, device.Fault) {
	return p.link.TransferTime(bytes), device.Fault{}
}

func (p *Predictor) Kernels(i, lane int, _ vclock.Seconds) (vclock.Seconds, device.Fault) {
	return p.recs[i].TimeOn(device.Kind(lane)), device.Fault{}
}

// Cost returns the predicted end-to-end latency of the placement.
func (p *Predictor) Cost(place runtime.Placement) vclock.Seconds {
	clear(p.clocks)
	p.walk.Begin(p.clocks, 0)
	return p.walk.Latency(place)
}

// SearchOptions tunes the wide Step-3 correction search.
type SearchOptions struct {
	// Beam is the beam width of the predicted-cost search (default 8).
	Beam int
	// MaxDepth bounds beam expansion rounds (default 2×subgraphs).
	MaxDepth int
	// Anneal is the number of simulated-annealing steps refining the beam's
	// best state (default 400; 0 disables annealing).
	Anneal int
	// Validate is how many top predicted candidates are re-measured before
	// committing (default 3; the initial placement is always measured too).
	Validate int
	// Seed drives the annealer's randomness (deterministic per seed).
	Seed int64
	// SkipPolish disables the final measured swap-correction polish of the
	// winning candidate. The polish guarantees the result is a measured
	// local optimum — the same guarantee greedy correction provides.
	SkipPolish bool
}

// withDefaults fills unset options.
func (o SearchOptions) withDefaults(n int) SearchOptions {
	if o.Beam <= 0 {
		o.Beam = 8
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 2 * n
	}
	if o.Anneal < 0 {
		o.Anneal = 0
	} else if o.Anneal == 0 {
		o.Anneal = 400
	}
	if o.Validate <= 0 {
		o.Validate = 3
	}
	return o
}

// SearchTrail reports what the search explored and what it cost — the
// schedule-search observability surface (BENCH_sched.json).
type SearchTrail struct {
	Initial string `json:"initial"`
	Final   string `json:"final"`
	// Candidates is the number of distinct placements scored with the
	// predictor.
	Candidates int `json:"candidates"`
	// MeasureCalls counts latency-oracle invocations (greedy correction
	// spends O(width²) of these per phase round; the search spends
	// Validate + polish).
	MeasureCalls int `json:"measure_calls"`
	// PredictedBest is the predictor's cost for the best candidate found.
	PredictedBest vclock.Seconds `json:"predicted_best_seconds"`
	// InitialMeasured / FinalMeasured bracket the search with the oracle.
	InitialMeasured vclock.Seconds `json:"initial_measured_seconds"`
	FinalMeasured   vclock.Seconds `json:"final_measured_seconds"`
	// PolishMoves counts accepted moves of the final measured polish.
	PolishMoves int `json:"polish_moves"`
}

// searchState is one scored candidate.
type searchState struct {
	place runtime.Placement
	cost  vclock.Seconds
}

// SearchCorrect is the wide Step-3 replacement: from an initial placement
// (normally Greedy's) it runs a beam search over single moves and pair
// swaps inside multi-path phases, scored by the analytic Predictor, then
// refines the best state by seeded simulated annealing, re-measures the
// top Validate candidates with the latency oracle, and finally polishes
// the measured winner with the classic measured swap-correction. Because
// predictions are cheap, the beam explores orders of magnitude more
// placements than greedy correction's single measured trajectory.
func (s *Scheduler) SearchCorrect(initial runtime.Placement, opt SearchOptions) (runtime.Placement, *SearchTrail, error) {
	n := len(s.Records)
	opt = opt.withDefaults(n)
	trail := &SearchTrail{Initial: initial.String()}
	oracle := s.Measure
	measure := func(p runtime.Placement) (vclock.Seconds, error) {
		trail.MeasureCalls++
		return oracle(p)
	}
	pred, err := NewPredictor(s.Partition, s.Records, device.NewPCIe())
	if err != nil {
		return nil, nil, err
	}

	// Mutable flat indices: subgraphs inside multi-path phases. Sequential
	// subgraphs keep their profiled-fastest device (moving one can only
	// serialize the same work onto a slower device).
	var mutable []int
	ranges := s.flatIndexRanges()
	for pi, ph := range s.Partition.Phases {
		if ph.Kind != partition.MultiPath {
			continue
		}
		for i := ranges[pi][0]; i < ranges[pi][1]; i++ {
			mutable = append(mutable, i)
		}
	}

	score := func(p runtime.Placement) searchState {
		trail.Candidates++
		return searchState{place: p, cost: pred.Cost(p)}
	}
	seen := map[string]bool{initial.String(): true}
	beam := []searchState{score(initial)}
	best := beam[0]
	top := []searchState{best}
	keepTop := func(st searchState) {
		top = append(top, st)
		sort.Slice(top, func(a, b int) bool { return top[a].cost < top[b].cost })
		if len(top) > opt.Validate {
			top = top[:opt.Validate]
		}
	}

	// neighbors invokes fn with every single-move and cross-device
	// pair-swap variant of p (the exact operator set of Correct).
	neighbors := func(p runtime.Placement, fn func(runtime.Placement)) {
		for ai, i := range mutable {
			cand := p.Clone()
			cand[i] = cand[i].Other()
			fn(cand)
			for _, j := range mutable[ai+1:] {
				if p[j] == p[i] || s.Partition.PhaseOf(i) != s.Partition.PhaseOf(j) {
					continue
				}
				swap := p.Clone()
				swap[i], swap[j] = swap[j], swap[i]
				fn(swap)
			}
		}
	}

	for depth := 0; depth < opt.MaxDepth && len(beam) > 0; depth++ {
		var next []searchState
		for _, st := range beam {
			neighbors(st.place, func(cand runtime.Placement) {
				key := cand.String()
				if seen[key] {
					return
				}
				seen[key] = true
				next = append(next, score(cand))
			})
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(a, b int) bool { return next[a].cost < next[b].cost })
		if len(next) > opt.Beam {
			next = next[:opt.Beam]
		}
		beam = next
		improved := false
		for _, st := range beam {
			keepTop(st)
			if st.cost < best.cost {
				best, improved = st, true
			}
		}
		if !improved {
			break
		}
	}

	// Simulated annealing from the beam's best state widens the search
	// beyond the greedy basin; temperature starts at the initial predicted
	// makespan scale and decays geometrically.
	if opt.Anneal > 0 && len(mutable) > 0 {
		rng := rand.New(rand.NewSource(opt.Seed*0x5deece66d + 11))
		cur := best
		temp := float64(beam[0].cost) * 0.05
		if temp <= 0 {
			temp = 1e-6
		}
		decay := math.Pow(1e-3, 1/float64(opt.Anneal))
		for step := 0; step < opt.Anneal; step++ {
			cand := cur.place.Clone()
			i := mutable[rng.Intn(len(mutable))]
			if j := mutable[rng.Intn(len(mutable))]; j != i &&
				cand[j] != cand[i] && s.Partition.PhaseOf(i) == s.Partition.PhaseOf(j) && rng.Intn(2) == 0 {
				cand[i], cand[j] = cand[j], cand[i]
			} else {
				cand[i] = cand[i].Other()
			}
			var st searchState
			if key := cand.String(); seen[key] {
				st = searchState{place: cand, cost: pred.Cost(cand)}
			} else {
				seen[key] = true
				st = score(cand)
			}
			delta := float64(st.cost - cur.cost)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = st
				if st.cost < best.cost {
					best = st
					keepTop(st)
				}
			}
			temp *= decay
		}
	}
	trail.PredictedBest = best.cost

	// Re-validate against measured costs: the initial placement plus the
	// top predicted candidates compete on the oracle.
	winner := initial
	winnerLat, err := measure(initial)
	if err != nil {
		return nil, nil, err
	}
	trail.InitialMeasured = winnerLat
	for _, st := range top {
		if st.place.String() == initial.String() {
			continue
		}
		lat, err := measure(st.place)
		if err != nil {
			return nil, nil, err
		}
		if lat < winnerLat {
			winner, winnerLat = st.place, lat
		}
	}

	// Final measured polish: classic Step-3 swap-correction from the
	// winner guarantees a measured local optimum under the same move set
	// greedy correction uses.
	if !opt.SkipPolish {
		a := &Audit{}
		polish := &Scheduler{
			Partition: s.Partition, Records: s.Records,
			Measure: measure, MaxCorrectionRounds: s.MaxCorrectionRounds,
		}
		polished, err := polish.correct(winner, a)
		if err != nil {
			return nil, nil, err
		}
		trail.PolishMoves = len(a.Swaps)
		if a.FinalMeasured < winnerLat {
			winner, winnerLat = polished, a.FinalMeasured
		}
	}
	trail.Final = winner.String()
	trail.FinalMeasured = winnerLat
	return winner, trail, nil
}

// GreedySearch runs steps 1-2 of Algorithm 1 and then the wide predicted
// search in place of classic correction.
func (s *Scheduler) GreedySearch(opt SearchOptions) (runtime.Placement, *SearchTrail, error) {
	return s.SearchCorrect(s.Greedy(), opt)
}

// String renders the trail compactly for logs.
func (t *SearchTrail) String() string {
	return fmt.Sprintf("search: %s -> %s, %d candidates, %d measured, predicted %.6fs, measured %.6fs -> %.6fs",
		t.Initial, t.Final, t.Candidates, t.MeasureCalls,
		float64(t.PredictedBest), float64(t.InitialMeasured), float64(t.FinalMeasured))
}
