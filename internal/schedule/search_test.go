package schedule

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"duet/internal/device"
	"duet/internal/runtime"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// TestPredictorTracksEngineMeasure pins the analytic Predictor against the
// noiseless engine oracle: it mirrors the same serial-queue + lazy-transfer
// semantics, so predicted and measured makespans must agree closely on
// arbitrary placements, and must rank the placements the same way.
func TestPredictorTracksEngineMeasure(t *testing.T) {
	s, _ := rig(t, nil)
	pred, err := NewPredictor(s.Partition, s.Records, device.NewPCIe())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	places := []runtime.Placement{s.Greedy(), s.RoundRobin()}
	for i := 0; i < 6; i++ {
		places = append(places, s.Random(rng))
	}
	for _, p := range places {
		got := pred.Cost(p)
		want := measure(t, s, p)
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.05 {
			t.Errorf("placement %s: predicted %.6fs vs measured %.6fs (%.1f%% off)",
				p, float64(got), float64(want), 100*rel)
		}
	}
	// Ranking consistency on the extremes: if the oracle says A is at least
	// 10% better than B, the predictor must not invert the order.
	for _, a := range places {
		for _, b := range places {
			ma, mb := measure(t, s, a), measure(t, s, b)
			if float64(ma) < 0.9*float64(mb) && pred.Cost(a) > pred.Cost(b) {
				t.Errorf("predictor inverts a 10%% measured gap: %s vs %s", a, b)
			}
		}
	}
}

// TestSearchCorrectNeverWorseThanInitial pins the validation step: whatever
// the beam and annealer explore, the returned placement's measured latency
// can never exceed the initial placement's (the initial is always in the
// candidate pool).
func TestSearchCorrectNeverWorseThanInitial(t *testing.T) {
	s, _ := rig(t, nil)
	initial := s.RoundRobin() // deliberately poor start
	initLat := measure(t, s, initial)
	place, trail, err := s.SearchCorrect(initial, SearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	finalLat := measure(t, s, place)
	if finalLat > initLat {
		t.Fatalf("search made it worse: %.6fs -> %.6fs", float64(initLat), float64(finalLat))
	}
	if trail.FinalMeasured != finalLat {
		t.Fatalf("trail.FinalMeasured %.9fs disagrees with re-measurement %.9fs",
			float64(trail.FinalMeasured), float64(finalLat))
	}
	if trail.InitialMeasured != initLat {
		t.Fatalf("trail.InitialMeasured %.9fs disagrees with oracle %.9fs",
			float64(trail.InitialMeasured), float64(initLat))
	}
}

// TestSearchDeterministicPerSeed pins reproducibility: the annealer is the
// only stochastic component and it is seeded.
func TestSearchDeterministicPerSeed(t *testing.T) {
	s, _ := rig(t, nil)
	a, ta, err := s.GreedySearch(SearchOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := s.GreedySearch(SearchOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	if ta.Candidates != tb.Candidates || ta.MeasureCalls != tb.MeasureCalls {
		t.Fatalf("same seed explored differently: %+v vs %+v", ta, tb)
	}
}

// TestSearchTrailAccounting pins the observability surface the sched
// benchmark reports from.
func TestSearchTrailAccounting(t *testing.T) {
	s, _ := rig(t, nil)
	place, trail, err := s.GreedySearch(SearchOptions{Seed: 1, Validate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if trail.Initial == "" || trail.Final == "" {
		t.Fatal("trail missing placement strings")
	}
	if trail.Final != place.String() {
		t.Fatalf("trail.Final %s is not the returned placement %s", trail.Final, place)
	}
	if trail.Candidates < 2 {
		t.Fatalf("beam scored only %d candidates", trail.Candidates)
	}
	// At least the initial measurement; at most initial + Validate + polish
	// sweeps bounded by the correction budget.
	if trail.MeasureCalls < 1 {
		t.Fatal("no oracle calls recorded")
	}
	if trail.PredictedBest <= 0 || trail.FinalMeasured <= 0 {
		t.Fatalf("non-positive latencies in trail: %+v", trail)
	}
}

// TestSearchSkipPolish pins that the polish stage is optional and its
// accounting stays zero when disabled.
func TestSearchSkipPolish(t *testing.T) {
	s, _ := rig(t, nil)
	_, trail, err := s.GreedySearch(SearchOptions{Seed: 1, SkipPolish: true})
	if err != nil {
		t.Fatal(err)
	}
	if trail.PolishMoves != 0 {
		t.Fatalf("polish disabled but %d polish moves recorded", trail.PolishMoves)
	}
}

// TestSearchAllOnOneDeviceStart pins the degenerate multi-path start where
// one device's queue is completely empty: moves out of a uniform placement
// must still be explored and the result stay valid.
func TestSearchAllOnOneDeviceStart(t *testing.T) {
	s, _ := rig(t, nil)
	uniform := make(runtime.Placement, len(s.Records)) // all CPU
	place, trail, err := s.SearchCorrect(uniform, SearchOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(place) != len(s.Records) {
		t.Fatalf("placement length %d", len(place))
	}
	if trail.FinalMeasured > trail.InitialMeasured {
		t.Fatalf("search regressed the uniform start: %+v", trail)
	}
	if err := verify.CheckPlacement([]device.Kind(place), s.Partition); err != nil {
		t.Fatal(err)
	}
}

// allTieScheduler returns the rig's scheduler with every record forced into
// an exact CPU/GPU tie.
func allTieScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s, _ := rig(t, nil)
	for i := range s.Records {
		s.Records[i].Time[device.GPU] = s.Records[i].Time[device.CPU]
	}
	return s
}

// TestGreedyAllTiesIsCPUFirstAndAudited pins the documented tie-break: with
// every per-device cost equal, step 1 must choose CPU (Faster's CPU-first
// rule) and the audit must flag every such decision as a tie.
func TestGreedyAllTiesIsCPUFirstAndAudited(t *testing.T) {
	s := allTieScheduler(t)
	place, audit, err := s.GreedyCorrectionAudit()
	if err != nil {
		t.Fatal(err)
	}
	greedyPlace := s.Greedy()
	for _, sg := range audit.Subgraphs {
		if sg.Reason == ReasonSequential || sg.Reason == ReasonCriticalPin {
			if greedyPlace[sg.Index] != device.CPU {
				t.Errorf("subgraph %d (%s) tied but placed on GPU — CPU-first violated", sg.Index, sg.Reason)
			}
			if !sg.TieBreak || sg.MarginFrac != 0 {
				t.Errorf("subgraph %d: exact tie not flagged (margin %.4f, tie=%v)",
					sg.Index, sg.MarginFrac, sg.TieBreak)
			}
		}
	}
	if err := audit.Verify(s.Partition, s.Records); err != nil {
		t.Fatalf("all-ties audit fails replay: %v", err)
	}
	if len(place) != len(s.Records) {
		t.Fatalf("corrected placement has %d entries", len(place))
	}
}

// TestCorrectTerminatesOnFlatOracle pins termination when no move can ever
// gain: a constant oracle admits no strictly positive gain, so step 3 must
// stop after one sweep per phase with the placement unchanged.
func TestCorrectTerminatesOnFlatOracle(t *testing.T) {
	s := allTieScheduler(t)
	calls := 0
	s.Measure = func(p runtime.Placement) (vclock.Seconds, error) {
		calls++
		return 1e-3, nil
	}
	initial := s.Greedy()
	got, err := s.Correct(initial)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != initial.String() {
		t.Fatalf("flat oracle moved the placement: %s -> %s", initial, got)
	}
	// One baseline measurement plus exactly one full neighbor sweep per
	// multi-path phase — no second round, because no strict gain exists.
	maxSweep := 1
	ranges := s.flatIndexRanges()
	for pi, ph := range s.Partition.Phases {
		w := ranges[pi][1] - ranges[pi][0]
		if ph.Kind.String() == "multi-path" && w > 1 {
			maxSweep += w * w // moves + swaps, loose upper bound for one sweep
		}
	}
	if calls > maxSweep {
		t.Fatalf("flat oracle: %d measure calls, want <= %d (single sweep per phase)", calls, maxSweep)
	}
}

// TestCorrectCannotCycle pins the termination argument of step 3: every
// accepted move requires a strictly positive measured gain, so accepted
// latencies form a strictly decreasing sequence and no placement can ever
// repeat. The oracle here is an adversarial deterministic hash — arbitrary
// landscape, no ties — and the audit trail must show strictly decreasing
// latencies and pairwise distinct placements.
func TestCorrectCannotCycle(t *testing.T) {
	s, _ := rig(t, nil)
	s.MaxCorrectionRounds = 1 << 20 // effectively unbounded: termination must come from strict gains
	oracle := func(p runtime.Placement) (vclock.Seconds, error) {
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		frac := float64(h.Sum64()%1000000) / 1e6
		return vclock.Seconds(1e-3 * (1 + frac)), nil
	}
	s.Measure = oracle
	a := &Audit{}
	_, err := s.CorrectAudit(s.Greedy(), a)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	prev := vclock.Seconds(-1)
	for i, sw := range a.Swaps {
		if sw.Gain <= 0 {
			t.Fatalf("swap %d accepted with non-positive gain %v", i, sw.Gain)
		}
		if sw.LatAfter >= sw.LatBefore {
			t.Fatalf("swap %d did not strictly improve: %v -> %v", i, sw.LatBefore, sw.LatAfter)
		}
		if prev >= 0 && sw.LatAfter >= prev {
			t.Fatalf("swap %d latency %v not below previous accepted %v", i, sw.LatAfter, prev)
		}
		prev = sw.LatAfter
		if seen[sw.After] {
			t.Fatalf("swap %d revisited placement %s — cycle", i, sw.After)
		}
		seen[sw.After] = true
	}
}

// TestDPMatchesSearchPlacementShape adds dp.go coverage: DP and the wide
// search must both emit full-length legal placements from the same
// scheduler, and DP must stay deterministic.
func TestDPMatchesSearchPlacementShape(t *testing.T) {
	s, _ := rig(t, nil)
	dp1, err := s.DynamicProgramming(DPOptions{Link: device.NewPCIe()})
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := s.DynamicProgramming(DPOptions{Link: device.NewPCIe()})
	if err != nil {
		t.Fatal(err)
	}
	if dp1.String() != dp2.String() {
		t.Fatalf("DP nondeterministic: %s vs %s", dp1, dp2)
	}
	if err := verify.CheckPlacement([]device.Kind(dp1), s.Partition); err != nil {
		t.Fatal(err)
	}
	sp, _, err := s.GreedySearch(SearchOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != len(dp1) {
		t.Fatalf("search placement %d entries, DP %d", len(sp), len(dp1))
	}
	// The analytic DP carries transfer-estimate error (§IV-C); the measured
	// search must never lose to it on the oracle.
	if a, b := measure(t, s, sp), measure(t, s, dp1); float64(a) > float64(b)*(1+1e-9) {
		t.Errorf("search %.6fs worse than analytic DP %.6fs", float64(a), float64(b))
	}
}

// TestDPAllTies adds the all-ties edge to dp.go: equal per-device costs
// must not crash or emit an illegal placement.
func TestDPAllTies(t *testing.T) {
	s := allTieScheduler(t)
	place, err := s.DynamicProgramming(DPOptions{Link: device.NewPCIe()})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckPlacement([]device.Kind(place), s.Partition); err != nil {
		t.Fatal(err)
	}
}
