package schedule

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/vclock"
)

// rig builds the full scheduling stack for a model graph with a noiseless
// platform.
func rig(t *testing.T, build func() (interface{ Validate() error }, error)) (*Scheduler, *runtime.Engine) {
	t.Helper()
	g, err := models.WideDeep(models.DefaultWideDeep())
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := runtime.New(p, device.NewPlatform(0), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(device.NewPlatform(0))
	prof.Runs = 1
	records, err := prof.ProfileAll(g, p.Subgraphs())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, records, EngineMeasure(engine, 1))
	if err != nil {
		t.Fatal(err)
	}
	return s, engine
}

func measure(t *testing.T, s *Scheduler, p runtime.Placement) vclock.Seconds {
	t.Helper()
	lat, err := s.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestGreedyPlacesHeterogeneously(t *testing.T) {
	s, _ := rig(t, nil)
	place := s.Greedy()
	hasCPU, hasGPU := false, false
	for _, k := range place {
		if k == device.CPU {
			hasCPU = true
		} else {
			hasGPU = true
		}
	}
	if !hasCPU || !hasGPU {
		t.Fatalf("greedy placement on Wide&Deep should use both devices: %s", place)
	}
}

func TestGreedyBeatsUniformOnWideDeep(t *testing.T) {
	s, _ := rig(t, nil)
	greedy := measure(t, s, s.Greedy())
	n := len(s.Records)
	cpu := measure(t, s, runtime.Uniform(n, device.CPU))
	gpu := measure(t, s, runtime.Uniform(n, device.GPU))
	if greedy >= cpu || greedy >= gpu {
		t.Fatalf("greedy (%v) should beat uniform cpu (%v) and gpu (%v)", greedy, cpu, gpu)
	}
}

func TestCorrectionNeverHurts(t *testing.T) {
	s, _ := rig(t, nil)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		start := s.Random(rng)
		before := measure(t, s, start)
		corrected, err := s.Correct(start)
		if err != nil {
			t.Fatal(err)
		}
		after := measure(t, s, corrected)
		if after > before+1e-12 {
			t.Fatalf("correction worsened latency: %v -> %v (start %s)", before, after, start)
		}
	}
}

func TestCorrectDoesNotMutateInput(t *testing.T) {
	s, _ := rig(t, nil)
	start := s.RoundRobin()
	want := start.String()
	if _, err := s.Correct(start); err != nil {
		t.Fatal(err)
	}
	if start.String() != want {
		t.Fatalf("Correct mutated its input")
	}
}

func TestGreedyCorrectionMatchesIdeal(t *testing.T) {
	// The paper verifies empirically that greedy-correction finds the
	// optimal schedule when the subgraph count is small (§VI-C).
	s, _ := rig(t, nil)
	gc, err := s.GreedyCorrection()
	if err != nil {
		t.Fatal(err)
	}
	gcLat := measure(t, s, gc)
	_, idealLat, err := s.Ideal()
	if err != nil {
		t.Fatal(err)
	}
	if gcLat > idealLat*1.02 {
		t.Fatalf("greedy-correction %v not within 2%% of ideal %v", gcLat, idealLat)
	}
}

func TestSchedulerOrderingFig13(t *testing.T) {
	// Fig. 13's ordering: correction-based schedules beat Random and
	// Round-Robin (averaged over several random draws).
	s, _ := rig(t, nil)
	rng := rand.New(rand.NewSource(9))
	var randomSum vclock.Seconds
	const draws = 8
	for i := 0; i < draws; i++ {
		randomSum += measure(t, s, s.Random(rng))
	}
	randomMean := randomSum / draws
	rr := measure(t, s, s.RoundRobin())
	rc, err := s.RandomCorrection(rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	rcLat := measure(t, s, rc)
	gc, err := s.GreedyCorrection()
	if err != nil {
		t.Fatal(err)
	}
	gcLat := measure(t, s, gc)
	if gcLat > rcLat*1.05 {
		t.Fatalf("greedy+correction (%v) should be ≤ random+correction (%v)", gcLat, rcLat)
	}
	if rcLat >= randomMean {
		t.Fatalf("random+correction (%v) should beat plain random (%v)", rcLat, randomMean)
	}
	if gcLat >= rr {
		t.Fatalf("greedy+correction (%v) should beat round-robin (%v)", gcLat, rr)
	}
}

func TestRandomIsSeeded(t *testing.T) {
	s, _ := rig(t, nil)
	a := s.Random(rand.New(rand.NewSource(5)))
	b := s.Random(rand.New(rand.NewSource(5)))
	if a.String() != b.String() {
		t.Fatalf("random placement not deterministic under seed")
	}
}

func TestRoundRobinAlternates(t *testing.T) {
	s, _ := rig(t, nil)
	p := s.RoundRobin()
	for i := range p {
		want := device.CPU
		if i%2 == 1 {
			want = device.GPU
		}
		if p[i] != want {
			t.Fatalf("round-robin wrong at %d: %s", i, p)
		}
	}
}

func TestIdealRefusesLargeSearch(t *testing.T) {
	s, _ := rig(t, nil)
	// Inflate the record count artificially.
	big := &Scheduler{Partition: s.Partition, Records: make([]profile.Record, 25), Measure: s.Measure}
	if _, _, err := big.Ideal(); err == nil {
		t.Fatalf("expected feasibility error")
	}
}

func TestNewValidatesRecordCount(t *testing.T) {
	s, _ := rig(t, nil)
	if _, err := New(s.Partition, s.Records[:1], s.Measure); err == nil {
		t.Fatalf("expected record-count error")
	}
}

func TestSchedulerOnSequentialOnlyModel(t *testing.T) {
	// VGG partitions into a single sequential subgraph: greedy must pick its
	// faster device and correction must be a no-op.
	g, err := models.VGG(models.DefaultVGG())
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	p, err := partition.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := runtime.New(p, device.NewPlatform(0), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(device.NewPlatform(0))
	prof.Runs = 1
	records, err := prof.ProfileAll(g, p.Subgraphs())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, records, EngineMeasure(engine, 1))
	if err != nil {
		t.Fatal(err)
	}
	greedy := s.Greedy()
	if len(greedy) != 1 || greedy[0] != device.GPU {
		t.Fatalf("VGG greedy = %s, want single-GPU", greedy)
	}
	corrected, err := s.Correct(greedy)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.String() != greedy.String() {
		t.Fatalf("correction changed a sequential-only placement: %s -> %s", greedy, corrected)
	}
}

func TestCorrectionBudgetRespected(t *testing.T) {
	s, _ := rig(t, nil)
	s.MaxCorrectionRounds = 0
	start := s.RoundRobin()
	out, err := s.Correct(start)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != start.String() {
		t.Fatalf("zero-round correction must be identity: %s -> %s", start, out)
	}
}

func TestGreedyCriticalPathAnchoring(t *testing.T) {
	// In Wide&Deep's multi-path phase the costliest subgraph (the CNN) must
	// sit on its faster device after greedy step 1.
	s, _ := rig(t, nil)
	place := s.Greedy()
	crit := 0
	for i := 1; i < len(s.Records); i++ {
		if s.Partition.PhaseOf(i) == 0 && s.Records[i].Best() > s.Records[crit].Best() {
			crit = i
		}
	}
	if place[crit] != s.Records[crit].Faster() {
		t.Fatalf("critical subgraph %d not on its faster device", crit)
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
