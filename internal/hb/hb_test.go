package hb

import (
	"strings"
	"testing"
)

// diamond3 is the ≥3-device synthetic fixture: four subgraphs on three
// named lanes (none of them a CPU/GPU pair), diamond-shaped dataflow
//
//	sub0 (cpu0) → sub1 (gpu0) → sub3 (cpu0)
//	          ↘ sub2 (npu0) ↗
func diamond3() (Sched, []SyncEdge) {
	sched := Sched{
		Devices: []string{"cpu0", "gpu0", "npu0"},
		Order:   [][]int{{0, 3}, {1}, {2}},
	}
	plan := []SyncEdge{
		{From: 0, To: 1},
		{From: 0, To: 2},
		{From: 1, To: 3},
		{From: 2, To: 3},
	}
	return sched, plan
}

func TestThreeDeviceSchedule(t *testing.T) {
	sched, plan := diamond3()
	g, err := Build(sched, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Cyclic() {
		t.Fatalf("diamond schedule must be acyclic, got cycle %s", g.CycleLabels())
	}
	ev := func(i int) int { return g.EventOf(0, i) }
	ordered := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}
	for _, p := range ordered {
		if !g.Ordered(ev(p[0]), ev(p[1])) {
			t.Errorf("sub%d must happen-before sub%d", p[0], p[1])
		}
	}
	if g.Ordered(ev(1), ev(2)) || g.Ordered(ev(2), ev(1)) {
		t.Error("independent branches sub1/sub2 must be unordered")
	}
	for i := 0; i < 4; i++ {
		if !g.Ordered(g.Source(0), ev(i)) {
			t.Errorf("source must precede sub%d", i)
		}
		if !g.Ordered(ev(i), g.Sink(0)) {
			t.Errorf("sub%d must precede the sink", i)
		}
	}
	// Dropping the cross-device edge 0→2 leaves sub2 unordered against its
	// producer: the ordering disappears (nothing else reaches npu0).
	gm, err := Build(sched, DropEdge(plan, 0, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gm.Ordered(gm.EventOf(0, 0), gm.EventOf(0, 2)) {
		t.Error("dropping sync 0→2 must leave sub0 and sub2 unordered")
	}
	// Dropping 1→3 keeps ordering? No other path from gpu0 to sub3 exists
	// besides the sync edge, so it must also disappear.
	gm2, err := Build(sched, DropEdge(plan, 1, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gm2.Ordered(gm2.EventOf(0, 1), gm2.EventOf(0, 3)) {
		t.Error("dropping sync 1→3 must leave sub1 and sub3 unordered")
	}
	// Same-lane ordering survives without any sync edge: 0 and 3 share cpu0.
	gm3, err := Build(sched, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gm3.Ordered(gm3.EventOf(0, 0), gm3.EventOf(0, 3)) {
		t.Error("same-lane program order must order sub0 before sub3 with no syncs at all")
	}
}

func TestBuildStructuralErrors(t *testing.T) {
	// Equal start slot: one subgraph scheduled twice.
	_, err := Build(Sched{Devices: []string{"a", "b"}, Order: [][]int{{0, 1}, {1}}}, nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "scheduled twice") {
		t.Errorf("duplicate start slot must error, got %v", err)
	}
	// A sync edge referencing a subgraph no lane starts.
	_, err = Build(Sched{Devices: []string{"a"}, Order: [][]int{{0}}},
		[]SyncEdge{{From: 0, To: 5}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unscheduled") {
		t.Errorf("sync to an unscheduled subgraph must error, got %v", err)
	}
	// Lane/name count mismatch.
	_, err = Build(Sched{Devices: []string{"a"}, Order: [][]int{{0}, {1}}}, nil, Options{})
	if err == nil {
		t.Error("device-name/lane count mismatch must error")
	}
	// An empty lane is a legal idle device, not an error.
	g, err := Build(Sched{Devices: []string{"a", "idle"}, Order: [][]int{{0, 1}, {}}}, nil, Options{})
	if err != nil {
		t.Fatalf("empty lane must be legal: %v", err)
	}
	if g.Cyclic() {
		t.Error("empty-lane schedule must be acyclic")
	}
	if !g.Ordered(g.Source(0), g.Sink(0)) {
		t.Error("source must still reach sink with an idle lane")
	}
}

func TestCycleIsDeadlock(t *testing.T) {
	// Program order says 0 then 1 on one lane; a sync edge 1→0 closes a
	// cycle — the HB re-derivation of the sync-queue deadlock.
	g, err := Build(Sched{Devices: []string{"a"}, Order: [][]int{{0, 1}}},
		[]SyncEdge{{From: 1, To: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Cyclic() {
		t.Fatal("sync against program order must cycle")
	}
	if len(g.Cycle()) == 0 || g.CycleLabels() == "" {
		t.Error("cycle must be reported with its events")
	}
	if g.Ordered(g.EventOf(0, 0), g.EventOf(0, 1)) {
		t.Error("a cyclic graph orders nothing")
	}
}

func TestPhaseBarriers(t *testing.T) {
	// Two independent subgraphs in phase 0, one in phase 1, no sync edges:
	// only the barrier orders them.
	sched := Sched{Devices: []string{"a", "b"}, Order: [][]int{{0, 2}, {1}}}
	g, err := Build(sched, nil, Options{PhaseOf: []int{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Ordered(g.EventOf(0, 1), g.EventOf(0, 2)) {
		t.Error("phase barrier must order phase-0 sub1 before phase-1 sub2 across lanes")
	}
	g2, err := Build(sched, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Ordered(g2.EventOf(0, 1), g2.EventOf(0, 2)) {
		t.Error("without barriers the cross-lane pair must stay unordered")
	}
}

func TestPipelinedDepth(t *testing.T) {
	sched, plan := diamond3()
	g, err := Build(sched, plan, Options{Requests: 3, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Cyclic() {
		t.Fatalf("pipelined graph must be acyclic: %s", g.CycleLabels())
	}
	if g.Requests() != 3 {
		t.Fatalf("Requests() = %d, want 3", g.Requests())
	}
	// Device FIFO: request 0's cpu0 work precedes request 1's cpu0 work.
	if !g.Ordered(g.EventOf(0, 3), g.EventOf(1, 0)) {
		t.Error("per-device FIFO must chain consecutive requests on one lane")
	}
	// Depth edge: request 0 must fully drain before request 2 starts.
	if !g.Ordered(g.Sink(0), g.Source(2)) {
		t.Error("depth 2 must order sink(r0) before source(r2)")
	}
	// But requests 0 and 1 genuinely overlap: r1's source does not wait for
	// r0's sink.
	if g.Ordered(g.Sink(0), g.Source(1)) {
		t.Error("depth 2 must let requests 0 and 1 overlap")
	}
	// Depth 1 serializes fully.
	g1, err := Build(sched, plan, Options{Requests: 2, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Ordered(g1.Sink(0), g1.Source(1)) {
		t.Error("depth 1 must serialize consecutive requests")
	}
}

func TestDetectRules(t *testing.T) {
	// Two lanes, no syncs: sub0@a and sub1@b are unordered; sub2@a follows
	// sub0 in program order.
	g, err := Build(Sched{Devices: []string{"a", "b"}, Order: [][]int{{0, 2}, {1}}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0, e1, e2 := g.EventOf(0, 0), g.EventOf(0, 1), g.EventOf(0, 2)

	t.Run("write-read unordered", func(t *testing.T) {
		races := Detect(g, []Access{
			{Event: e0, Step: 0, Seq: seqWrite, Buf: "val:7", Kind: Write, Site: "w"},
			{Event: e1, Step: 0, Seq: seqRead, Buf: "val:7", Kind: Read, Site: "r"},
		})
		if len(races) != 1 || races[0].Kind != RaceWriteRead {
			t.Fatalf("races = %v, want one write-read", races)
		}
		if !strings.Contains(races[0].Missing, "no happens-before edge") {
			t.Errorf("race must name the missing edge, got %q", races[0].Missing)
		}
	})
	t.Run("write-write unordered", func(t *testing.T) {
		races := Detect(g, []Access{
			{Event: e0, Seq: seqWrite, Buf: "val:8", Kind: Write, Site: "w0"},
			{Event: e1, Seq: seqWrite, Buf: "val:8", Kind: Emit, Site: "w1"},
		})
		if len(races) != 1 || races[0].Kind != RaceWriteWrite {
			t.Fatalf("races = %v, want one write-write", races)
		}
	})
	t.Run("read before producing write", func(t *testing.T) {
		races := Detect(g, []Access{
			{Event: e2, Seq: seqWrite, Buf: "val:9", Kind: InPlace, Site: "late write"},
			{Event: e0, Seq: seqRead, Buf: "val:9", Kind: Read, Site: "early read"},
		})
		if len(races) != 1 || races[0].Kind != RaceReadBeforeWrite {
			t.Fatalf("races = %v, want one read-before-write", races)
		}
	})
	t.Run("ordered pair is clean", func(t *testing.T) {
		races := Detect(g, []Access{
			{Event: e0, Seq: seqWrite, Buf: "val:10", Kind: Write, Site: "w"},
			{Event: e2, Seq: seqRead, Buf: "val:10", Kind: Read, Site: "r"},
		})
		if len(races) != 0 {
			t.Fatalf("program-ordered pair must not race: %v", races)
		}
	})
	t.Run("use after release in one event", func(t *testing.T) {
		races := Detect(g, []Access{
			{Event: e0, Step: 1, Seq: seqRelease, Buf: "m0:3", Kind: Release, Site: "rel"},
			{Event: e0, Step: 2, Seq: seqRead, Buf: "m0:3", Kind: Read, Site: "late read"},
		})
		if len(races) != 1 || races[0].Kind != RaceUseAfterRelease {
			t.Fatalf("races = %v, want one use-after-release", races)
		}
		// The reverse order (read at step 1, release at step 2) is the
		// correct release plan and must stay clean.
		clean := Detect(g, []Access{
			{Event: e0, Step: 2, Seq: seqRelease, Buf: "m0:4", Kind: Release, Site: "rel"},
			{Event: e0, Step: 1, Seq: seqRead, Buf: "m0:4", Kind: Read, Site: "read"},
		})
		if len(clean) != 0 {
			t.Fatalf("release after last read must be clean: %v", clean)
		}
	})
	t.Run("same step orders reads before release", func(t *testing.T) {
		clean := Detect(g, []Access{
			{Event: e0, Step: 1, Seq: seqRelease, Buf: "m0:5", Kind: Release, Site: "rel"},
			{Event: e0, Step: 1, Seq: seqRead, Buf: "m0:5", Kind: Read, Site: "read"},
		})
		if len(clean) != 0 {
			t.Fatalf("a step's operand reads precede its release: %v", clean)
		}
	})
}

func TestAdversarialOrderPrefersVictim(t *testing.T) {
	sched, plan := diamond3()
	// Drop 0→2: sub2's only ordering against sub0 disappears, so the
	// adversarial order for victim 2 must start it before sub0.
	g, err := Build(sched, DropEdge(plan, 0, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	order, err := AdversarialOrder(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for idx, i := range order {
		pos[i] = idx
	}
	if len(pos) != 4 {
		t.Fatalf("order %v must cover all 4 subgraphs", order)
	}
	if pos[2] > pos[0] {
		t.Errorf("order %v must start the victim sub2 before its former producer sub0", order)
	}
	// With the full plan the victim cannot overtake its producer.
	gFull, err := Build(sched, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orderFull, err := AdversarialOrder(gFull, 2)
	if err != nil {
		t.Fatal(err)
	}
	posFull := map[int]int{}
	for idx, i := range orderFull {
		posFull[i] = idx
	}
	if posFull[2] < posFull[0] {
		t.Errorf("order %v must respect the intact sync 0→2", orderFull)
	}
}
