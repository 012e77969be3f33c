package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"duet/internal/core"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// The test model is the scaled-down Wide&Deep: small enough that real
// value execution stays fast under -race, heterogeneous enough that the
// serving placements split work across both devices.
func smallWideDeep() models.WideDeepConfig {
	cfg := models.DefaultWideDeep()
	cfg.ImageSize = 64
	cfg.SeqLen = 16
	return cfg
}

var (
	engOnce sync.Once
	engVal  *core.Engine
	engErr  error
)

// testEngine builds (once per process) a noiseless engine for the small
// Wide&Deep — noiseless so bit-equality and determinism assertions are
// exact.
func testEngine(t *testing.T) (*core.Engine, models.WideDeepConfig) {
	t.Helper()
	cfg := smallWideDeep()
	engOnce.Do(func() {
		g, err := models.WideDeep(cfg)
		if err != nil {
			engErr = err
			return
		}
		c := core.DefaultConfig(0)
		c.ProfileRuns = 25
		c.MeasureRuns = 1
		engVal, engErr = core.Build(g, c)
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return engVal, cfg
}

// batchGraph resizes the model's leading batch dimension; the weights stay
// bit-identical because the builder derives them from cfg.Seed only.
func batchGraph(cfg models.WideDeepConfig) func(int) (*graph.Graph, error) {
	return func(b int) (*graph.Graph, error) {
		c := cfg
		c.Batch = b
		return models.WideDeep(c)
	}
}

// inputsFor draws request i's deterministic input set.
func inputsFor(cfg models.WideDeepConfig, i int) map[string]*tensor.Tensor {
	return workload.WideDeepInputs(cfg, 1000+int64(i))
}

func sameTensors(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for oi := range want {
		g, w := got[oi], want[oi]
		if !tensor.ShapeEq(g.Shape(), w.Shape()) {
			t.Fatalf("%s: output %d shape %v, want %v", label, oi, g.Shape(), w.Shape())
		}
		for j := range w.Data() {
			if g.Data()[j] != w.Data()[j] {
				t.Fatalf("%s: output %d differs at %d: %v vs %v", label, oi, j, g.Data()[j], w.Data()[j])
			}
		}
	}
}

// TestServeBatchedBitEqualToInfer is the serving layer's core contract:
// coalescing requests into one batched execution and splitting the result
// must be bit-identical to running every request alone through Engine.Infer.
func TestServeBatchedBitEqualToInfer(t *testing.T) {
	e, cfg := testEngine(t)
	const n = 10
	refs := make([][]*tensor.Tensor, n)
	for i := range refs {
		ref, err := e.Infer(inputsFor(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.Outputs
	}
	// 3, 5 and 8 rows make the deep convolutions' 2×2 and 4×4 planes share
	// panels and blocks across images; a burst of 10 also leaves each size a
	// differently sized last batch.
	for _, maxBatch := range []int{3, 4, 5, 8} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			srv, err := New(Config{
				Engine:     e,
				BatchGraph: batchGraph(cfg),
				MaxBatch:   maxBatch,
				Window:     1e-3,
				Pipelined:  true,
				QueueCap:   256,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			reqs := OpenLoop(LoadSpec{
				Requests: n,
				Burst:    true,
				Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
			})
			rep, resps, err := srv.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK != n {
				t.Fatalf("report: %+v", rep)
			}
			widest := 0
			for i := range resps {
				widest = max(widest, resps[i].BatchRows)
			}
			if widest != maxBatch {
				t.Fatalf("burst of %d coalesced at most %d rows, want a full batch of %d", n, widest, maxBatch)
			}
			for i := range resps {
				sameTensors(t, "request", resps[i].Outputs, refs[i])
			}
		})
	}
}

// TestBatchEngineSharesBaseConsts: the BatchGraph factory re-derives every
// weight per batch size. The ones that equal the base engine's bit for bit
// must become the base engine's tensors — one pin record, one set of packed
// panels however many sizes are compiled — and one that differs must stay.
func TestBatchEngineSharesBaseConsts(t *testing.T) {
	e, cfg := testEngine(t)
	base, err := newBaseEngine(e, false)
	if err != nil {
		t.Fatal(err)
	}
	changed := ""
	factory := func(b int) (*graph.Graph, error) {
		g, err := batchGraph(cfg)(b)
		if err != nil {
			return nil, err
		}
		for _, n := range g.Nodes() {
			if n.IsConst() {
				n.Value.Data()[0]++
				changed = n.Name
				break
			}
		}
		return g, nil
	}
	be, err := newBatchEngine(Config{Engine: e, BatchGraph: factory}, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, n := range be.eng.Parent.Nodes() {
		if !n.IsConst() {
			continue
		}
		bn := base.eng.Parent.NodeByName(n.Name)
		if bn == nil {
			t.Fatalf("const %q has no namesake in the base graph", n.Name)
		}
		switch {
		case n.Name == changed && n.Value == bn.Value:
			t.Errorf("const %q differs from the base engine's and was replaced by it", n.Name)
		case n.Name != changed && n.Value != bn.Value:
			t.Errorf("const %q equals the base engine's bit for bit and kept its own copy", n.Name)
		case n.Name != changed:
			shared++
		}
	}
	if changed == "" || shared == 0 {
		t.Fatalf("nothing to compare: changed %q, shared %d", changed, shared)
	}
	// The modules hold what the graph holds: the subgraphs were cut after
	// the constants were interned.
	for _, sg := range be.eng.Partition.Subgraphs() {
		for _, n := range sg.Graph.Nodes() {
			if n.IsConst() && n.Name != changed && n.Value != base.eng.Parent.NodeByName(n.Name).Value {
				t.Errorf("subgraph const %q is not the base engine's tensor", n.Name)
			}
		}
	}
}

// TestBatcherStragglerFlushedAtWindow: a lone request must not wait
// forever for batch-mates — it flushes when the adaptive window expires.
func TestBatcherStragglerFlushedAtWindow(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{
		Engine:     e,
		BatchGraph: batchGraph(cfg),
		MaxBatch:   8,
		Window:     4e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reqs := OpenLoop(LoadSpec{
		Requests: 1,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	_, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Outcome != OK {
		t.Fatalf("straggler outcome %s: %v", resps[0].Outcome, resps[0].Err)
	}
	// expiry = arrival + Window·(1 - 1/MaxBatch) = 4ms · 7/8 = 3.5ms.
	want := 4e-3 * (1 - 1.0/8)
	if diff := resps[0].Dispatch - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("straggler dispatched at %.6fms, want %.6fms", resps[0].Dispatch*1e3, want*1e3)
	}

	// A full batch, by contrast, flushes immediately.
	full := OpenLoop(LoadSpec{
		Requests: 8,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	_, resps, err = srv.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if resps[i].Dispatch != 0 || resps[i].BatchRows != 8 {
			t.Fatalf("full batch member %d: dispatch=%.6fms rows=%d", i, resps[i].Dispatch*1e3, resps[i].BatchRows)
		}
	}
}

// TestBatcherIncompatibleNeverCoalesced: a request whose trailing
// dimensions do not match the model signature is refused outright, while a
// pre-batched but compatible request coalesces (rows sum).
func TestBatcherIncompatibleNeverCoalesced(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{
		Engine:     e,
		BatchGraph: batchGraph(cfg),
		MaxBatch:   8,
		Window:     1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	badCfg := cfg
	badCfg.SeqLen = 8 // wrong trailing dim on rnn.ids
	wideCfg := cfg
	wideCfg.Batch = 3 // pre-batched, compatible

	reqs := []Request{
		{ID: 0, Inputs: inputsFor(cfg, 0)},
		{ID: 1, Inputs: workload.WideDeepInputs(badCfg, 7)},
		{ID: 2, Inputs: workload.WideDeepInputs(wideCfg, 8)},
	}
	_, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[1].Outcome != Rejected {
		t.Fatalf("incompatible request outcome %s, want Rejected", resps[1].Outcome)
	}
	if resps[1].Err == nil || !strings.Contains(resps[1].Err.Error(), "never coalesced") {
		t.Fatalf("rejection should explain incompatibility, got %v", resps[1].Err)
	}
	if resps[0].Outcome != OK || resps[2].Outcome != OK {
		t.Fatalf("compatible requests failed: %v / %v", resps[0].Err, resps[2].Err)
	}
	// The 1-row and 3-row compatible requests share one 4-row batch.
	if resps[0].BatchRows != 4 || resps[2].BatchRows != 4 {
		t.Fatalf("compatible requests did not coalesce: rows %d and %d, want 4",
			resps[0].BatchRows, resps[2].BatchRows)
	}
}

// TestServeDeadlines exercises both deadline paths: admission control
// rejects unattainable deadlines up front, and queued requests that outlive
// their deadline expire instead of executing.
func TestServeDeadlines(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{
		Engine:    e,
		Admission: true,
		QueueCap:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	minSvc := srv.MinService()
	if minSvc <= 0 {
		t.Fatalf("min service %v", minSvc)
	}

	mk := func(id int, deadline float64) Request {
		return Request{ID: id, Inputs: inputsFor(cfg, id), Deadline: deadline}
	}
	// Four requests share a deadline class with room for only ~two
	// services: EDF serves what it can, the tail expires in the queue. The
	// deadline-less request runs last (it sorts after every deadline).
	reqs := []Request{
		mk(0, 0),        // no deadline: always served, after the EDF class
		mk(1, minSvc/2), // unattainable: rejected at admission
		mk(2, minSvc*2.2),
		mk(3, minSvc*2.2),
		mk(4, minSvc*2.2),
		mk(5, minSvc*2.2),
	}
	_, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[1].Outcome != Rejected {
		t.Fatalf("unattainable deadline outcome %s", resps[1].Outcome)
	}
	ok, expired := 0, 0
	for i := range resps {
		switch resps[i].Outcome {
		case OK:
			ok++
			if resps[i].Latency <= 0 {
				t.Fatalf("delivered with non-positive latency: %+v", resps[i])
			}
		case Expired:
			expired++
		}
	}
	if ok < 3 || expired < 1 {
		t.Fatalf("outcomes: ok=%d expired=%d (want ≥3 ok, ≥1 expired)", ok, expired)
	}
}

// TestServeBackpressure: a burst beyond the queue bound is partially
// rejected, and everything admitted is eventually served.
func TestServeBackpressure(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{Engine: e, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reqs := OpenLoop(LoadSpec{
		Requests: 12,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	rep, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatalf("queue cap 4 with burst 12 should reject: %+v", rep)
	}
	if rep.OK+rep.Rejected != 12 {
		t.Fatalf("outcomes do not partition the stream: %+v", rep)
	}
	for i := range resps {
		if resps[i].Outcome == Rejected && !strings.Contains(resps[i].Err.Error(), "queue full") {
			t.Fatalf("rejection reason: %v", resps[i].Err)
		}
	}
}

// TestServeReplicasShareCacheNotArenas: two replicas both serve work, and
// their separate arenas sit in front of the shared weights' packed panels
// (no panel is added once the base engine has packed its weights).
func TestServeReplicasShareCacheNotArenas(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{Engine: e, Replicas: 2, QueueCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := tensor.PackCacheSnapshot()
	reqs := OpenLoop(LoadSpec{
		Requests: 8,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	rep, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 8 {
		t.Fatalf("report: %+v", rep)
	}
	used := map[int]bool{}
	for i := range resps {
		used[resps[i].Replica] = true
	}
	if !used[0] || !used[1] {
		t.Fatalf("burst should exercise both replicas, used %v", used)
	}
	after := tensor.PackCacheSnapshot()
	if after.Hits <= before.Hits {
		t.Fatalf("replicas should hit the shared packed panels: %+v -> %+v", before, after)
	}
	if after.Entries > before.Entries {
		t.Fatalf("second replica repacked weights: %+v -> %+v", before, after)
	}
}

// TestServeDeterminism: identical configuration and stream reproduce the
// report exactly, including under seeded timing noise. The same stream
// handed over in reverse arrival order is served exactly once per request:
// every response lands at its request's index with a terminal outcome, and
// the outcome counters account for each request once.
func TestServeDeterminism(t *testing.T) {
	e, cfg := testEngine(t)
	run := func(reqs []Request, reg *obs.Registry) (*Report, []Response) {
		srv, err := New(Config{
			Engine:     e,
			BatchGraph: batchGraph(cfg),
			MaxBatch:   4,
			Window:     1e-3,
			Pipelined:  true,
			Seed:       11,
			QueueCap:   256,
			Registry:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rep, resps, err := srv.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep, resps
	}
	stream := func() []Request {
		return OpenLoop(LoadSpec{
			Requests: 6,
			QPS:      2000,
			Seed:     3,
			Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
		})
	}
	a, _ := run(stream(), nil)
	b, _ := run(stream(), nil)
	if a.String() != b.String() {
		t.Fatalf("non-deterministic serving:\n%v\n%v", a, b)
	}
	if a.Makespan != b.Makespan || a.P99Latency != b.P99Latency || a.Throughput != b.Throughput {
		t.Fatalf("non-deterministic timing: %v vs %v", a, b)
	}

	reqs := stream()
	for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	reg := obs.NewRegistry()
	_, resps := run(reqs, reg)
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	terminal := map[Outcome]bool{OK: true, Rejected: true, Expired: true, Failed: true}
	for i := range resps {
		if resps[i].ID != reqs[i].ID {
			t.Fatalf("response %d has ID %d, want %d", i, resps[i].ID, reqs[i].ID)
		}
		if !terminal[resps[i].Outcome] {
			t.Fatalf("response %d (ID %d) has no terminal outcome: %q", i, resps[i].ID, resps[i].Outcome)
		}
	}
	var counted int64
	for o := range terminal {
		counted += reg.Counter(obs.Series("serve_requests_total", "outcome", string(o))).Value()
	}
	if counted != int64(len(reqs)) {
		t.Fatalf("outcome counters record %d deliveries for %d requests", counted, len(reqs))
	}
}

// TestServeShedReasonsTyped pins the typed shed taxonomy: every shed
// response carries the reason matching its path (queue full →
// backpressure, admission or queued deadline lapse → deadline, signature
// mismatch → invalid), delivered responses carry ShedNone, and Report.Shed
// breaks the shed count down by exactly those reasons.
func TestServeShedReasonsTyped(t *testing.T) {
	e, cfg := testEngine(t)

	// Backpressure: a burst past the queue cap.
	srv, err := New(Config{Engine: e, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := OpenLoop(LoadSpec{
		Requests: 5,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	rep, resps, err := srv.Run(reqs)
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 3 || rep.Shed[ShedBackpressure] != 3 {
		t.Fatalf("burst 5 over cap 2: rejected=%d shed=%v", rep.Rejected, rep.Shed)
	}
	for i := range resps {
		want := ShedNone
		if resps[i].Outcome == Rejected {
			want = ShedBackpressure
		}
		if resps[i].Reason != want {
			t.Fatalf("response %d (%s): reason %q, want %q", i, resps[i].Outcome, resps[i].Reason, want)
		}
	}
	if !strings.Contains(rep.String(), "shed[backpressure=3]") {
		t.Fatalf("report omits the shed breakdown: %s", rep)
	}

	// Deadline (both the admission and the queued-expiry path) plus an
	// invalid-signature rejection, all in one stream.
	srv2, err := New(Config{Engine: e, Admission: true, QueueCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	minSvc := srv2.MinService()
	badCfg := cfg
	badCfg.SeqLen = 8 // wrong trailing dim on rnn.ids
	reqs2 := []Request{
		{ID: 0, Inputs: inputsFor(cfg, 0), Deadline: minSvc / 2}, // unattainable at admission
		{ID: 1, Inputs: workload.WideDeepInputs(badCfg, 7)},      // signature mismatch
		{ID: 2, Inputs: inputsFor(cfg, 2), Deadline: minSvc * 2.2},
		{ID: 3, Inputs: inputsFor(cfg, 3), Deadline: minSvc * 2.2},
		{ID: 4, Inputs: inputsFor(cfg, 4), Deadline: minSvc * 2.2},
		{ID: 5, Inputs: inputsFor(cfg, 5), Deadline: minSvc * 2.2},
	}
	rep2, resps2, err := srv2.Run(reqs2)
	srv2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resps2[0].Outcome != Rejected || resps2[0].Reason != ShedDeadline {
		t.Fatalf("admission rejection: outcome=%s reason=%q, want rejected/deadline",
			resps2[0].Outcome, resps2[0].Reason)
	}
	if resps2[1].Outcome != Rejected || resps2[1].Reason != ShedInvalid {
		t.Fatalf("invalid inputs: outcome=%s reason=%q, want rejected/invalid",
			resps2[1].Outcome, resps2[1].Reason)
	}
	if rep2.Expired < 1 {
		t.Fatalf("deadline class left no queued expiry: %+v", rep2)
	}
	for i := range resps2 {
		if resps2[i].Outcome == Expired && resps2[i].Reason != ShedDeadline {
			t.Fatalf("expired response %d has reason %q, want deadline", i, resps2[i].Reason)
		}
		if resps2[i].Outcome == OK && resps2[i].Reason != ShedNone {
			t.Fatalf("delivered response %d carries shed reason %q", i, resps2[i].Reason)
		}
	}
	if rep2.Shed[ShedDeadline] != rep2.Expired+1 || rep2.Shed[ShedInvalid] != 1 {
		t.Fatalf("shed breakdown %v does not partition expired=%d + admission rejections",
			rep2.Shed, rep2.Expired)
	}
}

// poisonArena overwrites every buffer the arena currently pools, in the size
// classes the test model uses, with NaN: an output that aliases a recycled
// buffer shows up as NaN in its holder's hands.
func poisonArena(ar *tensor.Arena) {
	nan := float32(math.NaN())
	var held []*tensor.Tensor
	for bits := 6; bits <= 18; bits++ {
		for i := 0; i < 4; i++ {
			t := ar.NewNoZero(1 << bits)
			t.Data()[0] = nan
			for filled := 1; filled < len(t.Data()); filled *= 2 {
				copy(t.Data()[filled:], t.Data()[:filled])
			}
			held = append(held, t)
		}
	}
	for _, t := range held {
		ar.Release(t)
	}
}

// TestServeBatchRecyclesMidBatch: a served batch fires its subgraphs through
// the engine's own rule, so its cross-subgraph intermediates return to the
// replica arena as the batch runs — exactly the buffers a Run of the batch
// engine returns — instead of living until finalize. Member outputs stay
// bit-identical to each request run alone once every pooled buffer has been
// overwritten, for a batch driven by hand (so the count can be read before
// finalize) and for depth-2 pipelined batches sharing the replica arena
// through the device workers.
func TestServeBatchRecyclesMidBatch(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{
		Engine:     e,
		BatchGraph: batchGraph(cfg),
		MaxBatch:   2,
		Window:     1e-3,
		Pipelined:  true,
		QueueCap:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := srv.replicas[0]
	alone := func(i int) []*tensor.Tensor {
		ref, err := e.Infer(inputsFor(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		return ref.Outputs
	}

	// Through the workers: three 2-row batches, two in flight at a time on
	// one arena. This also warms the arena and builds the 2-row engine.
	const n = 6
	reqs := OpenLoop(LoadSpec{
		Requests: n,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	rep, resps, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != n {
		t.Fatalf("report: %+v", rep)
	}
	poisonArena(r.arena)
	for i := range resps {
		if resps[i].BatchRows != 2 {
			t.Fatalf("request %d rode a %d-row batch, want 2", i, resps[i].BatchRows)
		}
		sameTensors(t, "pipelined request", resps[i].Outputs, alone(i))
	}

	// By hand: the same batch, fired in partition order on this goroutine.
	be, err := srv.batchEngineFor(2)
	if err != nil {
		t.Fatal(err)
	}
	crossing := map[graph.NodeID]bool{}
	for _, sub := range be.eng.Subgraphs() {
		for _, id := range sub.BoundaryInputs {
			crossing[id] = true
		}
	}
	for _, id := range append(be.eng.Parent.InputIDs(), be.eng.Parent.Outputs()...) {
		delete(crossing, id)
	}
	if len(crossing) < 2 {
		t.Fatalf("model has %d cross-subgraph intermediates, want ≥ 2", len(crossing))
	}
	members := []*pending{{req: &reqs[0], rows: 1}, {req: &reqs[1], rows: 1}}
	b, err := newBatch(be, members, r.arena)
	if err != nil {
		t.Fatal(err)
	}
	stacked := map[string]*tensor.Tensor{}
	for i, id := range be.eng.Parent.InputIDs() {
		stacked[be.eng.Parent.Node(id).Name] = b.stacked[i]
	}
	before := be.eng.Arena().Stats().Recycled
	if _, err := be.eng.Run(stacked, be.place, true); err != nil {
		t.Fatal(err)
	}
	want := be.eng.Arena().Stats().Recycled - before

	before = r.arena.Stats().Recycled
	for i := range be.eng.Subgraphs() {
		b.flow.Fire(i)
	}
	if got := r.arena.Stats().Recycled - before; got != want || got < int64(len(crossing)) {
		t.Fatalf("batch recycled %d buffers before finalize, a Run of its engine %d (%d cross subgraphs)", got, want, len(crossing))
	}
	b.finalize(r.arena)
	poisonArena(r.arena)
	for mi := range members {
		sameTensors(t, "hand-fired member", b.memberOuts[mi], alone(mi))
	}
}

// TestServeFailedBatch: a batch one of whose modules fails delivers Failed
// with the module's error to every member — the dataflow drains on
// placeholders rather than stalling the workers — and the replica serves the
// next batch.
func TestServeFailedBatch(t *testing.T) {
	e, cfg := testEngine(t)
	srv, err := New(Config{
		Engine:     e,
		BatchGraph: batchGraph(cfg),
		MaxBatch:   2,
		Window:     1e-3,
		QueueCap:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := OpenLoop(LoadSpec{
		Requests: 2,
		Burst:    true,
		Inputs:   func(i int) map[string]*tensor.Tensor { return inputsFor(cfg, i) },
	})
	be, err := srv.batchEngineFor(2)
	if err != nil {
		t.Fatal(err)
	}

	// A module whose graph has a placeholder nothing binds fails in
	// ExecuteArena. The 2-row engine's modules are its own, and the workers
	// only read them between a job's channel receive and the batch's done.
	unbound := graph.New("failing")
	unbound.SetOutputs(unbound.Add("relu", "r", nil, unbound.AddInput("never.bound", 1, 4)))
	mid := be.eng.NumSubgraphs() / 2
	mod := be.eng.Module(mid)
	good := mod.Graph
	mod.Graph = unbound
	_, resps, err := srv.Run(reqs)
	mod.Graph = good
	if err != nil {
		t.Fatal(err)
	}
	name := be.eng.Subgraphs()[mid].Graph.Name
	for i := range resps {
		if resps[i].Outcome != Failed || resps[i].Err == nil || !strings.Contains(resps[i].Err.Error(), name) {
			t.Fatalf("member %d: outcome %s, err %v; want Failed on %s", i, resps[i].Outcome, resps[i].Err, name)
		}
	}

	_, resps, err = srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if resps[i].Outcome != OK {
			t.Fatalf("member %d after the failed batch: outcome %s, err %v", i, resps[i].Outcome, resps[i].Err)
		}
	}
}
