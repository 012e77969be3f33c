GO ?= go

.PHONY: all build check fmt-check vet test test-race test-short bench bench-obs bench-kernels bench-serve bench-host bench-host-compare experiments quick-experiments report fuzz clean

all: build check

build:
	$(GO) build ./...
	$(GO) vet ./...

## Full verification gate: formatting, vet, and the race-enabled test suite.
## The race suite runs two test binaries at a time (-p 2): race-instrumented
## binaries are memory-hungry, and the unbounded form gets OOM-killed on
## small hosts. It bounds parallelism only; every package runs.
## The default `make` target runs this, so concurrency regressions (executor
## workers, MPMC queue, metrics registry) cannot slip through
## a plain build. The obs package gets an extra high-iteration race pass: it
## is touched from every worker goroutine in the runtime.
## The arena's allocation guards (TestArenaCutsSteadyStateAllocs,
## TestArenaSurvivesGC) run in the race suite above: the arena is a plain
## free list, so its accounting holds under -race and through collections.
## A plain pass holds the full-size MT-DNN to a warm run that packs no
## weight again (the test skips under -race: the full-size model is too
## slow to build there).
## The serve package gets a dedicated high-iteration race pass: replicas
## share compiled modules and the weights' packed panels while drawing
## activations from separate arenas, a replica's in-flight pipelined batches
## recycle intermediates into one arena mid-batch, and the smoke test pins
## the pipelined serving stack's throughput floor over the serial Infer loop.
## The host firing rule (runtime.Dataflow.Fire — bind, execute, publish,
## recycle, signal under one mutex) and the LaneSet that RunParallel and
## every serve replica run on get 20 iterations under -race: RunParallel's
## value-equality test, whose workers park on the sync queue, the
## multiplexing test, which keeps two engines' dataflows in flight on one
## set, and the legal-orders test, which fires every small-zoo model from 1,
## 2 and 4 goroutines in seeded-random order (~15 s an iteration). A lost
## wake-up, a double signal, a reused slot or an early release shows only on
## some interleavings. The idle-lane tests then run plain at GOMAXPROCS 1
## and 2: an idle lane must park rather than poll, and a one-P run is where
## a test that assumes both lanes run side by side breaks.
## The tensor package is tested a second time under the purego tag — the
## portable Go microkernels are the reference the AVX2 assembly is held to
## and the only GEMM path off amd64, so they pass the identical suite — and
## the whole tree is cross-built for arm64 to prove the build tags (offline:
## the standard library is the only dependency). The served-batch cells of
## BenchmarkConv2D (the last three ResNet stages at 64², eight images: the
## shapes whose blocks span images), the transcendental loops, the
## dense + GELU layer and MT-DNN's attention (core and whole layer) run once
## at every kernel tier the machine has, so they cannot rot.
## The sequence-level RNN tests run five more times under the race detector
## at GOMAXPROCS 1 and 2: the time loop's steps are split between the caller
## and a pool helper (stepLoop), and a lost hand-off or a missing wait between
## steps shows as a race report, a hang or a changed bit.
## The packed-panel first-use test gets the same five passes: replicas that
## meet on a cold weight publish its panels by compare-and-swap, the one
## concurrent path in internal/tensor/packcache.go, and a loser must return
## the winner's panel, never one packed for other dimensions.
## The host-clock benchmark in bench/ is a nested module that compiles
## against the exported runtime/schedule/serve API and may not be edited by
## the PRs it measures, so a rename that breaks the harness has to fail here,
## not in the pipeline: it is vetted and its own tests run.
## The suite reports get one plain (non-race) pass; both tests skip under
## -race, so the race suite above only compiles them. TestSuiteGolden pins
## every virtual-clock leaf of the obs, serve and kernels reports at quick
## scale and seeds 42-44, exactly, against internal/experiments/testdata/
## suites.json. TestFusionSpeedupBar is the one wall-clock gate: the median
## fusion speedup of three quick runs must clear FusionSpeedupBar and 0.75x
## the value recorded in BENCH_kernels.json (wall-clock, so don't run other
## CPU-heavy work next to it).
check: fmt-check vet
	$(GO) test -race -p 2 ./...
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...
	$(GO) test -count=1 -tags purego ./internal/tensor/...
	$(GO) test -race -count=5 -cpu 1,2 -run 'TestRNNSeq' ./internal/tensor/
	$(GO) test -race -count=5 -cpu 1,2 -run TestPackedPanelsConcurrentFirstUse ./internal/tensor/
	$(GO) test -run xxx -bench 'Conv2D/.*x8|Transcendentals|LinearGELU|Attention' -benchtime 1x ./internal/tensor/
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race -count=2 ./internal/obs/...
	$(GO) test -race -count=2 -run 'TestConcurrentExecuteArena|TestServeSmoke|TestServeBatchRecyclesMidBatch' ./internal/serve/
	$(GO) test -race -count=20 -run 'TestRunParallelMatchesSerialValues|TestLaneSetMultiplexesDataflows|TestDataflowLegalOrders' ./internal/runtime/
	$(GO) test -count=3 -cpu 1,2 -run 'TestRunParallelIdle' ./internal/runtime/
	$(GO) test -count=1 -run TestMTDNNWarmRunPacksNothing ./internal/runtime/
	$(GO) test -count=1 -run 'TestSuiteGolden|TestFusionSpeedupBar' ./internal/experiments/
	@./bin/duet-vet -summary .

## Wall-clock budget for the vet target, in seconds. The recipe prints the
## elapsed time every run and fails when the budget is blown, so analyzer
## slowdowns surface as a red gate instead of silently taxing every check.
VET_BUDGET ?= 180

## duet-vet is a file target on its own sources (the analysis framework,
## the command, and the verify package it prints the pass roster from), so
## editing an analyzer rebuilds the binary. A stale bin/duet-vet previously
## let `make vet` pass against code the current analyzers would flag.
DUET_VET_SRC := $(wildcard cmd/duet-vet/*.go) $(wildcard internal/analysis/*.go) $(wildcard internal/verify/*.go) go.mod

bin/duet-vet: $(DUET_VET_SRC)
	$(GO) build -o $@ ./cmd/duet-vet

## Static analysis gate: stock go vet plus the repo's custom analyzer suite
## (vclockpurity, arenainto, obsnames, lockorder, chanleak, sharednoescape)
## run through the real -vettool protocol. govulncheck runs when installed;
## the container image does not ship it, so its absence is not a failure.
vet: bin/duet-vet
	@start=$$(date +%s) && \
	$(GO) vet ./... && \
	$(GO) vet -vettool=$(abspath bin/duet-vet) ./... && \
	if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi && \
	end=$$(date +%s) && elapsed=$$((end - start)) && \
	echo "vet: completed in $${elapsed}s (budget $(VET_BUDGET)s)" && \
	if [ $$elapsed -gt $(VET_BUDGET) ]; then \
		echo "vet: exceeded the $(VET_BUDGET)s timing budget"; exit 1; fi

## Fail if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: check
	$(GO) test ./...

test-race:
	$(GO) test -race -p 2 ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

## Regenerate every paper table/figure at paper scale (5000 runs).
experiments:
	$(GO) run ./cmd/duet-bench | tee experiments_full.txt

## Fast smoke pass over all experiments.
quick-experiments:
	$(GO) run ./cmd/duet-bench -quick

## Machine-readable report at paper scale (for plotting).
report:
	$(GO) run ./cmd/duet-bench -json report.json

## Re-record the suite golden table (internal/experiments/testdata/
## suites.json) after a change that is meant to move a virtual-clock number:
## the obs report (metrics snapshot of a fully exercised instrumented engine
## plus the scheduler's placement audit), the serving benchmark (serial Infer
## loop vs the concurrent server unbatched, batched and batched+pipelined,
## under burst and Poisson load) and the kernels report's launch counts, at
## seeds 42-44. Both targets run the same -update pass over the whole
## package (unfiltered, so a key no report produces any more leaves the
## file); name the moved keys (git diff) in CHANGES.md.
bench-obs bench-serve:
	$(GO) test -count=1 ./internal/experiments/ -update

## Regenerate the kernels record: the fusion ablation (launch counts and
## warm wall time of three chain-heavy workloads, fusion off vs on). Kernel
## GFLOP/s per tier are `go test -bench` benchmarks in internal/tensor.
## Quick scale: TestFusionSpeedupBar re-runs the ablation quick and holds
## its geomean to 0.75x the recorded one, and comparing across sampling
## scales injects a systematic offset into that gate.
bench-kernels:
	$(GO) run ./cmd/duet-bench -quick -kernels BENCH_kernels.json

## Host-clock benchmark (BENCHMARK.json; bench/README.md): every workload
## in its own process, traced, collected with the environment stamp into
## .bench_build/host.json (~3 min). Deliberately not part of `check`: its
## numbers are wall-clock and only mean something as alternating
## parent/change pairs on a quiet host (bench/README.md "Noise").
bench-host:
	bash bench/run.sh --workload all --out .bench_build/host.json

## Compare two --out files metric by metric and workload by workload
## (ok / worse / unresolved; refuses differing environment stamps):
##   make bench-host-compare A=parent.json B=change.json
bench-host-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-host-compare A=a.json B=b.json"; exit 2; }
	bash bench/run.sh --compare $(A) $(B)

## Fuzz the Relay parser for 30s.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/relay

clean:
	rm -f report.json trace.json
	rm -rf bin
