// Package schedule implements DUET's greedy-correction subgraph scheduling
// (§IV-C, Algorithm 1) and the comparison baselines evaluated in the paper
// (Random, Round-Robin, Random+Correction, exhaustive Ideal, Fig. 13).
//
// Greedy-correction proceeds in three steps: (1) pin the critical path onto
// each subgraph's fastest device, (2) greedily place remaining multi-path
// subgraphs to minimise the growth of the critical path, then (3) correct
// the placement per multi-path phase with latency-measured swaps — a
// Kernighan-Lin-style refinement whose objective is end-to-end latency
// rather than edge cut.
package schedule

import (
	"fmt"
	"math/rand"
	"sort"

	"duet/internal/device"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/vclock"
)

// Measure evaluates the end-to-end latency of a placement. Implementations
// typically average a handful of engine runs; the scheduler treats it as an
// oracle, exactly like the paper's measure_latency.
type Measure func(runtime.Placement) (vclock.Seconds, error)

// EngineMeasure adapts an engine into a Measure averaging `runs` samples.
func EngineMeasure(e *runtime.Engine, runs int) Measure {
	return func(p runtime.Placement) (vclock.Seconds, error) {
		samples, err := e.MeasureLatency(p, runs)
		if err != nil {
			return 0, err
		}
		return vclock.Mean(samples), nil
	}
}

// Scheduler binds a partition, its profiled records, and a latency oracle.
type Scheduler struct {
	Partition *partition.Partition
	Records   []profile.Record
	Measure   Measure
	// MaxCorrectionRounds bounds step-3 sweeps per phase (paper: terminate
	// after x rounds without improvement; one full sweep without gain stops
	// here).
	MaxCorrectionRounds int
}

// New returns a scheduler with default correction bounds.
func New(p *partition.Partition, records []profile.Record, measure Measure) (*Scheduler, error) {
	n := len(p.Subgraphs())
	if len(records) != n {
		return nil, fmt.Errorf("schedule: %d records for %d subgraphs", len(records), n)
	}
	return &Scheduler{Partition: p, Records: records, Measure: measure, MaxCorrectionRounds: 8}, nil
}

// flatIndexRanges returns, per phase, the [lo, hi) flat subgraph range.
func (s *Scheduler) flatIndexRanges() [][2]int {
	var out [][2]int
	i := 0
	for _, ph := range s.Partition.Phases {
		out = append(out, [2]int{i, i + len(ph.Subgraphs)})
		i += len(ph.Subgraphs)
	}
	return out
}

// Greedy runs steps 1 and 2 of Algorithm 1 and returns the initial
// placement.
func (s *Scheduler) Greedy() runtime.Placement {
	return s.greedy(nil)
}

// greedy is the audited implementation of steps 1-2; a may be nil.
func (s *Scheduler) greedy(a *Audit) runtime.Placement {
	n := len(s.Records)
	place := make(runtime.Placement, n)
	subs := s.Partition.Subgraphs()
	record := func(i int, reason string, margin float64) {
		if a == nil {
			return
		}
		a.Subgraphs = append(a.Subgraphs, SubgraphAudit{
			Index:      i,
			Name:       subs[i].Graph.Name,
			CPUSeconds: s.Records[i].TimeOn(device.CPU),
			GPUSeconds: s.Records[i].TimeOn(device.GPU),
			Chosen:     kindName(place[i]),
			Reason:     reason,
			Fused:      s.Records[i].Fused,
			MarginFrac: margin,
			TieBreak:   margin < TieMarginFrac,
		})
	}
	ranges := s.flatIndexRanges()
	for pi, ph := range s.Partition.Phases {
		lo, hi := ranges[pi][0], ranges[pi][1]
		if ph.Kind == partition.Sequential || hi-lo == 1 {
			// Step 1: a sequential-phase subgraph is on the critical path by
			// definition; give it its fastest device.
			span := vclock.Seconds(0)
			for i := lo; i < hi; i++ {
				place[i] = s.Records[i].Faster()
				span += s.Records[i].Best()
				record(i, ReasonSequential, s.Records[i].Margin())
			}
			if a != nil {
				a.Phases = append(a.Phases, PhaseAudit{
					Index: pi, Kind: ph.Kind.String(), Lo: lo, Hi: hi,
					Critical: -1, PredictedMakespan: span,
				})
				a.PredictedCritical += span
			}
			continue
		}
		// Step 1 (multi-path): the subgraph with the maximum best-case cost
		// anchors the phase's critical path; pin it to its faster device.
		crit := lo
		for i := lo + 1; i < hi; i++ {
			if s.Records[i].Best() > s.Records[crit].Best() {
				crit = i
			}
		}
		place[crit] = s.Records[crit].Faster()
		record(crit, ReasonCriticalPin, s.Records[crit].Margin())
		load := [2]vclock.Seconds{}
		load[place[crit]] = s.Records[crit].Best()

		// Step 2: remaining subgraphs in decreasing cost order, each to the
		// device that minimises the phase makespan (the increase of the
		// critical path).
		rest := make([]int, 0, hi-lo-1)
		for i := lo; i < hi; i++ {
			if i != crit {
				rest = append(rest, i)
			}
		}
		sort.Slice(rest, func(a, b int) bool {
			return s.Records[rest[a]].Best() > s.Records[rest[b]].Best()
		})
		for _, i := range rest {
			rec := s.Records[i]
			bestKind := device.CPU
			var spans [2]vclock.Seconds
			for _, kind := range []device.Kind{device.CPU, device.GPU} {
				l := load
				l[kind] += rec.TimeOn(kind)
				makespan := l[device.CPU]
				if l[device.GPU] > makespan {
					makespan = l[device.GPU]
				}
				spans[kind] = makespan
			}
			// CPU-first on equal makespans, matching the record tie-break.
			if spans[device.GPU] < spans[device.CPU] {
				bestKind = device.GPU
			}
			place[i] = bestKind
			load[bestKind] += rec.TimeOn(bestKind)
			record(i, ReasonGreedyBalance, marginFrac(spans[device.CPU], spans[device.GPU]))
		}
		if a != nil {
			makespan := load[device.CPU]
			if load[device.GPU] > makespan {
				makespan = load[device.GPU]
			}
			a.Phases = append(a.Phases, PhaseAudit{
				Index: pi, Kind: ph.Kind.String(), Lo: lo, Hi: hi,
				Critical: crit, PredictedMakespan: makespan,
			})
			a.PredictedCritical += makespan
		}
	}
	if a != nil {
		// Greedy emits audits in placement order, not flat order, for
		// multi-path phases (critical pin first, then decreasing cost);
		// restore flat order so readers can index by subgraph.
		sort.Slice(a.Subgraphs, func(x, y int) bool {
			return a.Subgraphs[x].Index < a.Subgraphs[y].Index
		})
	}
	return place
}

// Correct runs step 3 on the given placement: for every multi-path phase it
// repeatedly applies the single swap or move that most reduces measured
// end-to-end latency, until a sweep yields no gain (or the round budget is
// exhausted). The input placement is not mutated.
func (s *Scheduler) Correct(initial runtime.Placement) (runtime.Placement, error) {
	return s.correct(initial, nil)
}

// correct is the audited implementation of step 3; a may be nil.
func (s *Scheduler) correct(initial runtime.Placement, a *Audit) (runtime.Placement, error) {
	place := initial.Clone()
	cur, err := s.Measure(place)
	if err != nil {
		return nil, err
	}
	if a != nil {
		a.InitialMeasured = cur
		a.FinalMeasured = cur
	}
	ranges := s.flatIndexRanges()
	for pi, ph := range s.Partition.Phases {
		if ph.Kind != partition.MultiPath {
			continue
		}
		lo, hi := ranges[pi][0], ranges[pi][1]
		for round := 0; round < s.MaxCorrectionRounds; round++ {
			bestGain := vclock.Seconds(0)
			var bestPlace runtime.Placement
			var bestLat vclock.Seconds
			bestMove := SwapAudit{Phase: pi, Round: round}
			try := func(cand runtime.Placement, kind string, i, j int) error {
				lat, err := s.Measure(cand)
				if err != nil {
					return err
				}
				if gain := cur - lat; gain > bestGain {
					bestGain = gain
					bestPlace = cand
					bestLat = lat
					bestMove.Kind, bestMove.I, bestMove.J = kind, i, j
				}
				return nil
			}
			// Single moves (the paper's "one of the subgraphs could be
			// empty") and pair swaps across devices.
			for i := lo; i < hi; i++ {
				cand := place.Clone()
				cand[i] = cand[i].Other()
				if err := try(cand, "move", i, -1); err != nil {
					return nil, err
				}
				for j := i + 1; j < hi; j++ {
					if place[j] == place[i] {
						continue
					}
					swap := place.Clone()
					swap[i], swap[j] = swap[j], swap[i]
					if err := try(swap, "swap", i, j); err != nil {
						return nil, err
					}
				}
			}
			if bestPlace == nil {
				break
			}
			if a != nil {
				bestMove.Before = place.String()
				bestMove.After = bestPlace.String()
				bestMove.LatBefore = cur
				bestMove.LatAfter = bestLat
				bestMove.Gain = bestGain
				a.Swaps = append(a.Swaps, bestMove)
				a.FinalMeasured = bestLat
			}
			place = bestPlace
			cur = bestLat
		}
	}
	return place, nil
}

// marginFrac returns the relative separation |a-b|/max(a,b) in [0, 1] of
// two candidate costs; 0 for an exact tie.
func marginFrac(a, b vclock.Seconds) float64 {
	hi := a
	if b > hi {
		hi = b
	}
	if hi <= 0 {
		return 0
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d / float64(hi)
}

// GreedyCorrection runs the full Algorithm 1.
func (s *Scheduler) GreedyCorrection() (runtime.Placement, error) {
	return s.Correct(s.Greedy())
}

// Random assigns each subgraph to a uniformly random device.
func (s *Scheduler) Random(rng *rand.Rand) runtime.Placement {
	place := make(runtime.Placement, len(s.Records))
	for i := range place {
		if rng.Intn(2) == 1 {
			place[i] = device.GPU
		}
	}
	return place
}

// RandomCorrection applies step-3 correction to a random initialisation.
func (s *Scheduler) RandomCorrection(rng *rand.Rand) (runtime.Placement, error) {
	return s.Correct(s.Random(rng))
}

// RoundRobin alternates subgraphs between CPU and GPU in flat order.
func (s *Scheduler) RoundRobin() runtime.Placement {
	place := make(runtime.Placement, len(s.Records))
	for i := range place {
		if i%2 == 1 {
			place[i] = device.GPU
		}
	}
	return place
}

// Ideal exhaustively enumerates every placement and returns the measured
// optimum. Finding the optimal schedule is NP-hard in general; this is only
// feasible for small subgraph counts (the paper does the same to validate
// greedy-correction empirically) and refuses more than 20 subgraphs.
func (s *Scheduler) Ideal() (runtime.Placement, vclock.Seconds, error) {
	n := len(s.Records)
	if n > 20 {
		return nil, 0, fmt.Errorf("schedule: Ideal is infeasible for %d subgraphs", n)
	}
	var best runtime.Placement
	bestLat := vclock.Seconds(-1)
	for mask := 0; mask < 1<<n; mask++ {
		place := make(runtime.Placement, n)
		for i := range place {
			if mask&(1<<i) != 0 {
				place[i] = device.GPU
			}
		}
		lat, err := s.Measure(place)
		if err != nil {
			return nil, 0, err
		}
		if bestLat < 0 || lat < bestLat {
			bestLat = lat
			best = place
		}
	}
	return best, bestLat, nil
}
