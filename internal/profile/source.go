package profile

import (
	"duet/internal/compiler"
	"duet/internal/partition"
)

// SourceStats accounts for how a source obtained its records — the numbers
// the O(subgraphs × devices) profiling-wall work is judged by.
type SourceStats struct {
	// Subgraphs is the number of records produced.
	Subgraphs int
	// Microbenchmarks is the total number of micro-benchmark executions run
	// (one per device per repetition); zero on a cache hit.
	Microbenchmarks int
	// CacheHits counts whole-model profile-cache hits.
	CacheHits int
}

// MeasuredSource micro-benchmarks every subgraph of a partition with the
// profiler. When Cache is non-nil, a whole-model content-hash lookup skips
// profiling entirely for unchanged models; Modules (optional, flat partition
// order) supplies pre-compiled modules so profiling reuses the engine's
// compile work instead of recompiling each subgraph.
type MeasuredSource struct {
	Profiler *Profiler
	// Modules, when non-nil, holds each subgraph's compiled module in flat
	// partition order.
	Modules []*compiler.Module
	Cache   *Cache
	// Salt distinguishes cache entries taken under different platform seeds
	// or repetition counts.
	Salt  uint64
	stats SourceStats
}

// Stats reports the last Records call's accounting.
func (s *MeasuredSource) Stats() SourceStats { return s.stats }

// Records micro-benchmarks every subgraph (or returns the cached profile),
// one record per subgraph in flat partition order.
func (s *MeasuredSource) Records(part *partition.Partition) ([]Record, error) {
	subs := part.Subgraphs()
	s.stats = SourceStats{Subgraphs: len(subs)}
	var key string
	if s.Cache != nil {
		key = CacheKey(part.Parent, s.Profiler.Options, s.Salt)
		if recs := s.Cache.Get(key); recs != nil {
			s.stats.CacheHits = 1
			return recs, nil
		}
	}
	before := s.Profiler.Benchmarks
	records := make([]Record, 0, len(subs))
	for i, sub := range subs {
		var rec Record
		if s.Modules != nil {
			rec = s.Profiler.ProfileModule(part.Parent, sub, s.Modules[i], i)
		} else {
			r, err := s.Profiler.ProfileSubgraph(part.Parent, sub, i)
			if err != nil {
				return nil, err
			}
			rec = r
		}
		records = append(records, rec)
	}
	s.stats.Microbenchmarks = s.Profiler.Benchmarks - before
	if s.Cache != nil {
		s.Cache.Put(key, records)
	}
	return records, nil
}
