package main

import (
	"slices"
	"sort"
)

// summary describes one timing sample set the way the benchmark reports it:
// the median, the quartiles beside it, and the highest percentile that still
// has at least ten samples beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Tail is the sample at TailPct; with fewer than ten samples beyond the
	// median the sample set supports only the median, and Tail repeats it.
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// summarize sorts a copy of xs; an empty set gives the zero summary.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := quantile(s, 2)
	out := summary{N: n, Median: med, Q1: quantile(s, 1), Q3: quantile(s, 3), Tail: med, TailPct: 50}
	if i := n - 11; i > (n-1)/2 {
		out.Tail, out.TailPct = s[i], 100*float64(i+1)/float64(n)
	}
	return out
}

// quantile returns the i-th quartile cut of sorted s by the rule Python's
// statistics.quantiles(s, n=4) uses (exclusive method), so a spread computed
// here matches one computed from the printed values.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// fastTime and fastRate are the estimators behind every reported timing: the
// mean of the fastest tenth of the samples, at least two of them — the lowest
// times, the highest rates. The host only ever slows the program down, and
// does so in episodes that outlast a run, so the middle of a run's samples
// moves with the host while their fast end stays with the program (README,
// "Noise"); unlike the minimum it does not rest on one sample.
func fastTime(xs []float64) float64 { return fastest(xs, false) }
func fastRate(xs []float64) float64 { return fastest(xs, true) }

func fastest(xs []float64, higherIsFaster bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsFaster {
		slices.Reverse(s)
	}
	k := min(len(s), max(2, (len(s)+9)/10))
	if k == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}
