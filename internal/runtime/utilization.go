package runtime

import (
	"fmt"
	"sort"
	"strings"

	"duet/internal/vclock"
)

// Utilization summarises how a run used the platform: per-track busy time
// and the fraction of the makespan during which the CPU and GPU computed
// concurrently — the overlap DUET exists to create.
type Utilization struct {
	// Busy maps each track (device or link name) to its total busy time.
	Busy map[string]vclock.Seconds
	// Makespan is the run's end-to-end latency.
	Makespan vclock.Seconds
	// Overlap is the total time during which two or more compute tracks
	// were simultaneously busy.
	Overlap vclock.Seconds
}

// BusyFraction returns a track's busy share of the makespan.
func (u Utilization) BusyFraction(track string) float64 {
	if u.Makespan <= 0 {
		return 0
	}
	return u.Busy[track] / u.Makespan
}

// OverlapFraction returns the co-execution share of the makespan.
func (u Utilization) OverlapFraction() float64 {
	if u.Makespan <= 0 {
		return 0
	}
	return u.Overlap / u.Makespan
}

// String renders the utilization summary.
func (u Utilization) String() string {
	tracks := make([]string, 0, len(u.Busy))
	for t := range u.Busy {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	var b strings.Builder
	for i, t := range tracks {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.0f%%", t, u.BusyFraction(t)*100)
	}
	fmt.Fprintf(&b, "; co-execution %.0f%% of %.3fms", u.OverlapFraction()*100, u.Makespan*1e3)
	return b.String()
}

// interval is a half-open busy window on one track.
type interval struct {
	start, end vclock.Seconds
}

// mergeIntervals unions possibly overlapping intervals into disjoint ones,
// dropping zero-width entries. The input slice is sorted in place.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	merged := ivs[:0]
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue // zero-width (or malformed) spans occupy no time
		}
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// Utilization analyses the run's timeline. Transfer spans (spanCategory's
// rule: a label starting "xfer:") count toward their link track's busy time
// but not toward compute overlap. Per-track busy time is the union of the
// track's spans, not their sum: concurrent transfers on the interconnect
// overlap within one track, and double-counting them would report busy
// fractions above 1.
func (r *Result) Utilization() Utilization {
	u := Utilization{Busy: map[string]vclock.Seconds{}, Makespan: r.Latency}
	byTrack := map[string][]interval{}
	compute := map[string][]interval{}
	for _, s := range r.Timeline {
		byTrack[s.Device] = append(byTrack[s.Device], interval{s.Start, s.End})
		if spanCategory(s.Label) == "transfer" {
			continue
		}
		compute[s.Device] = append(compute[s.Device], interval{s.Start, s.End})
	}
	for track, ivs := range byTrack {
		busy := vclock.Seconds(0)
		for _, iv := range mergeIntervals(ivs) {
			busy += iv.end - iv.start
		}
		u.Busy[track] = busy
	}

	// Overlap sweep over the merged per-track compute intervals: each track
	// contributes depth ≤ 1, so only genuine cross-device co-execution
	// counts — not two subgraphs sharing one device.
	type event struct {
		t     vclock.Seconds
		delta int
	}
	var events []event
	for _, ivs := range compute {
		for _, iv := range mergeIntervals(ivs) {
			events = append(events, event{iv.start, +1}, event{iv.end, -1})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta // close before open at ties
	})
	depth := 0
	var last vclock.Seconds
	for _, ev := range events {
		if depth >= 2 {
			u.Overlap += ev.t - last
		}
		depth += ev.delta
		last = ev.t
	}
	return u
}
