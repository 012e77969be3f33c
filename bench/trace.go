package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Parent is the span that was open when this
// one began (-1 for a root); all spans of a run share its run id.
type span struct {
	ID     int
	Parent int
	Layer  string // package under test, e.g. "compiler"
	Name   string // exported call, e.g. "compiler.Compile"
	Class  string // kernel class for kernel spans, else ""
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; the traced pass is single-threaded, so the
// open-span stack gives each span its parent.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do records f as a span of the given layer and returns its duration.
func (t *tracer) do(layer, name, class string, f func()) time.Duration {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Class: class})
	t.open = append(t.open, id)
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Start, t.spans[id].End = start, end
	return end - start
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeChrome writes the spans as Chrome-trace "complete" events, one track
// per layer, with self time, parent and run id in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"run": t.run, "id": s.ID, "parent": s.Parent, "self_us": us(self[i])}
		if s.Class != "" {
			args["class"] = s.Class
		}
		events[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: 1, Args: args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stopwatch returns how long f took, without recording a span.
func stopwatch(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
