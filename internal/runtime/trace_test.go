package runtime

import (
	"encoding/json"
	"testing"

	"duet/internal/device"
)

// chromeEvent mirrors the trace-event fields the round-trip test checks.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	TID  int     `json:"tid"`
	Cat  string  `json:"cat"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// decodeTrace round-trips a ChromeTrace export through encoding/json.
func decodeTrace(t *testing.T, raw []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// TestChromeTraceRoundTrip: the export parses back, every event is a
// well-formed "X" slice with non-negative duration, and both device tracks
// appear under stable thread IDs.
func TestChromeTraceRoundTrip(t *testing.T) {
	p, inputs := branchy(t)
	e := newEngine(t, p, 0)
	res, err := e.Run(inputs, Placement{device.CPU, device.GPU, device.CPU}, false)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, raw)
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != len(res.Timeline) {
		t.Fatalf("%d events for %d timeline spans", len(doc.TraceEvents), len(res.Timeline))
	}
	tracks := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d: phase %q, want X", i, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
		}
		if ev.TS < 0 {
			t.Fatalf("event %d (%s): negative start %g", i, ev.Name, ev.TS)
		}
		// One stable tid per source track.
		span := res.Timeline[i]
		if prev, ok := tracks[span.Device]; ok && prev != ev.TID {
			t.Fatalf("track %s switched tid %d -> %d", span.Device, prev, ev.TID)
		}
		tracks[span.Device] = ev.TID
		if ev.Name != span.Label {
			t.Fatalf("event %d renamed: %q vs %q", i, ev.Name, span.Label)
		}
	}
	for _, dev := range []string{"cpu0", "gpu0", "pcie3"} {
		if _, ok := tracks[dev]; !ok {
			t.Fatalf("device track %s missing from trace (tracks: %v)", dev, tracks)
		}
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat] = true
	}
	if !cats["compute"] || !cats["transfer"] {
		t.Fatalf("expected compute and transfer categories, got %v", cats)
	}
}
