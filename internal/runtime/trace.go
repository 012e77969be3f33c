package runtime

import (
	"strings"

	"duet/internal/obs"
)

// spanCategory classifies a timeline label for trace rendering: transfers
// and compute.
func spanCategory(label string) string {
	if strings.HasPrefix(label, "xfer:") {
		return "transfer"
	}
	return "compute"
}

// ObsSpans converts the run's timeline into obs spans, one track per
// device plus one for the interconnect.
func (r *Result) ObsSpans() []obs.Span {
	spans := make([]obs.Span, 0, len(r.Timeline))
	for _, s := range r.Timeline {
		spans = append(spans, obs.Span{
			Name:     s.Label,
			Track:    s.Device,
			Category: spanCategory(s.Label),
			Start:    float64(s.Start),
			End:      float64(s.End),
		})
	}
	return spans
}

// ChromeTrace renders a run's timeline in the Chrome trace-event JSON
// format (load via chrome://tracing or https://ui.perfetto.dev).
func (r *Result) ChromeTrace() ([]byte, error) {
	return obs.ChromeTrace(r.ObsSpans())
}
