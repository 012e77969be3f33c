package runtime

import (
	"sync"

	"duet/internal/device"
	"duet/internal/obs"
	"duet/internal/vclock"
)

// breakerState is the per-slot circuit-breaker state.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for metric labels and logs.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// kindLabel is the metric label for a device kind (the tracker predates
// any particular platform, so it labels by kind, not device name).
func kindLabel(k device.Kind) string {
	if k == device.GPU {
		return "gpu"
	}
	return "cpu"
}

// HealthTracker is a per-slot failure counter and circuit breaker. After
// Threshold consecutive failures on a slot the breaker opens and the slot is
// reported unavailable. In the engine a slot is a device — the runtime
// analogue of the paper's static single-device fallback (§IV-C), applied to
// the *remaining* placement mid-request. After Probation virtual seconds the
// breaker half-opens: the next caller is admitted as a probe, and its success
// closes the breaker (re-admission) while its failure re-opens it for another
// probation window.
//
// The tracker is safe for concurrent use so a serving layer can share one
// across requests; the engine's own timing pass uses it serially.
type HealthTracker struct {
	mu        sync.Mutex
	threshold int
	probation vclock.Seconds
	consec    []int
	state     []breakerState
	retryAt   []vclock.Seconds
	trips     int
	readmits  int

	// Observability (nil when uninstrumented): breaker state gauges
	// (0=closed, 1=open, 2=half-open), per-transition counters, and a
	// readmission counter. Only the two-slot device form is instrumented.
	reg        *obs.Registry
	stateGauge []*obs.Gauge
}

// NewHealthTracker returns a two-slot (CPU/GPU) tracker tripping after
// threshold consecutive failures and probing again after probation virtual
// seconds. A threshold ≤ 0 disables the breaker: every device is always
// available.
func NewHealthTracker(threshold int, probation vclock.Seconds) *HealthTracker {
	return NewHealthTrackerN(2, threshold, probation)
}

// NewHealthTrackerN returns a tracker guarding n independent slots — one per
// backend the caller multiplexes over (devices, serving nodes). Slots share
// the threshold and probation but trip and recover independently.
func NewHealthTrackerN(n, threshold int, probation vclock.Seconds) *HealthTracker {
	if n < 1 {
		n = 1
	}
	return &HealthTracker{
		threshold:  threshold,
		probation:  probation,
		consec:     make([]int, n),
		state:      make([]breakerState, n),
		retryAt:    make([]vclock.Seconds, n),
		stateGauge: make([]*obs.Gauge, n),
	}
}

// Slots returns the number of independent breaker slots.
func (h *HealthTracker) Slots() int {
	if h == nil {
		return 0
	}
	return len(h.state)
}

// Instrument attaches a metrics registry: breaker state per device kind
// (duet_breaker_state, 0=closed/1=open/2=half-open), transition counts
// (duet_breaker_transitions_total{device,to}) and probe re-admissions
// (duet_readmissions_total). The tracker owns the readmission counter —
// engines must not fold the cumulative FaultReport.Readmissions into a
// registry, because a shared tracker reports it across runs. Re-attaching
// the same registry is a no-op; nil is ignored, as is any tracker that is
// not the two-slot device form.
func (h *HealthTracker) Instrument(reg *obs.Registry) {
	if h == nil || reg == nil || len(h.state) != 2 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.reg == reg {
		return
	}
	h.reg = reg
	for _, k := range []device.Kind{device.CPU, device.GPU} {
		h.stateGauge[k] = reg.Gauge(obs.Series("duet_breaker_state", "device", kindLabel(k)))
		h.stateGauge[k].Set(float64(h.state[k]))
	}
}

// setState records a breaker transition and its metrics. Callers hold h.mu.
func (h *HealthTracker) setState(slot int, s breakerState) {
	h.state[slot] = s
	h.stateGauge[slot].Set(float64(s))
	if h.reg != nil {
		h.reg.Counter(obs.Series("duet_breaker_transitions_total",
			"device", kindLabel(device.Kind(slot)), "to", s.String())).Inc()
	}
}

// Available reports whether kind may be scheduled at virtual time now. An
// open breaker whose probation has expired half-opens and admits the caller
// as a probe.
func (h *HealthTracker) Available(kind device.Kind, now vclock.Seconds) bool {
	return h.SlotAvailable(int(kind), now)
}

// SlotAvailable is Available for an arbitrary slot index.
func (h *HealthTracker) SlotAvailable(slot int, now vclock.Seconds) bool {
	if h == nil || h.threshold <= 0 {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state[slot] {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open
		if now >= h.retryAt[slot] {
			h.setState(slot, breakerHalfOpen)
			return true
		}
		return false
	}
}

// Failure records a failed attempt on kind at virtual time now and reports
// whether this failure tripped (or re-tripped) the breaker.
func (h *HealthTracker) Failure(kind device.Kind, now vclock.Seconds) bool {
	return h.SlotFailure(int(kind), now)
}

// SlotFailure is Failure for an arbitrary slot index.
func (h *HealthTracker) SlotFailure(slot int, now vclock.Seconds) bool {
	if h == nil || h.threshold <= 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consec[slot]++
	if h.state[slot] == breakerHalfOpen {
		// The probe failed: back to open for another probation window.
		h.setState(slot, breakerOpen)
		h.retryAt[slot] = now + h.probation
		h.trips++
		return true
	}
	if h.state[slot] == breakerClosed && h.consec[slot] >= h.threshold {
		h.setState(slot, breakerOpen)
		h.retryAt[slot] = now + h.probation
		h.trips++
		return true
	}
	return false
}

// Success records a completed attempt on kind; a half-open breaker closes
// (the device is re-admitted).
func (h *HealthTracker) Success(kind device.Kind) {
	h.SlotSuccess(int(kind))
}

// SlotSuccess is Success for an arbitrary slot index.
func (h *HealthTracker) SlotSuccess(slot int) {
	if h == nil || h.threshold <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consec[slot] = 0
	if h.state[slot] != breakerClosed {
		if h.state[slot] == breakerHalfOpen {
			h.readmits++
			if h.reg != nil {
				h.reg.Counter("duet_readmissions_total").Inc()
			}
		}
		h.setState(slot, breakerClosed)
	}
}

// SlotState returns a slot's breaker state as a gauge code (0=closed,
// 1=open, 2=half-open) and its label.
func (h *HealthTracker) SlotState(slot int) (int, string) {
	if h == nil {
		return 0, breakerClosed.String()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.state[slot]
	return int(s), s.String()
}

// Trips returns how many times any breaker opened.
func (h *HealthTracker) Trips() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trips
}

// Readmissions returns how many probes closed an open breaker.
func (h *HealthTracker) Readmissions() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.readmits
}
