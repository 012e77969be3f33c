package runtime

import (
	"errors"
	"fmt"
	"math"

	"duet/internal/faults"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// ErrExhausted reports that fault tolerance ran out: a subgraph (or a final
// output transfer) failed on every device the policy allowed, after every
// permitted retry. The Result returned alongside it carries the timeline and
// virtual time consumed up to the point of giving up, so callers modelling
// whole-request abort-and-retry can charge the wasted work.
var ErrExhausted = errors.New("runtime: fault tolerance exhausted")

// Policy configures fault tolerance for RunWithPolicy. The zero value fails
// fast: one attempt per subgraph, no failover, breaker disabled — any
// injected failure aborts the run.
type Policy struct {
	// Injector supplies faults (nil or empty = fault-free; RunWithPolicy is
	// then equivalent to Run).
	Injector *faults.Injector
	// MaxRetries is how many times a failed subgraph is re-attempted on the
	// same device before failing over (per device; transfers get the same
	// per-value budget).
	MaxRetries int
	// Backoff is the virtual-clock pause before the first retry; it is
	// charged to the failing device like any other occupancy, on top of the
	// per-dispatch syncQueueOverhead the retry itself pays.
	Backoff vclock.Seconds
	// BackoffFactor grows the pause exponentially per retry (≤1 = 2).
	BackoffFactor float64
	// Failover migrates a subgraph that exhausted its retries to the other
	// device; the engine's tuned costs for that device already exist, so the
	// migration pays only boundary re-transfers.
	Failover bool
	// BreakerThreshold is how many consecutive failures on one device open
	// its circuit breaker, degrading the remaining placement to the
	// surviving device (0 disables the breaker).
	BreakerThreshold int
	// Probation is the open-breaker window before a probe subgraph is
	// re-admitted to the degraded device.
	Probation vclock.Seconds
	// Health, when non-nil, is a shared tracker carrying breaker state
	// across runs (a serving layer shares one per engine); nil gives each
	// run a fresh tracker.
	Health *HealthTracker
}

// DefaultPolicy returns the recommended production policy: two retries with
// 50 µs exponential backoff, failover on, breaker tripping after three
// consecutive failures with a 2 ms probation window.
func DefaultPolicy() Policy {
	return Policy{
		MaxRetries:       2,
		Backoff:          50e-6,
		BackoffFactor:    2,
		Failover:         true,
		BreakerThreshold: 3,
		Probation:        2e-3,
	}
}

// FaultReport summarises the fault-tolerance activity of one run.
type FaultReport struct {
	// KernelFaults and TransferFaults count injected failures observed.
	KernelFaults   int
	TransferFaults int
	// Retries counts subgraph re-attempts on the same device;
	// TransferRetries counts re-issued boundary transfers.
	Retries         int
	TransferRetries int
	// Failovers counts subgraphs migrated to the other device after
	// exhausting their retries.
	Failovers int
	// BreakerTrips counts circuit-breaker openings; Degraded counts
	// subgraphs redirected to the surviving device by an open breaker;
	// Readmissions counts probes that closed a breaker again.
	BreakerTrips int
	Degraded     int
	Readmissions int
	// FinalPlacement is where each subgraph actually executed.
	FinalPlacement Placement
}

// backoffAt returns the pause before retry number retry (0-based).
func (pol *Policy) backoffAt(retry int) vclock.Seconds {
	f := pol.BackoffFactor
	if f <= 1 {
		f = 2
	}
	return pol.Backoff * vclock.Seconds(math.Pow(f, float64(retry)))
}

// errTransfer marks a boundary transfer that exhausted its retry budget; it
// fails the consuming subgraph's attempt rather than the whole run.
var errTransfer = errors.New("runtime: boundary transfer failed")

// RunWithPolicy executes the model under the given placement with fault
// tolerance: per-subgraph bounded retries with exponential backoff charged
// to the virtual clock, failover migration of a failed subgraph to the other
// device, and a per-device circuit breaker that degrades the remaining
// placement to the surviving device — the runtime analogue of the paper's
// single-device fallback — with probation-based re-admission.
//
// A nil inputs map runs timing-only (like Run with withValues=false);
// otherwise tensor values are materialised and Result.Outputs is populated.
// Values are computed once per subgraph after its attempts succeed, on the
// host, so a run that retried or failed over produces outputs bit-identical
// to a fault-free run. Result.Faults summarises the tolerance activity, and
// fault/backoff intervals appear on Result.Timeline.
func (e *Engine) RunWithPolicy(inputs map[string]*tensor.Tensor, place Placement, pol Policy) (*Result, error) {
	res, err := e.runWithPolicy(inputs, place, pol)
	if res != nil && res.Faults != nil {
		e.m.recordPolicyReport(res.Faults)
	}
	if err != nil {
		e.m.runErrors.Inc()
		if errors.Is(err, ErrExhausted) {
			e.m.exhausted.Inc()
		}
		return res, err
	}
	e.m.policyRuns.Inc()
	e.m.policyLat.Observe(res.Latency)
	e.m.recordMemory(e.arena)
	return res, nil
}

func (e *Engine) runWithPolicy(inputs map[string]*tensor.Tensor, place Placement, pol Policy) (*Result, error) {
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}
	var d *Dataflow
	if inputs != nil {
		var err error
		if d, err = e.NewDataflow(inputs, e.arena); err != nil {
			return nil, err
		}
	}
	inj := pol.Injector
	if !inj.Empty() {
		inj.Install(e.Platform)
		defer inj.Uninstall(e.Platform)
	}
	health := pol.Health
	if health == nil {
		health = NewHealthTracker(pol.BreakerThreshold, pol.Probation)
	}
	health.Instrument(e.m.reg)
	rep := &FaultReport{FinalPlacement: place.Clone()}
	res := &Result{Faults: rep}

	// The same walk Run takes; only the policy around its steps is added.
	w := NewWalk(e.Skeleton, e.Sampler(e.Platform, false), &recorder{e: e, res: res})
	w.Begin(make([]vclock.Seconds, Lanes), 0)
	// resumeAt (value × lane) remembers where failed transfer attempts left
	// off, so a subgraph retry resumes the transfer instead of rewinding time.
	resumeAt := make([]vclock.Seconds, len(e.Skeleton.producer)*Lanes)

	// stage makes value v usable on lane, retrying failed transfers under
	// the policy's budget; on exhaustion it reports the give-up time and false.
	stage := func(v, lane int) (vclock.Seconds, bool) {
		for retry := 0; ; retry++ {
			t, f := w.ensure(v, lane, resumeAt[v*Lanes+lane])
			if !f.Fail {
				return t, true
			}
			rep.TransferFaults++
			t += pol.backoffAt(retry)
			resumeAt[v*Lanes+lane] = t
			if retry >= pol.MaxRetries {
				return t, false
			}
			rep.TransferRetries++
		}
	}

	for i, sub := range e.subgraphs {
		kind := place[i]
		// An open breaker degrades the subgraph to the surviving device; an
		// expired probation window admits it back as a probe. Availability
		// probes use the run's progress time rather than the target device's
		// own clock, which stalls while the device is being avoided.
		if !health.Available(kind, w.now()) {
			kind = kind.Other()
			rep.Degraded++
		}
		devicesTried := 0
		retry := 0
		for {
			failAt := w.clock(int(kind))
			cause := ""
			for _, v := range e.Skeleton.consumes[i] {
				if t, ok := stage(v, int(kind)); !ok {
					cause = "transfer"
					failAt = max(failAt, t)
				}
			}
			if cause == "" {
				end, f := w.dispatch(i, int(kind))
				if !f.Fail {
					health.Success(kind)
					rep.Readmissions = health.Readmissions()
					break
				}
				// The device was occupied by the doomed attempt.
				rep.KernelFaults++
				cause = f.Cause
				failAt = end
			}
			if health.Failure(kind, failAt) {
				rep.BreakerTrips++
			}
			// Retry on the same device while budget remains and the breaker
			// has not just cut it off.
			if retry < pol.MaxRetries && health.Available(kind, failAt) {
				b := pol.backoffAt(retry)
				if cause != "transfer" && b > 0 {
					start := w.clock(int(kind))
					res.Timeline = append(res.Timeline, Span{
						Label: "backoff:" + sub.Graph.Name, Device: e.Platform.Device(kind).Name, Start: start, End: start + b,
					})
					w.hold(int(kind), b)
					e.m.deviceBusy[kind].Add(b)
				}
				retry++
				rep.Retries++
				continue
			}
			if pol.Failover && devicesTried == 0 {
				devicesTried++
				kind = kind.Other()
				retry = 0
				rep.Failovers++
				continue
			}
			res.Latency = failAt
			return res, fmt.Errorf("%w: subgraph %s failed on %s after %d retries (cause: %s)",
				ErrExhausted, sub.Graph.Name, e.Platform.Device(kind).Name, retry, cause)
		}
		rep.FinalPlacement[i] = kind
	}

	// Results return to the host, with the same transfer-retry budget.
	for _, v := range e.Skeleton.outputs {
		if t, ok := stage(v, hostLane); !ok {
			res.Latency = t
			return res, fmt.Errorf("%w: output %q could not reach the host", ErrExhausted, e.Skeleton.names[v])
		}
	}
	res.Latency, _ = w.gather()

	// Values are computed once, after the timeline succeeded, so retries and
	// failovers cannot change them.
	if d != nil {
		var err error
		if res.Outputs, err = e.execute(d); err != nil {
			return res, err
		}
	}
	return res, nil
}

// MeasureWithPolicy samples end-to-end latency under the fault policy. Runs
// that exhaust fault tolerance propagate their error; the injector's RNG
// stream advances across runs, so the sequence of samples is reproducible
// from the injector seed but individual runs differ.
func (e *Engine) MeasureWithPolicy(place Placement, pol Policy, runs int) ([]vclock.Seconds, error) {
	return sampleLatency(runs, func() (*Result, error) { return e.RunWithPolicy(nil, place, pol) })
}

// sampleLatency collects the latencies of runs calls of run.
func sampleLatency(runs int, run func() (*Result, error)) ([]vclock.Seconds, error) {
	samples := make([]vclock.Seconds, 0, runs)
	for r := 0; r < runs; r++ {
		res, err := run()
		if err != nil {
			return nil, err
		}
		samples = append(samples, res.Latency)
	}
	return samples, nil
}
