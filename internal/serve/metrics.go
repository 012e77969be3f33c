package serve

import (
	"strconv"

	"duet/internal/device"
	"duet/internal/obs"
)

// serveMetrics caches the server's resolved instruments, mirroring the
// runtime's engineMetrics pattern: resolve once at New, pay a nil check per
// event afterwards. The zero value (no registry) is all-nil and every
// recording call is a no-op.
type serveMetrics struct {
	reg *obs.Registry

	outcomes map[Outcome]*obs.Counter    // serve_requests_total{outcome=...}
	sheds    map[ShedReason]*obs.Counter // serve_shed_total{reason=...}
	latency  *obs.Histogram              // serve_latency_seconds (delivered requests)
	queue    *obs.Gauge                  // serve_queue_rows
	queueMax *obs.Gauge                  // serve_queue_rows_max
	batches  *obs.Counter                // serve_batches_total
	rows     *obs.Histogram              // serve_batch_rows
	busy     [][2]*obs.Gauge             // serve_replica_busy_seconds_total{replica,device}
}

// batchRowBuckets bounds the batch-size histogram: powers of two up to a
// generous 256-row batch.
var batchRowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func (m *serveMetrics) init(reg *obs.Registry, replicas int) {
	if reg == nil {
		*m = serveMetrics{}
		return
	}
	m.reg = reg
	m.outcomes = map[Outcome]*obs.Counter{}
	for _, o := range []Outcome{OK, Rejected, Expired, Failed} {
		m.outcomes[o] = reg.Counter(obs.Series("serve_requests_total", "outcome", string(o)))
	}
	m.sheds = map[ShedReason]*obs.Counter{}
	for _, reason := range []ShedReason{ShedDeadline, ShedBackpressure, ShedInvalid} {
		m.sheds[reason] = reg.Counter(obs.Series("serve_shed_total", "reason", string(reason)))
	}
	m.latency = reg.Histogram("serve_latency_seconds", obs.DefaultLatencyBuckets...)
	m.queue = reg.Gauge("serve_queue_rows")
	m.queueMax = reg.Gauge("serve_queue_rows_max")
	m.batches = reg.Counter("serve_batches_total")
	m.rows = reg.Histogram("serve_batch_rows", batchRowBuckets...)
	for i := 0; i < replicas; i++ {
		var g [2]*obs.Gauge
		for _, kind := range []device.Kind{device.CPU, device.GPU} {
			g[kind] = reg.Gauge(obs.Series("serve_replica_busy_seconds_total",
				"replica", strconv.Itoa(i), "device", kind.String()))
		}
		m.busy = append(m.busy, g)
	}
}

func (m *serveMetrics) recordOutcome(resp *Response) {
	if m.reg == nil {
		return
	}
	m.outcomes[resp.Outcome].Inc()
	if resp.Reason != ShedNone {
		m.sheds[resp.Reason].Inc()
	}
	if resp.Outcome == OK {
		m.latency.Observe(float64(resp.Latency))
	}
}

func (m *serveMetrics) queueDepth(rows int) {
	m.queue.Set(float64(rows))
	m.queueMax.Max(float64(rows))
}

func (m *serveMetrics) recordBatch(rows int) {
	m.batches.Inc()
	m.rows.Observe(float64(rows))
}

// replicaBusy publishes a replica's cumulative virtual busy seconds. The
// sources are monotonic within one Run, so Set is correct.
func (m *serveMetrics) replicaBusy(r *replica) {
	if m.reg == nil || r.id >= len(m.busy) {
		return
	}
	m.busy[r.id][device.CPU].Set(float64(r.busy[device.CPU]))
	m.busy[r.id][device.GPU].Set(float64(r.busy[device.GPU]))
}
