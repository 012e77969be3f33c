package serve

import (
	"fmt"
	"sort"

	"duet/internal/vclock"
)

// Report aggregates one Run of the serving layer. All times are virtual
// seconds, so a seeded run reproduces the report bit-for-bit across hosts.
type Report struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"`
	Expired  int `json:"expired"`
	Failed   int `json:"failed"`

	// Shed breaks the Rejected+Expired count down by typed reason
	// (deadline, backpressure, invalid). Empty when nothing was shed.
	Shed map[ShedReason]int `json:"shed,omitempty"`

	// Makespan spans virtual time zero to the last delivery.
	Makespan vclock.Seconds `json:"makespan_s"`
	// Throughput counts delivered (OK) requests per virtual second; RowThroughput
	// counts delivered rows, which is the fairer number under pre-batched
	// requests.
	Throughput    float64 `json:"throughput_rps"`
	RowThroughput float64 `json:"row_throughput_rps"`

	// Latency quantiles over delivered requests (arrival to finish).
	MeanLatency vclock.Seconds `json:"mean_latency_s"`
	P50Latency  vclock.Seconds `json:"p50_latency_s"`
	P95Latency  vclock.Seconds `json:"p95_latency_s"`
	P99Latency  vclock.Seconds `json:"p99_latency_s"`

	// MeanBatchRows is the mean dispatched batch extent weighted per batch.
	MeanBatchRows float64 `json:"mean_batch_rows"`
	Batches       int     `json:"batches"`

	// MinService is the admission controller's noiseless single-request
	// service estimate.
	MinService vclock.Seconds `json:"min_service_s"`

	// Replicas reports per-replica virtual busy seconds and utilization
	// (busy / makespan, per device).
	Replicas []ReplicaReport `json:"replicas"`
}

// ReplicaReport is one replica's utilization summary.
type ReplicaReport struct {
	CPUBusy vclock.Seconds `json:"cpu_busy_s"`
	GPUBusy vclock.Seconds `json:"gpu_busy_s"`
	CPUUtil float64        `json:"cpu_util"`
	GPUUtil float64        `json:"gpu_util"`
}

// buildReport derives the aggregate view from the delivered responses and
// the replicas' accumulated busy time.
func buildReport(s *Server, responses []Response, makespan vclock.Seconds) *Report {
	rep := &Report{
		Requests:   len(responses),
		Makespan:   makespan,
		MinService: s.minSvc,
	}
	var lats []float64
	var latSum vclock.Seconds
	okRows := 0
	batchSeen := map[[3]float64]bool{} // (replica, dispatch, finish) dedupes members of one batch
	var batchRowSum int
	for i := range responses {
		r := &responses[i]
		switch r.Outcome {
		case OK:
			rep.OK++
			lats = append(lats, float64(r.Latency))
			latSum += r.Latency
			okRows += rowsOf(r)
			key := [3]float64{float64(r.Replica), float64(r.Dispatch), float64(r.Finish)}
			if !batchSeen[key] {
				batchSeen[key] = true
				rep.Batches++
				batchRowSum += r.BatchRows
			}
		case Rejected:
			rep.Rejected++
		case Expired:
			rep.Expired++
		case Failed:
			rep.Failed++
		}
		if r.Reason != ShedNone {
			if rep.Shed == nil {
				rep.Shed = map[ShedReason]int{}
			}
			rep.Shed[r.Reason]++
		}
	}
	if rep.OK > 0 {
		rep.MeanLatency = latSum / vclock.Seconds(rep.OK)
		sort.Float64s(lats)
		rep.P50Latency = vclock.SortedPercentile(lats, 50)
		rep.P95Latency = vclock.SortedPercentile(lats, 95)
		rep.P99Latency = vclock.SortedPercentile(lats, 99)
	}
	if makespan > 0 {
		rep.Throughput = float64(rep.OK) / float64(makespan)
		rep.RowThroughput = float64(okRows) / float64(makespan)
	}
	if rep.Batches > 0 {
		rep.MeanBatchRows = float64(batchRowSum) / float64(rep.Batches)
	}
	for _, r := range s.replicas {
		rr := ReplicaReport{CPUBusy: r.busy[0], GPUBusy: r.busy[1]}
		if makespan > 0 {
			rr.CPUUtil = float64(rr.CPUBusy) / float64(makespan)
			rr.GPUUtil = float64(rr.GPUBusy) / float64(makespan)
		}
		rep.Replicas = append(rep.Replicas, rr)
	}
	return rep
}

// rowsOf recovers a delivered response's own row count from its first
// output's leading dimension (outputs carry the batch dim by the serving
// contract); deliveries without outputs count one row.
func rowsOf(r *Response) int {
	if len(r.Outputs) > 0 && r.Outputs[0] != nil && r.Outputs[0].Dims() > 0 {
		return r.Outputs[0].Shape()[0]
	}
	return 1
}

// String renders the report as a one-glance summary block.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"requests=%d ok=%d rejected=%d expired=%d failed=%d makespan=%.3fms throughput=%.1f req/s (%.1f rows/s) latency mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms batches=%d mean_rows=%.2f",
		r.Requests, r.OK, r.Rejected, r.Expired, r.Failed,
		float64(r.Makespan)*1e3, r.Throughput, r.RowThroughput,
		float64(r.MeanLatency)*1e3, float64(r.P50Latency)*1e3, float64(r.P95Latency)*1e3, float64(r.P99Latency)*1e3,
		r.Batches, r.MeanBatchRows)
	if len(r.Shed) > 0 {
		reasons := make([]string, 0, len(r.Shed))
		for reason := range r.Shed {
			reasons = append(reasons, string(reason))
		}
		sort.Strings(reasons)
		s += " shed["
		for i, reason := range reasons {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", reason, r.Shed[ShedReason(reason)])
		}
		s += "]"
	}
	return s
}
