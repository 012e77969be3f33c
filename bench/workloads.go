package main

import (
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// workloadSpec is one benchmark workload: a zoo model, its seeded input
// generator, and the shape of a measuring round. Every workload measures
// Build, Infer, InferParallel and a served burst, because the driver wants
// every end-to-end metric from every workload; what differs is which layer
// the wall time lands in.
type workloadSpec struct {
	name string
	why  string
	// graph builds the model with the given leading batch dimension; weights
	// depend on the model seed only, never on the batch.
	graph func(batch int) (*graph.Graph, error)
	// inputs generates one request's tensors at the given batch.
	inputs func(batch int, seed int64) map[string]*tensor.Tensor
	// maxBatch is the server's micro-batch cap in rows (1 = no coalescing).
	maxBatch int
	// burst is the number of requests per Server.Run, all arriving at
	// virtual t=0.
	burst int
	// pairs is the number of Infer + InferParallel pairs per round and
	// bursts the number of Server.Run calls, sized so a round spends
	// comparable wall time on each.
	pairs  int
	bursts int
}

func wideDeepSpec(name, why string, cfg models.WideDeepConfig, maxBatch, burst, pairs, bursts int) workloadSpec {
	return workloadSpec{
		name: name, why: why, maxBatch: maxBatch, burst: burst, pairs: pairs, bursts: bursts,
		graph: func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			g, err := models.WideDeep(c)
			if err != nil {
				return nil, err
			}
			// On the zoo's untrained weights the logits are of the order of
			// 1e10, so the softmax is one-hot at the same class whatever the
			// input, and its 64 values say next to nothing about the
			// computation. The workload declares the logits as a second
			// output: the same work, and an output whose bits depend on all
			// of it, so that the correctness gate can see a wrong kernel.
			probs := g.Outputs()[0]
			g.SetOutputs(probs, g.Node(probs).Inputs[0])
			return g, nil
		},
		inputs: func(b int, seed int64) map[string]*tensor.Tensor {
			c := cfg
			c.Batch = b
			return workload.WideDeepInputs(c, seed)
		},
	}
}

// workloads lists the benchmark's workloads in the order -workload all runs
// them. The why strings are the ones BENCHMARK.json carries.
func workloads() []workloadSpec {
	small := models.DefaultWideDeep()
	small.ImageSize, small.SeqLen = 64, 16 // as duet-node -small
	siamese := models.DefaultSiamese()
	mtdnn := models.DefaultMTDNN()
	return []workloadSpec{
		wideDeepSpec("widedeep_b1",
			"paper's headline model at batch 1: ~90% of wall time is tensor conv (im2col + packed GEMM), so conv/GEMM-microkernel changes show here and RNN or scheduler changes must not",
			models.DefaultWideDeep(), 1, 1, 1, 1),
		{
			name: "siamese_b1",
			why:  "~all wall time is the RNN cell at M=1 in two independent branches on different devices: the one model where InferParallel beats Infer; conv changes predict no movement",
			graph: func(b int) (*graph.Graph, error) {
				c := siamese
				c.Batch = b
				return models.Siamese(c)
			},
			inputs: func(b int, seed int64) map[string]*tensor.Tensor {
				c := siamese
				c.Batch = b
				return workload.SiameseInputs(c, seed)
			},
			maxBatch: 1, burst: 4, pairs: 4, bursts: 2,
		},
		{
			name: "mtdnn_b1",
			why:  "large-M GEMM plus mha attention in one long encoder subgraph then small heads: same kernels used differently from M=1 and im2col, and almost nothing for InferParallel to overlap",
			graph: func(b int) (*graph.Graph, error) {
				c := mtdnn
				c.Batch = b
				return models.MTDNN(c)
			},
			inputs: func(b int, seed int64) map[string]*tensor.Tensor {
				c := mtdnn
				c.Batch = b
				return workload.MTDNNInputs(c, seed)
			},
			maxBatch: 1, burst: 1, pairs: 1, bursts: 1,
		},
		wideDeepSpec("serve_widedeep_b8",
			"reduced Wide&Deep behind the micro-batching server (MaxBatch 8, 16-request burst): event loop, batcher, stack/split copies, per-replica arena, device workers and kernels at M=8",
			small, 8, 16, 4, 2),
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
