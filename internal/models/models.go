// Package models builds the evaluation networks of the paper as dataflow
// graphs: Wide-and-Deep (recommendation), the Siamese LSTM network (text
// similarity), MT-DNN (multi-task NLU), and the traditional sequential
// baselines (ResNet family) used for the fallback study (§VI, Table I/III).
// Weights are seeded and deterministic.
package models

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// builder wraps a graph with a naming counter and weight RNG so model code
// stays terse.
type builder struct {
	g   *graph.Graph
	rng *tensor.RNG
	n   int
}

func newBuilder(name string, seed int64) *builder {
	return &builder{g: graph.New(name), rng: tensor.NewRNG(seed)}
}

func (b *builder) name(prefix string) string {
	b.n++
	return fmt.Sprintf("%s_%d", prefix, b.n)
}

// weight adds a const node with Xavier-ish uniform values.
func (b *builder) weight(prefix string, shape ...int) graph.NodeID {
	fanIn := 1
	if len(shape) > 1 {
		fanIn = shape[len(shape)-1]
	}
	bound := float32(1.0 / sqrtApprox(float64(fanIn)))
	return b.g.AddConst(b.name(prefix), tensor.Rand(b.rng, bound, shape...))
}

func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 1
	}
	z := x
	for i := 0; i < 24; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// dense adds x·wᵀ+b with output dim out.
func (b *builder) dense(prefix string, x graph.NodeID, inDim, outDim int) graph.NodeID {
	w := b.weight(prefix+"_w", outDim, inDim)
	bias := b.weight(prefix+"_b", outDim)
	return b.g.Add("dense", b.name(prefix), nil, x, w, bias)
}

// denseRelu adds a dense layer followed by ReLU.
func (b *builder) denseRelu(prefix string, x graph.NodeID, inDim, outDim int) graph.NodeID {
	d := b.dense(prefix, x, inDim, outDim)
	return b.g.Add("relu", b.name(prefix+"_relu"), nil, d)
}

// lstm adds one LSTM layer over a (B,T,In) sequence.
func (b *builder) lstm(prefix string, x graph.NodeID, inDim, hidden int, lastOnly bool) graph.NodeID {
	wx := b.weight(prefix+"_wx", 4*hidden, inDim)
	wh := b.weight(prefix+"_wh", 4*hidden, hidden)
	bias := b.weight(prefix+"_bias", 4*hidden)
	attrs := graph.Attrs{}
	if lastOnly {
		attrs["last_only"] = 1
	}
	return b.g.Add("lstm", b.name(prefix), attrs, x, wx, wh, bias)
}

// gru adds one GRU layer over a (B,T,In) sequence.
func (b *builder) gru(prefix string, x graph.NodeID, inDim, hidden int, lastOnly bool) graph.NodeID {
	wx := b.weight(prefix+"_wx", 3*hidden, inDim)
	wh := b.weight(prefix+"_wh", 3*hidden, hidden)
	bias := b.weight(prefix+"_bias", 3*hidden)
	attrs := graph.Attrs{}
	if lastOnly {
		attrs["last_only"] = 1
	}
	return b.g.Add("gru", b.name(prefix), attrs, x, wx, wh, bias)
}

// embedding adds a table lookup for (B,L) integer ids.
func (b *builder) embedding(prefix string, ids graph.NodeID, vocab, dim int) graph.NodeID {
	table := b.weight(prefix+"_table", vocab, dim)
	return b.g.Add("embedding", b.name(prefix), nil, ids, table)
}

// ParamCount returns the total number of weight elements in a graph.
func ParamCount(g *graph.Graph) int {
	total := 0
	for _, n := range g.Nodes() {
		if n.IsConst() {
			total += n.Value.Numel()
		}
	}
	return total
}
