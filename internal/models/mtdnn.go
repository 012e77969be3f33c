package models

import (
	"fmt"

	"duet/internal/graph"
)

// MTDNNConfig parameterises MT-DNN (Liu et al. 2020; Fig. 3 of the paper):
// a shared lexicon encoder plus a multi-layer Transformer encoder, followed
// by independent task-specific output layers. The task heads here are
// recurrent span decoders over the encoder sequence — sequential work that
// favours the CPU, giving the multi-path tail its heterogeneity.
type MTDNNConfig struct {
	Batch    int
	SeqLen   int
	Vocab    int
	ModelDim int
	Heads    int // attention heads
	Layers   int // Transformer encoder layers
	FFNDim   int
	Tasks    int // independent task-specific output layers
	TaskRNN  int // hidden size of each task's GRU decoder
	TaskOut  int // per-task classifier width
	Seed     int64
}

// DefaultMTDNN returns the Table I configuration: 6 encoder layers,
// model dim 512, 8 heads, 4 task heads with GRU decoders.
func DefaultMTDNN() MTDNNConfig {
	return MTDNNConfig{
		Batch:    1,
		SeqLen:   64,
		Vocab:    30000,
		ModelDim: 512,
		Heads:    8,
		Layers:   6,
		FFNDim:   2048,
		Tasks:    4,
		TaskRNN:  256,
		TaskOut:  16,
		Seed:     13,
	}
}

// MTDNN builds the multi-task graph.
func MTDNN(cfg MTDNNConfig) (*graph.Graph, error) {
	if cfg.Tasks < 1 || cfg.Layers < 1 {
		return nil, fmt.Errorf("models: MTDNN needs ≥1 task and ≥1 layer")
	}
	if cfg.ModelDim%cfg.Heads != 0 {
		return nil, fmt.Errorf("models: ModelDim %d must be divisible by Heads %d", cfg.ModelDim, cfg.Heads)
	}
	b := newBuilder("mt_dnn", cfg.Seed)

	// Shared lexicon encoder.
	ids := b.g.AddInput("tokens", cfg.Batch, cfg.SeqLen)
	x := b.embedding("lexicon", ids, cfg.Vocab, cfg.ModelDim)

	// Shared Transformer encoder stack.
	for l := 0; l < cfg.Layers; l++ {
		x = b.transformerLayer(fmt.Sprintf("enc%d", l), x, cfg)
	}

	// Independent task-specific output layers.
	var outs []graph.NodeID
	for t := 0; t < cfg.Tasks; t++ {
		prefix := fmt.Sprintf("task%d", t)
		dec := b.gru(prefix+"_dec", x, cfg.ModelDim, cfg.TaskRNN, true)
		h := b.denseRelu(prefix+"_fc", dec, cfg.TaskRNN, cfg.TaskRNN)
		logits := b.dense(prefix+"_out", h, cfg.TaskRNN, cfg.TaskOut)
		prob := b.g.Add("softmax", b.name(prefix+"_probs"), nil, logits)
		outs = append(outs, prob)
	}
	b.g.SetOutputs(outs...)
	return b.g, nil
}

// transformerLayer adds fused multi-head self-attention with a residual +
// layernorm, then the position-wise FFN with residual + layernorm.
func (b *builder) transformerLayer(prefix string, x graph.NodeID, cfg MTDNNConfig) graph.NodeID {
	d := cfg.ModelDim
	// One stacked [wq; wk; wv] projection. Rand fills element by element
	// and the fan-in is d either way, so its rows are exactly the three d×d
	// draws it replaces.
	wqkv := b.weight(prefix+"_wqkv", 3*d, d)
	wo := b.weight(prefix+"_wo", d, d)
	bo := b.weight(prefix+"_bo", d)
	attn := b.g.Add("mha", b.name(prefix+"_mha"), graph.Attrs{"heads": cfg.Heads}, x, wqkv, wo, bo)
	res1 := b.g.Add("add", b.name(prefix+"_res1"), nil, attn, x)
	ln1 := b.layerNorm(prefix+"_ln1", res1, d)

	// Position-wise FFN: operate on (B*T, D) via reshape.
	flat := b.g.Add("reshape", b.name(prefix+"_flat"), graph.Attrs{"shape": []int{cfg.Batch * cfg.SeqLen, d}}, ln1)
	f1 := b.dense(prefix+"_ffn1", flat, d, cfg.FFNDim)
	g1 := b.g.Add("gelu", b.name(prefix+"_gelu"), nil, f1)
	f2 := b.dense(prefix+"_ffn2", g1, cfg.FFNDim, d)
	back := b.g.Add("reshape", b.name(prefix+"_back"), graph.Attrs{"shape": []int{cfg.Batch, cfg.SeqLen, d}}, f2)
	res2 := b.g.Add("add", b.name(prefix+"_res2"), nil, back, ln1)
	return b.layerNorm(prefix+"_ln2", res2, d)
}

func (b *builder) layerNorm(prefix string, x graph.NodeID, d int) graph.NodeID {
	gamma := b.weight(prefix+"_g", d)
	beta := b.weight(prefix+"_b", d)
	return b.g.Add("layernorm", b.name(prefix), graph.Attrs{"eps_micro": 10}, x, gamma, beta)
}
