package models

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// ZooCase is one zoo model at execution-friendly scale with concrete
// inputs: small enough that suites replaying real inference per model
// (fusion gate, happens-before mutations, timeline goldens) stay fast.
type ZooCase struct {
	Name   string
	Graph  *graph.Graph
	Inputs map[string]*tensor.Tensor
}

// SmallZoo builds all seven zoo models at reduced scale. Every call returns
// fresh graphs, so callers may shape-infer and partition them freely.
func SmallZoo() ([]ZooCase, error) {
	var cases []ZooCase
	var firstErr error
	add := func(name string, g *graph.Graph, err error, inputs map[string]*tensor.Tensor) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("models: building %s: %w", name, err)
		}
		cases = append(cases, ZooCase{Name: name, Graph: g, Inputs: inputs})
	}

	wd := DefaultWideDeep()
	wd.ImageSize, wd.SeqLen, wd.Vocab, wd.EmbedDim = 32, 6, 50, 16
	wd.RNNHidden, wd.FFNWidth, wd.FFNHidden = 16, 32, 2
	wd.WideFeatures, wd.DeepFeatures, wd.Classes = 8, 8, 4
	g, err := WideDeep(wd)
	add("widedeep", g, err, map[string]*tensor.Tensor{
		"wide.x":    tensor.Full(0.1, 1, wd.WideFeatures),
		"deep.x":    tensor.Full(0.2, 1, wd.DeepFeatures),
		"rnn.ids":   tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, wd.SeqLen),
		"cnn.image": tensor.Full(0.5, 1, 3, wd.ImageSize, wd.ImageSize),
	})

	sc := DefaultSiamese()
	sc.SeqLen, sc.Vocab, sc.EmbedDim, sc.Hidden = 4, 20, 8, 8
	g, err = Siamese(sc)
	ids := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	add("siamese", g, err, map[string]*tensor.Tensor{"query.ids": ids, "passage.ids": ids.Clone()})

	mc := DefaultMTDNN()
	mc.SeqLen, mc.Vocab, mc.ModelDim, mc.Heads = 4, 30, 16, 2
	mc.Layers, mc.FFNDim, mc.Tasks, mc.TaskRNN, mc.TaskOut = 1, 32, 2, 8, 3
	g, err = MTDNN(mc)
	add("mtdnn", g, err, map[string]*tensor.Tensor{"tokens": tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)})

	rc := DefaultResNet(18)
	rc.ImageSize, rc.Classes = 32, 10
	g, err = ResNet(rc)
	add("resnet18", g, err, map[string]*tensor.Tensor{"image": tensor.Full(0.3, 1, 3, 32, 32)})

	vc := DefaultVGG()
	vc.ImageSize, vc.Classes = 32, 10
	g, err = VGG(vc)
	add("vgg16", g, err, map[string]*tensor.Tensor{"image": tensor.Full(0.1, 1, 3, 32, 32)})

	qc := DefaultSqueezeNet()
	qc.ImageSize, qc.Classes = 64, 10
	g, err = SqueezeNet(qc)
	add("squeezenet", g, err, map[string]*tensor.Tensor{"image": tensor.Full(0.2, 1, 3, 64, 64)})

	gc := DefaultGoogLeNet()
	gc.ImageSize, gc.Classes = 64, 10
	g, err = GoogLeNet(gc)
	add("googlenet", g, err, map[string]*tensor.Tensor{"image": tensor.Full(0.3, 1, 3, 64, 64)})

	return cases, firstErr
}
