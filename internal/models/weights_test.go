package models

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// TestZooWeightsMatchMathRand regenerates every weight of a reduced config
// of each builder with a plain rand.New(rand.NewSource(seed)) Float32 loop,
// in construction order, and compares bit for bit. The goldens pin only the
// configs they were recorded on; this pins the weight stream itself.
func TestZooWeightsMatchMathRand(t *testing.T) {
	wd := smallWideDeep()
	sc := DefaultSiamese()
	sc.SeqLen, sc.Vocab, sc.EmbedDim, sc.Hidden = 4, 20, 8, 8
	mc := DefaultMTDNN()
	mc.SeqLen, mc.Vocab, mc.ModelDim, mc.Heads = 4, 30, 16, 2
	mc.Layers, mc.FFNDim, mc.Tasks, mc.TaskRNN, mc.TaskOut = 1, 32, 2, 8, 3
	rc := DefaultResNet(18)
	rc.ImageSize, rc.Classes = 32, 10
	vc := DefaultVGG()
	vc.ImageSize, vc.Classes = 32, 10
	qc := DefaultSqueezeNet()
	qc.ImageSize, qc.Classes = 64, 10
	gc := DefaultGoogLeNet()
	gc.ImageSize, gc.Classes = 64, 10

	for _, c := range []struct {
		name  string
		seed  int64
		build func() (*graph.Graph, error)
	}{
		{"widedeep", wd.Seed, func() (*graph.Graph, error) { return WideDeep(wd) }},
		{"siamese", sc.Seed, func() (*graph.Graph, error) { return Siamese(sc) }},
		{"mtdnn", mc.Seed, func() (*graph.Graph, error) { return MTDNN(mc) }},
		{"resnet18", rc.Seed, func() (*graph.Graph, error) { return ResNet(rc) }},
		{"vgg16", vc.Seed, func() (*graph.Graph, error) { return VGG(vc) }},
		{"squeezenet", qc.Seed, func() (*graph.Graph, error) { return SqueezeNet(qc) }},
		{"googlenet", gc.Seed, func() (*graph.Graph, error) { return GoogLeNet(gc) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			ref := rand.New(rand.NewSource(c.seed))
			weights := 0
			for _, n := range g.Nodes() {
				if !n.IsConst() {
					continue
				}
				data := n.Value.Data()
				if strings.Contains(n.Name, "_bn_v_") {
					// Batch-norm's unit running variance draws nothing.
					for _, v := range data {
						if v != 1 {
							t.Fatalf("%s: variance const holds %v, want all ones", n.Name, v)
						}
					}
					continue
				}
				shape := n.Value.Shape()
				fanIn := 1
				if len(shape) > 1 {
					fanIn = shape[len(shape)-1]
				}
				bound := float32(1.0 / sqrtApprox(float64(fanIn)))
				for i, v := range data {
					want := (ref.Float32()*2 - 1) * bound
					if math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("%s[%d] = %v, math/rand gives %v", n.Name, i, v, want)
					}
				}
				weights++
			}
			if weights == 0 {
				t.Fatal("no weight const checked")
			}
		})
	}
}

// TestMTDNNStackedQKVIsThreeDraws replays DefaultMTDNN's weight stream and
// checks each encoder layer's stacked wqkv against three consecutive d×d
// tensor.Rand draws at the d fan-in bound: the rows of the one 3d×d weight
// are exactly the wq, wk and wv the model drew before the projections were
// stacked, which keeps its outputs, and the golden hashes, where they were.
func TestMTDNNStackedQKVIsThreeDraws(t *testing.T) {
	cfg := DefaultMTDNN()
	g, err := MTDNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.ModelDim
	bound := float32(1.0 / sqrtApprox(float64(d)))
	rng := tensor.NewRNG(cfg.Seed)
	stacked := 0
	for _, n := range g.Nodes() {
		if !n.IsConst() {
			continue
		}
		shape := n.Value.Shape()
		if !strings.Contains(n.Name, "_wqkv_") {
			fanIn := 1
			if len(shape) > 1 {
				fanIn = shape[len(shape)-1]
			}
			tensor.Rand(rng, float32(1.0/sqrtApprox(float64(fanIn))), shape...)
			continue
		}
		if len(shape) != 2 || shape[0] != 3*d || shape[1] != d {
			t.Fatalf("%s has shape %v, want [%d %d]", n.Name, shape, 3*d, d)
		}
		data := n.Value.Data()
		for part, name := range []string{"wq", "wk", "wv"} {
			want := tensor.Rand(rng, bound, d, d).Data()
			for i, v := range data[part*d*d : (part+1)*d*d] {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("%s %s block [%d] = %v, a d×d draw gives %v", n.Name, name, i, v, want[i])
				}
			}
		}
		stacked++
	}
	if stacked != cfg.Layers {
		t.Fatalf("checked %d stacked projections, want one per layer (%d)", stacked, cfg.Layers)
	}
}
