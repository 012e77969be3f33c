package ops

import (
	"math/rand"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func TestReverseTime(t *testing.T) {
	d := MustLookup("reverse_time")
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4, 5, 6, // batch 0: t0=(1,2) t1=(3,4) t2=(5,6)
	}, 1, 3, 2)
	out := d.Exec(nil, []*tensor.Tensor{x}, nil)
	want := tensor.FromSlice([]float32{5, 6, 3, 4, 1, 2}, 1, 3, 2)
	if !tensor.AllClose(out, want, 0, 0) {
		t.Fatalf("reverse_time = %v", out)
	}
	// Involution: reversing twice is the identity.
	back := d.Exec(nil, []*tensor.Tensor{out}, nil)
	if !tensor.AllClose(back, x, 0, 0) {
		t.Fatalf("double reverse is not identity")
	}
}

func TestReverseTimeInferRejectsRank2(t *testing.T) {
	d := MustLookup("reverse_time")
	if _, err := d.Infer(nil, [][]int{{2, 3}}); err == nil {
		t.Fatalf("rank-2 input should fail")
	}
	out, err := d.Infer(nil, [][]int{{1, 5, 7}})
	if err != nil || !tensor.ShapeEq(out, []int{1, 5, 7}) {
		t.Fatalf("infer = %v, %v", out, err)
	}
}

func TestAvgPool2D(t *testing.T) {
	d := MustLookup("avgpool2d")
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := d.Exec(graph.Attrs{"kernel": 2, "stride": 2}, []*tensor.Tensor{x}, nil)
	want := tensor.FromSlice([]float32{3.5, 5.5, 11.5, 13.5}, 1, 1, 2, 2)
	if !tensor.AllClose(out, want, 1e-6, 1e-6) {
		t.Fatalf("avgpool = %v, want %v", out, want)
	}
}

func TestAvgPool2DExcludesPadding(t *testing.T) {
	d := MustLookup("avgpool2d")
	x := tensor.Full(4, 1, 1, 2, 2)
	out := d.Exec(graph.Attrs{"kernel": 3, "stride": 2, "pad": 1}, []*tensor.Tensor{x}, nil)
	// Each window sees only real cells (value 4); divisor excludes padding.
	for _, v := range out.Data() {
		if v != 4 {
			t.Fatalf("padding included in average: %v", out)
		}
	}
}

func TestAvgPool2DInferShape(t *testing.T) {
	d := MustLookup("avgpool2d")
	out, err := d.Infer(graph.Attrs{"kernel": 2, "stride": 2}, [][]int{{1, 8, 16, 16}})
	if err != nil || !tensor.ShapeEq(out, []int{1, 8, 8, 8}) {
		t.Fatalf("infer = %v, %v", out, err)
	}
}

func TestAvgPoolMatchesGlobalWhenFull(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.Rand(rng, 1, 1, 3, 5, 5)
	full := MustLookup("avgpool2d").Exec(graph.Attrs{"kernel": 5, "stride": 1}, []*tensor.Tensor{x}, nil)
	global := MustLookup("global_avg_pool").Exec(nil, []*tensor.Tensor{x}, nil)
	for c := 0; c < 3; c++ {
		if diff := full.At(0, c, 0, 0) - global.At(0, c); diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("channel %d: full-window avgpool %v != global %v", c, full.At(0, c, 0, 0), global.At(0, c))
		}
	}
}
