package tensor

import (
	"fmt"
	"math"
)

// Conv2DInto computes a 2-D convolution in NCHW layout into out (allocated
// from ar when nil). x is (N, Cin, H, W); w is (Cout, Cin, KH, KW). stride
// and pad apply to both spatial dimensions. bias (Cout) may be nil. It runs
// as a blocked implicit GEMM: out[b] (Cout × OH·OW) = w (Cout × K) · patches
// (K × OH·OW) with K = Cin·KH·KW. The patch matrix is never materialised
// whole when it is wide: one parallel loop runs over (image, block of column
// panels); each block unrolls its patches straight into packed panel order
// in a scratch of at most convScratch elements, multiplies all of w against
// it while it is cache-hot, and adds the bias to its columns. When one
// image's patch matrix is narrower than one block, the images of the batch
// are laid side by side in one column space j ∈ [0, N·OH·OW) and the blocks
// are cut over that: a block's panels then hold positions of several images,
// so the filters stream once per block instead of once per image past a
// half-empty panel. Such a block multiplies into a tile in its scratch and
// scatters the tile's live columns to their images. When the column space
// has too few panels to give every worker two blocks (the deep layers of a
// small image have a handful of output positions), it is packed once and
// gemmPacked splits the filter rows instead.
func Conv2DInto(out *Tensor, x, w, bias *Tensor, stride, pad int, ar *Arena) *Tensor {
	if len(x.shape) != 4 || len(w.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires 4-D x and w, got %v, %v", x.shape, w.shape))
	}
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cin2, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: x has %d, w expects %d", cin, cin2))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for x %v, w %v, stride %d, pad %d", x.shape, w.shape, stride, pad))
	}
	if out == nil {
		out = ar.New(n, cout, oh, ow)
	} else {
		want := []int{n, cout, oh, ow}
		if !ShapeEq(out.shape, want) {
			panic(fmt.Sprintf("tensor: Conv2DInto destination %v, want %v", out.shape, want))
		}
		clear(out.data)
	}

	g := convGeom{cin: cin, h: h, w: wd, kh: kh, kw: kw, stride: stride, pad: pad, oh: oh, ow: ow}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		// A pointwise convolution's patch matrix is the image itself: view
		// each plane as one long row so every panel is a straight copy.
		g.h, g.w, g.oh, g.ow = 1, h*wd, 1, oh*ow
	}
	k := cin * kh * kw // K of the GEMM
	plane := oh * ow   // one image's share of the GEMM's N
	np := (plane + nr - 1) / nr
	imgSize := cin * h * wd
	var biasData []float32
	if bias != nil {
		biasData = bias.data
	}

	// The fan-out is priced as the product plus one streamed element per
	// packed patch entry.
	parts, _ := fanOut(n*np, float64(n*k*plane)*(float64(cout)*nsMAC+nsStream))
	bw, fold := convBlocking(n, k, np, parts)
	// A folded group's product goes through a tile of cout rows behind the
	// packed panels in the same scratch, tile floats per panel.
	tile := 0
	if fold > 1 {
		tile = cout * nr
	}
	groups, cols := n/fold, fold*plane
	np = (cols + nr - 1) / nr
	groupIn, groupOut := fold*imgSize, cout*cols

	if blocks := (np + bw - 1) / bw; groups*blocks >= 2*parts {
		ParallelForChunked(groups*blocks, parts, 1, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				b, jt0 := t/blocks, t%blocks*bw
				pw := min(bw, np-jt0)
				live := min(pw*nr, cols-jt0*nr)
				col, scratch := ar.grabScratch(pw * (k*nr + tile))
				g.packPatches(col, x.data[b*groupIn:(b+1)*groupIn], jt0, jt0+pw)
				dst, ld, width := out.data[b*groupOut+jt0*nr:(b+1)*groupOut], cols, live
				if fold > 1 {
					// Every column of the tile is multiplied, the zero
					// panel tail too, so no 4×16 tile is a partial one.
					dst, ld, width = col[pw*k*nr:], pw*nr, pw*nr
					clear(dst)
				}
				for i0 := 0; i0 < cout; i0 += packMC {
					gemmBlock(dst, ld, w.data, k, col, i0, min(i0+packMC, cout), pw, width, k)
				}
				if fold > 1 {
					scatterColumns(out.data, dst, ld, jt0*nr, live, plane, cout, biasData)
				} else {
					addChannelBias(dst, ld, live, cout, biasData)
				}
				ar.dropScratch(scratch)
			}
		})
		return out
	}

	col, scratch := ar.grabScratch(np * (k*nr + tile))
	for b := 0; b < groups; b++ {
		imgs := x.data[b*groupIn : (b+1)*groupIn]
		if parts, grain := fanOut(np, float64(np*k*nr)*nsStream); parts > 1 {
			ParallelForChunked(np, parts, grain, func(lo, hi int) {
				g.packPatches(col[lo*k*nr:], imgs, lo, hi)
			})
		} else {
			g.packPatches(col, imgs, 0, np)
		}
		dst, ld := out.data[b*groupOut:(b+1)*groupOut], cols
		if fold > 1 {
			dst, ld = col[np*k*nr:], np*nr
			clear(dst)
		}
		gemmPacked(dst, w.data, col, cout, ld, k)
		if fold > 1 {
			scatterColumns(out.data, dst, ld, 0, cols, plane, cout, biasData)
		} else {
			addChannelBias(dst, ld, cols, cout, biasData)
		}
	}
	ar.dropScratch(scratch)
	return out
}

// convScratch bounds one block's packed patches, in elements (384 KB):
// small enough to stay L2-resident while every filter row streams past it,
// and what each worker holds instead of a whole-image im2col buffer.
const convScratch = 96 << 10

// convBlocking cuts the column space of a batch of n images whose patch
// matrices are K = k rows by np panels each. bw is the panels per block:
// what fits the scratch bound, cut down further while that leaves the
// workers short of two blocks each, never under one 4×16 tile. fold images
// share one column space: a batch of planes narrower than one block is one
// such group, anything else is n groups of one image, whose columns are
// contiguous in out as they stand.
func convBlocking(n, k, np, workers int) (bw, fold int) {
	bw = min(convScratch/(k*nr)/tilePanels1*tilePanels1, n*np/(2*workers)/tilePanels4*tilePanels4)
	bw = max(bw, tilePanels4)
	if n > 1 && np < bw {
		return bw, n
	}
	return bw, 1
}

// scatterColumns writes columns [j0, j0+live) of a folded column space —
// column j is position j%plane of image j/plane — from tile (cout rows of
// stride ld, starting at column j0) to their places in the NCHW out, adding
// bias[c] on the way. A nil bias is a plain copy.
func scatterColumns(out, tile []float32, ld, j0, live, plane, cout int, bias []float32) {
	for c := 0; c < cout; c++ {
		row := tile[c*ld : c*ld+live]
		for s := 0; s < live; {
			b, p := (j0+s)/plane, (j0+s)%plane
			run := min(live-s, plane-p)
			dst := out[(b*cout+c)*plane+p:][:run]
			if bias == nil {
				copy(dst, row[s:])
			} else {
				bv := bias[c]
				for i, v := range row[s : s+run] {
					dst[i] = v + bv
				}
			}
			s += run
		}
	}
}

// addChannelBias adds bias[c] to the first live columns of each of the cout
// rows of dst (row stride ld). A nil bias is a no-op.
func addChannelBias(dst []float32, ld, live, cout int, bias []float32) {
	if bias == nil {
		return
	}
	for c := 0; c < cout; c++ {
		bv := bias[c]
		row := dst[c*ld : c*ld+live]
		for i := range row {
			row[i] += bv
		}
	}
}

// convGeom is the geometry of one image's patch (im2col) matrix: row
// kk = (c·kh + ki)·kw + kj, column j = oi·ow + oj, value
// img[c][oi·stride + ki − pad][oj·stride + kj − pad], zero outside the image.
type convGeom struct {
	cin, h, w, kh, kw, stride, pad, oh, ow int
}

// packPatches writes column panels [jt0, jt1) of the patch matrices of imgs
// (whole images, laid side by side: column j is position j%(OH·OW) of image
// j/(OH·OW)) into dst in the packed layout gemmBlock consumes (panel jt0
// first, each K×nr). Every slot is written exactly once — image data where
// the patch overlaps the image, zeros on the padding fringe and in the
// columns past the last image — so dst may be stale scratch and is never
// cleared as a whole.
func (g *convGeom) packPatches(dst, imgs []float32, jt0, jt1 int) {
	k := g.cin * g.kh * g.kw
	plane, imgSize := g.oh*g.ow, g.cin*g.h*g.w
	cols := len(imgs) / imgSize * plane
	for jt := jt0; jt < jt1; jt++ {
		panel := dst[(jt-jt0)*k*nr : (jt-jt0+1)*k*nr]
		j0 := jt * nr
		live := min(nr, cols-j0)
		// Cut the panel's positions into runs that share an output row, and
		// with it an image.
		for s := 0; s < live; {
			b, p := (j0+s)/plane, (j0+s)%plane
			oi, oj := p/g.ow, p%g.ow
			run := min(live-s, g.ow-oj)
			g.packRun(panel[s:], imgs[b*imgSize:(b+1)*imgSize], oi, oj, run)
			s += run
		}
		if live < nr {
			for kk := 0; kk < k; kk++ {
				clear(panel[kk*nr+live : (kk+1)*nr])
			}
		}
	}
}

// packRun writes, for every patch row kk, the run ≤ nr horizontally adjacent
// output positions starting at (oi, oj) into d[kk·nr : kk·nr+run]. The
// kernel rows ki that fall inside the image are one range [kiLo, kiHi) for
// the whole run, and for one kernel column kj the positions inside the image
// are one range [lo, hi), so bounds are decided per run and per kj, never
// per element: each kj is at most three packRows rectangles over every
// channel — the zero rows above the image, the rows inside it, the zero rows
// below.
func (g *convGeom) packRun(d, img []float32, oi, oj, run int) {
	iy0, ix0 := oi*g.stride-g.pad, oj*g.stride-g.pad
	kiLo := min(max(0, -iy0), g.kh)
	kiHi := max(kiLo, min(g.kh, g.h-iy0))
	plane, chStep, kiStep := g.h*g.w, g.kh*g.kw*nr, g.kw*nr
	for kj := 0; kj < g.kw; kj++ {
		ix := ix0 + kj // image column of the run's first position
		lo, hi := 0, 0
		if ix < 0 {
			lo = min(run, (-ix+g.stride-1)/g.stride)
		}
		if ix < g.w {
			hi = min(run, (g.w-ix+g.stride-1)/g.stride)
		}
		hi = max(hi, lo)
		dk := d[kj*nr:] // patch row (c, ki, kj) starts at dk[c*chStep+ki*kiStep]
		if kiLo > 0 {
			packRows(dk, chStep, kiStep, nil, 0, 0, 0, g.cin, kiLo, 1, 0, 0, run)
		}
		if kiHi > kiLo {
			packRows(dk[kiLo*kiStep:], chStep, kiStep, img, (iy0+kiLo)*g.w+ix, plane, g.w, g.cin, kiHi-kiLo, g.stride, lo, hi, run)
		}
		if kiHi < g.kh {
			packRows(dk[kiHi*kiStep:], chStep, kiStep, nil, 0, 0, 0, g.cin, g.kh-kiHi, 1, 0, 0, run)
		}
	}
}

// packRowsGo writes the outer × inner rectangle of patch-row slots of run
// floats each: slot (o, i) is d[o·dOuter+i·dInner:][:run], and its lane s is
// src[base + o·sOuter + i·sInner + s·stride] for lo ≤ s < hi and 0 for every
// other s < run. 0 ≤ lo ≤ hi ≤ run ≤ nr; base may be negative on a left
// fringe (lo > 0), since only the lanes in [lo, hi) are read, and src is
// unused when lo == hi. It is the reference packRows is held to, and
// packRows itself below the AVX2 tier and at strides past 2.
func packRowsGo(d []float32, dOuter, dInner int, src []float32, base, sOuter, sInner, outer, inner, stride, lo, hi, run int) {
	straight := stride == 1 && hi-lo == nr
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			dd := d[o*dOuter+i*dInner:][:run]
			b := base + o*sOuter + i*sInner
			if straight {
				// Through a local so neither move can alias: the compiler
				// inlines both instead of calling memmove.
				v := *(*[nr]float32)(src[b:])
				*(*[nr]float32)(dd) = v
				continue
			}
			for s := 0; s < lo; s++ {
				dd[s] = 0
			}
			for s := lo; s < hi; s++ {
				dd[s] = src[b+s*stride]
			}
			for s := hi; s < run; s++ {
				dd[s] = 0
			}
		}
	}
}

// Conv2DNaive is a direct reference convolution used by tests to validate
// the implicit-GEMM path.
func Conv2DNaive(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, _, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	out := New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					var s float32
					for ci := 0; ci < cin; ci++ {
						for ki := 0; ki < kh; ki++ {
							ii := oi*stride + ki - pad
							if ii < 0 || ii >= h {
								continue
							}
							for kj := 0; kj < kw; kj++ {
								jj := oj*stride + kj - pad
								if jj < 0 || jj >= wd {
									continue
								}
								s += x.At(b, ci, ii, jj) * w.At(co, ci, ki, kj)
							}
						}
					}
					if bias != nil {
						s += bias.data[co]
					}
					out.Set(s, b, co, oi, oj)
				}
			}
		}
	}
	return out
}

// MaxPool2DInto applies max pooling with the given square kernel and stride
// on an NCHW tensor into out (allocated from ar when nil).
// Each output is what the scan `if v > best { best = v }` from −Inf over
// its window in row-major order gives — the first maximal element, NaN
// skipped, −Inf for a window with no number — computed without a branch per
// element: first every input row's maxima over each window's columns, then
// their combination down each window's rows in row order. A row maximum is
// the first maximal element of its row, so the first maximal row maximum is
// the window's first maximal element. Both passes are maximumLoop sweeps
// (VMAXPS on amd64), whose x > y ? x : y is exactly the scan's step.
func MaxPool2DInto(out *Tensor, x *Tensor, kernel, stride, pad int, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	out = intoShape(out, []int{n, c, oh, ow}, ar, "MaxPool2DInto")
	g := poolGeom{h: h, w: w, oh: oh, ow: ow, k: kernel, stride: stride, pad: pad}
	if parts, grain := fanOut(n*c, float64(len(out.data)*kernel*kernel)*nsStream); parts > 1 {
		ParallelForChunked(n*c, parts, grain, func(lo, hi int) {
			g.planes(out.data, x.data, lo, hi, ar)
		})
		return out
	}
	g.planes(out.data, x.data, 0, n*c, ar)
	return out
}

// poolGroup bounds the input elements of the planes MaxPool2DInto sweeps
// together (a larger plane is swept alone), so small planes share every
// sweep instead of paying calls per row.
const poolGroup = 4 << 10

// poolGeom is the geometry of one max-pooled plane.
type poolGeom struct {
	h, w, oh, ow, k, stride, pad int
}

// planes pools planes [lo, hi) of src into dst, a group of planes at a
// time, with k sweeps per pass over the whole group. After sweep e of the
// row pass, run[q] is the scan of in[q : q+e] — NaN made −Inf by the first
// sweep, which is no change to any scan, since neither is ever > best — so
// every window clipped to e in-row columns is read off then, the whole
// ones (e = k) last. The column pass does the same over the row maxima with
// a row as the unit; a row maximum is never NaN, so its first sweep is a
// copy. A window with nothing inside the plane is −Inf.
func (g *poolGeom) planes(dst, src []float32, lo, hi int, ar *Arena) {
	per := max(1, poolGroup/max(1, g.h*g.w)) // planes per group
	most := min(per, hi-lo) * g.h            // rows of the largest group
	scratch, st := ar.grabScratch(most * (g.w + 2*g.ow))
	defer ar.dropScratch(st)
	negInf := float32(math.Inf(-1))
	for p0 := lo; p0 < hi; p0 += per {
		np := min(per, hi-p0)
		rows := np * g.h
		in := src[p0*g.h*g.w : (p0+np)*g.h*g.w]
		run := scratch[:len(in)]
		rowMax := scratch[len(in):][:rows*g.ow]
		vert := scratch[len(in)+len(rowMax):][:len(rowMax)]
		out := dst[p0*g.oh*g.ow : (p0+np)*g.oh*g.ow]
		for oj := 0; oj < g.ow; oj++ {
			if x0, x1 := g.clip(oj, g.w); x1 <= x0 {
				for r := 0; r < rows; r++ {
					rowMax[r*g.ow+oj] = negInf
				}
			}
		}
		for oi := 0; oi < g.oh; oi++ {
			if y0, y1 := g.clip(oi, g.h); y1 <= y0 {
				for pl := 0; pl < np; pl++ {
					for i := range g.ow {
						out[(pl*g.oh+oi)*g.ow+i] = negInf
					}
				}
			}
		}
		for e := 1; e <= min(g.k, g.w); e++ { // no window holds more of a row
			if e == 1 {
				maximumScalar(run, in, negInf)
			} else {
				maximumLoop(run[:len(in)-e+1], in[e-1:], run)
			}
			for oj := 0; oj < g.ow; oj++ {
				if x0, x1 := g.clip(oj, g.w); x1-x0 == e {
					for r := 0; r < rows; r++ {
						rowMax[r*g.ow+oj] = run[r*g.w+x0]
					}
				}
			}
		}
		for e := 1; e <= min(g.k, g.h); e++ {
			if e == 1 {
				copy(vert, rowMax)
			} else {
				maximumLoop(vert[:len(vert)-(e-1)*g.ow], rowMax[(e-1)*g.ow:], vert)
			}
			for oi := 0; oi < g.oh; oi++ {
				if y0, y1 := g.clip(oi, g.h); y1-y0 == e {
					for pl := 0; pl < np; pl++ {
						copy(out[(pl*g.oh+oi)*g.ow:(pl*g.oh+oi+1)*g.ow], vert[(pl*g.h+y0)*g.ow:])
					}
				}
			}
		}
	}
}

// clip returns the input range [lo, hi) of output index o's window along a
// dimension of n inputs, clipped to the dimension (hi ≤ lo when the window
// lies wholly in the padding).
func (g *poolGeom) clip(o, n int) (lo, hi int) {
	return max(0, o*g.stride-g.pad), min(n, o*g.stride-g.pad+g.k)
}

// GlobalAvgPool2DInto averages each channel's spatial plane, (N,C,H,W) →
// (N,C), into out (allocated from ar when nil).
func GlobalAvgPool2DInto(out *Tensor, x *Tensor, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out = intoShape(out, []int{n, c}, ar, "GlobalAvgPool2DInto")
	plane := h * w
	if parts, grain := fanOut(n*c, float64(len(x.data))*nsStream); parts > 1 {
		ParallelForChunked(n*c, parts, grain, func(lo, hi int) {
			avgPlanes(out.data, x.data, lo, hi, plane)
		})
		return out
	}
	avgPlanes(out.data, x.data, 0, n*c, plane)
	return out
}

// AvgPool2DInto averages each kernel×kernel window of every (N, C) plane
// into out (allocated from ar when nil). Padding taps are skipped, not
// counted; a window wholly in the padding gives 0.
func AvgPool2DInto(out *Tensor, x *Tensor, kernel, stride, pad int, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: AvgPool2D empty output for %v", x.shape))
	}
	out = intoShape(out, []int{n, c, oh, ow}, ar, "AvgPool2DInto")
	g := poolGeom{h: h, w: w, oh: oh, ow: ow, k: kernel, stride: stride, pad: pad}
	if parts, grain := fanOut(n*c, float64(len(out.data)*kernel*kernel)*nsStream); parts > 1 {
		ParallelForChunked(n*c, parts, grain, func(lo, hi int) {
			g.avgWindows(out.data, x.data, lo, hi)
		})
		return out
	}
	g.avgWindows(out.data, x.data, 0, n*c)
	return out
}

// avgWindows averages the windows of planes [lo, hi).
func (g poolGeom) avgWindows(dst, src []float32, lo, hi int) {
	for nc := lo; nc < hi; nc++ {
		s := src[nc*g.h*g.w : (nc+1)*g.h*g.w]
		d := dst[nc*g.oh*g.ow : (nc+1)*g.oh*g.ow]
		for oi := 0; oi < g.oh; oi++ {
			for oj := 0; oj < g.ow; oj++ {
				var sum float64
				count := 0
				for ki := 0; ki < g.k; ki++ {
					ii := oi*g.stride + ki - g.pad
					if ii < 0 || ii >= g.h {
						continue
					}
					for kj := 0; kj < g.k; kj++ {
						jj := oj*g.stride + kj - g.pad
						if jj < 0 || jj >= g.w {
							continue
						}
						sum += float64(s[ii*g.w+jj])
						count++
					}
				}
				var v float32
				if count > 0 {
					v = float32(sum / float64(count))
				}
				d[oi*g.ow+oj] = v
			}
		}
	}
}

func avgPlanes(dst, src []float32, lo, hi, plane int) {
	for nc := lo; nc < hi; nc++ {
		var s float64
		for _, v := range src[nc*plane : (nc+1)*plane] {
			s += float64(v)
		}
		dst[nc] = float32(s / float64(plane))
	}
}

// BatchNorm2DInto applies inference-mode batch normalisation on NCHW input
// using per-channel scale gamma, shift beta, running mean and variance into
// out (allocated from ar when nil): BatchNorm2DChainInto with no program.
func BatchNorm2DInto(out *Tensor, x, gamma, beta, mean, variance *Tensor, eps float32, ar *Arena) *Tensor {
	return BatchNorm2DChainInto(out, x, gamma, beta, mean, variance, eps, nil, nil, nil, ar)
}

// BatchNorm2DChainInto normalises x into out (allocated from ar when nil)
// and streams the result through the epilogue program p: the batch-norm
// lead of a fused group, as LinearChainInto is the dense one. Each
// sub-chunk of the output is normalised and then run through the whole
// tape while it is still in L1, so a [batchnorm2d add relu] group reads x
// and the residual and writes its output once. A nil p is plain batch
// normalisation.
func BatchNorm2DChainInto(out *Tensor, x, gamma, beta, mean, variance *Tensor, eps float32, p *Program, args, outs []*Tensor, ar *Arena) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: BatchNorm2D requires a 4-D input, got %v", x.shape))
	}
	c, plane := x.shape[1], x.shape[2]*x.shape[3]
	out = intoShape(out, x.shape, ar, "BatchNorm2DInto")
	// The channel's scale is 16 Newton divisions: once per call, not once
	// per image — on a batch of 2×2 planes it costs what the planes do.
	inv, scratch := ar.grabScratch(c)
	defer ar.dropScratch(scratch)
	for ch := range inv {
		inv[ch] = gamma.data[ch] / sqrt32(variance.data[ch]+eps)
	}
	src, b, m := x.data, beta.data, mean.data
	p.run(out, func(cur []float32, base int) {
		// A sub-chunk may span several (image, channel) planes: walk them,
		// with one division per sub-chunk.
		off, ch := base%plane, base/plane%c
		for len(cur) > 0 {
			k := min(len(cur), plane-off)
			batchNormLoop(cur[:k], src[base:base+k], inv[ch], b[ch], m[ch])
			cur, base, off = cur[k:], base+k, 0
			if ch++; ch == c {
				ch = 0
			}
		}
	}, args, outs)
	return out
}

// batchNormLoop normalises one run of a channel's plane.
func batchNormLoop(dst, src []float32, inv, b, m float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = (src[i]-m)*inv + b
	}
}

// sqrt32 is a Newton square root for the batch-norm denominator, kept
// dependency-free. Sixteen steps from z = x converge on [~1e-8, ~1e8]; past
// that z is still halving its way towards √x, so it keeps stepping while a
// step would move z by more than z·2⁻²⁰ (the smallest subnormal takes 62
// more) and stops without taking the first step that small. Inputs the
// sixteen steps already settle therefore keep their bits, and every positive
// float32 ends within 1e-6 relative of √x.
func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 16; i++ {
		z = 0.5 * (z + x/z)
	}
	for i := 0; i < 128; i++ {
		next := 0.5 * (z + x/z)
		if d, tol := next-z, z*0x1p-20; !(d > tol || d < -tol) {
			break
		}
		z = next
	}
	return z
}
