package tensor

import "fmt"

// This file exposes the padded-input im2col unroll as a standalone kernel,
// so the graph optimizer's Im2Col-extraction pass can hoist it out of Conv2D
// and Conv2DGradFilter and share one unroll between the forward convolution
// and the filter gradient (they consume identical [n*oh*ow, c*kh*kw]
// matrices of the same input). The FromCol kernels below are exactly the
// tails of Conv2DInto / Conv2DGradFilterInto after the unroll, so extracted
// graphs compute bit-identical results.

// Im2ColShape returns the [rows, cols] shape of the im2col unroll of an
// input/filter pair.
func Im2ColShape(xShape, wShape []int, stride, pad int) (rows, cols int) {
	n, _, oh, ow := Conv2DShape(xShape, wShape, stride, pad)
	return n * oh * ow, xShape[1] * wShape[2] * wShape[3]
}

// Im2ColInto unrolls x (zero-padded by pad) into dst [n*oh*ow, c*kh*kw],
// renting padding scratch from alloc. w is read for its kernel dims only.
func Im2ColInto(dst, x, w *Tensor, stride, pad int, alloc Allocator) *Tensor {
	alloc = orHeap(alloc)
	n, _, oh, ow := Conv2DShape(x.shape, w.shape, stride, pad)
	c, kh, kw := x.shape[1], w.shape[2], w.shape[3]
	checkDst(dst, []int{n * oh * ow, c * kh * kw}, "Im2ColInto")
	xp := x
	if pad > 0 {
		xp = Rent(alloc, n, c, x.shape[2]+2*pad, x.shape[3]+2*pad)
		Pad2DInto(xp, x, pad)
	}
	im2colInto(dst, xp, kh, kw, stride, oh, ow)
	if pad > 0 {
		alloc.Put(xp)
	}
	return dst
}

// filterCols returns the c*kh*kw columns of the im2col unroll that a rank-4
// filter shape reads.
func filterCols(wShape []int, op string) int {
	if len(wShape) != 4 {
		panic(fmt.Sprintf("tensor: %s wants a rank-4 filter, got %v", op, wShape))
	}
	return wShape[1] * wShape[2] * wShape[3]
}

// Conv2DFromColInto finishes a convolution from a precomputed im2col matrix
// col [n*oh*ow, c*kh*kw] into dst [n,oc,oh,ow]: col × filterᵀ on the row
// kernel, each cell summed in ascending column order, then rearranged to
// NCHW. It is the tail of Conv2DInto, so Im2Col + Conv2DFromCol is
// bit-identical to Conv2D. The transposed filter and the product are
// rented from alloc.
func Conv2DFromColInto(dst, col, w *Tensor, n, oh, ow int, alloc Allocator) *Tensor {
	alloc = orHeap(alloc)
	ckk := filterCols(w.shape, "Conv2DFromColInto")
	oc := w.shape[0]
	checkDst(dst, []int{n, oc, oh, ow}, "Conv2DFromColInto")
	rows := n * oh * ow
	checkOperand(col, []int{rows, ckk}, "Conv2DFromColInto", "im2col")
	wT := Rent(alloc, ckk, oc)
	for j := 0; j < oc; j++ {
		for k, v := range w.data[j*ckk : (j+1)*ckk] {
			wT.data[k*oc+j] = v
		}
	}
	mm := Rent(alloc, rows, oc)
	matmulRows(mm.data, col.data, wT.data, rows, ckk, oc)
	// Rearrange [n,oh*ow,oc] -> [n,oc,oh*ow], writing dst in order.
	pix := oh * ow
	for i := 0; i < n; i++ {
		img := mm.data[i*pix*oc : (i+1)*pix*oc]
		for o := 0; o < oc; o++ {
			plane := dst.data[(i*oc+o)*pix : (i*oc+o+1)*pix]
			for p := range plane {
				plane[p] = img[p*oc+o]
			}
		}
	}
	alloc.Put(mm)
	alloc.Put(wT)
	return dst
}

// Conv2DGradFilterFromColInto computes the filter gradient from a
// precomputed im2col matrix col and the output gradient gout into dst
// (shaped like the filter) — the tail of Conv2DGradFilterInto. Output
// channel o's filter row accumulates gout[i,o,:,:] × the image's col rows on
// the row kernel, image by image, so every cell sums over ascending (n, oh,
// ow) and gout is read in its NCHW layout. It needs no scratch; alloc is
// accepted for symmetry with the other convolution kernels.
func Conv2DGradFilterFromColInto(dst, col, gout *Tensor, _ Allocator) *Tensor {
	if gout.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2DGradFilterFromColInto wants a rank-4 gradient, got %v", gout.shape))
	}
	n, oc, oh, ow := gout.shape[0], gout.shape[1], gout.shape[2], gout.shape[3]
	ckk := filterCols(dst.shape, "Conv2DGradFilterFromColInto")
	if dst.shape[0] != oc {
		panic(fmt.Sprintf("tensor: Conv2DGradFilterFromColInto destination shape %v, gradient %v: output channels differ",
			dst.shape, gout.shape))
	}
	pix := oh * ow
	checkOperand(col, []int{n * pix, ckk}, "Conv2DGradFilterFromColInto", "im2col")
	clear(dst.data)
	for i := 0; i < n; i++ {
		img := col.data[i*pix*ckk : (i+1)*pix*ckk]
		for o := 0; o < oc; o++ {
			g := gout.data[(i*oc+o)*pix : (i*oc+o+1)*pix]
			rowKernel(dst.data[o*ckk:(o+1)*ckk], g, img, ckk)
		}
	}
	return dst
}
