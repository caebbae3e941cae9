package tensor

import "fmt"

// Destination-passing convolution/pooling kernels. They write into
// caller-provided tensors and rent im2col scratch from an Allocator, so a
// planned graph replay performs the whole conv stack with zero heap
// allocations. Layout: NCHW for activations, [outC, inC, kH, kW] for
// filters; padding is symmetric and the stride applies to both dims.

// Conv2DShape returns the output dims of Conv2D for the given input/filter
// shapes.
func Conv2DShape(xShape, wShape []int, stride, pad int) (n, oc, oh, ow int) {
	if len(xShape) != 4 || len(wShape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants rank-4 tensors, got %v, %v", xShape, wShape))
	}
	n = xShape[0]
	oc = wShape[0]
	oh = (xShape[2]+2*pad-wShape[2])/stride + 1
	ow = (xShape[3]+2*pad-wShape[3])/stride + 1
	return
}

// Pad2DInto zero-pads the last two dims of rank-4 a by p into dst (shape
// [n,c,h+2p,w+2p]).
func Pad2DInto(dst, a *Tensor, p int) *Tensor {
	n, c, h, w := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	checkDst(dst, []int{n, c, h + 2*p, w + 2*p}, "Pad2DInto")
	if p == 0 {
		return CopyInto(dst, a)
	}
	clear(dst.data)
	ow := w + 2*p
	for i := 0; i < n*c; i++ {
		for y := 0; y < h; y++ {
			src := (i*h + y) * w
			d := (i*(h+2*p)+y+p)*ow + p
			copy(dst.data[d:d+w], a.data[src:src+w])
		}
	}
	return dst
}

// Unpad2DInto removes p pixels from each side of the last two dims of a into
// dst.
func Unpad2DInto(dst, a *Tensor, p int) *Tensor {
	if p == 0 {
		return CopyInto(dst, a)
	}
	n, c, hp, wp := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	h, w := hp-2*p, wp-2*p
	checkDst(dst, []int{n, c, h, w}, "Unpad2DInto")
	for i := 0; i < n*c; i++ {
		for y := 0; y < h; y++ {
			src := (i*hp+y+p)*wp + p
			d := (i*h + y) * w
			copy(dst.data[d:d+w], a.data[src:src+w])
		}
	}
	return dst
}

// im2colInto unrolls padded input x into dst [n*oh*ow, c*kh*kw]; every
// element of dst is written. Small kernel widths (the common 3x3 case) use
// explicit element copies — a 3-element copy() is a memmove call, which
// dominates the profile otherwise.
func im2colInto(dst, x *Tensor, kh, kw, stride, oh, ow int) *Tensor {
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cols := c * kh * kw
	dd, xd := dst.data, x.data
	if kh == 3 && kw == 3 {
		// The dominant 3x3 case: fully unrolled 9-element window with
		// strength-reduced row offsets.
		for i := 0; i < n; i++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					d := ((i*oh+y)*ow + xx) * cols
					for ch := 0; ch < c; ch++ {
						src := ((i*c+ch)*h+y*stride)*wd + xx*stride
						dd[d] = xd[src]
						dd[d+1] = xd[src+1]
						dd[d+2] = xd[src+2]
						src += wd
						dd[d+3] = xd[src]
						dd[d+4] = xd[src+1]
						dd[d+5] = xd[src+2]
						src += wd
						dd[d+6] = xd[src]
						dd[d+7] = xd[src+1]
						dd[d+8] = xd[src+2]
						d += 9
					}
				}
			}
		}
		return dst
	}
	for i := 0; i < n; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				row := ((i*oh+y)*ow + xx) * cols
				for ch := 0; ch < c; ch++ {
					for dy := 0; dy < kh; dy++ {
						srcY := y*stride + dy
						src := ((i*c+ch)*h+srcY)*wd + xx*stride
						d := row + (ch*kh+dy)*kw
						switch kw {
						case 1:
							dd[d] = xd[src]
						case 2:
							dd[d] = xd[src]
							dd[d+1] = xd[src+1]
						default:
							copy(dd[d:d+kw], xd[src:src+kw])
						}
					}
				}
			}
		}
	}
	return dst
}

// col2imInto scatters column gradients back into input-shaped dst (zeroed
// here first).
func col2imInto(dst, gcol *Tensor, kh, kw, stride, oh, ow int) *Tensor {
	clear(dst.data)
	n, c, h, wd := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	cols := c * kh * kw
	dd, gd := dst.data, gcol.data
	if kh == 3 && kw == 3 {
		for i := 0; i < n; i++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					src := ((i*oh+y)*ow + xx) * cols
					for ch := 0; ch < c; ch++ {
						d := ((i*c+ch)*h+y*stride)*wd + xx*stride
						dd[d] += gd[src]
						dd[d+1] += gd[src+1]
						dd[d+2] += gd[src+2]
						d += wd
						dd[d] += gd[src+3]
						dd[d+1] += gd[src+4]
						dd[d+2] += gd[src+5]
						d += wd
						dd[d] += gd[src+6]
						dd[d+1] += gd[src+7]
						dd[d+2] += gd[src+8]
						src += 9
					}
				}
			}
		}
		return dst
	}
	for i := 0; i < n; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				row := ((i*oh+y)*ow + xx) * cols
				for ch := 0; ch < c; ch++ {
					for dy := 0; dy < kh; dy++ {
						srcY := y*stride + dy
						d := ((i*c+ch)*h+srcY)*wd + xx*stride
						src := row + (ch*kh+dy)*kw
						for dx := 0; dx < kw; dx++ {
							dd[d+dx] += gd[src+dx]
						}
					}
				}
			}
		}
	}
	return dst
}

// goutFlatInto rearranges gout [n,oc,oh,ow] into dst [n*oh*ow, oc].
func goutFlatInto(dst, gout *Tensor) *Tensor {
	n, oc, oh, ow := gout.shape[0], gout.shape[1], gout.shape[2], gout.shape[3]
	for i := 0; i < n; i++ {
		for o := 0; o < oc; o++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					dst.data[((i*oh+y)*ow+xx)*oc+o] = gout.data[((i*oc+o)*oh+y)*ow+xx]
				}
			}
		}
	}
	return dst
}

// convGeom validates the input and filter of a convolution and returns its
// output dims.
func convGeom(x, w *Tensor, stride, pad int) (n, oc, oh, ow int) {
	n, oc, oh, ow = Conv2DShape(x.shape, w.shape, stride, pad)
	if c := x.shape[1]; w.shape[1] != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %d, filter %d", c, w.shape[1]))
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D output would be empty: in %v filter %v", x.shape, w.shape))
	}
	return n, oc, oh, ow
}

// Conv2DInto performs a 2-D convolution into dst [n,oc,oh,ow]: the im2col
// unroll, then Conv2DFromColInto. All scratch is rented from alloc.
func Conv2DInto(dst, x, w *Tensor, stride, pad int, alloc Allocator) *Tensor {
	alloc = orHeap(alloc)
	n, oc, oh, ow := convGeom(x, w, stride, pad)
	checkDst(dst, []int{n, oc, oh, ow}, "Conv2DInto")
	rows, ckk := Im2ColShape(x.shape, w.shape, stride, pad)
	col := Im2ColInto(Rent(alloc, rows, ckk), x, w, stride, pad, alloc)
	Conv2DFromColInto(dst, col, w, n, oh, ow, alloc)
	alloc.Put(col)
	return dst
}

// Conv2DGradInputInto computes the input gradient of Conv2D into dst (shaped
// like x), renting scratch from alloc: gcol = gout (as [n*oh*ow, oc]) ×
// filter (as [oc, c*kh*kw]) on the row kernel, each cell summed over
// ascending output channel, then scattered back by col2im.
func Conv2DGradInputInto(dst, x, w, gout *Tensor, stride, pad int, alloc Allocator) *Tensor {
	alloc = orHeap(alloc)
	checkDst(dst, x.shape, "Conv2DGradInputInto")
	n, oc, oh, ow := convGeom(x, w, stride, pad)
	checkOperand(gout, []int{n, oc, oh, ow}, "Conv2DGradInputInto", "gradient")
	c, kh, kw := w.shape[1], w.shape[2], w.shape[3]
	rows, ckk := n*oh*ow, c*kh*kw
	gflat := Rent(alloc, rows, oc)
	goutFlatInto(gflat, gout)
	gcol := Rent(alloc, rows, ckk)
	matmulRows(gcol.data, gflat.data, w.data, rows, oc, ckk)
	if pad == 0 {
		col2imInto(dst, gcol, kh, kw, stride, oh, ow)
	} else {
		gxp := Rent(alloc, n, c, x.shape[2]+2*pad, x.shape[3]+2*pad)
		col2imInto(gxp, gcol, kh, kw, stride, oh, ow)
		Unpad2DInto(dst, gxp, pad)
		alloc.Put(gxp)
	}
	alloc.Put(gcol)
	alloc.Put(gflat)
	return dst
}

// Conv2DGradFilterInto computes the filter gradient of Conv2D into dst
// (shaped like w): the im2col unroll, then Conv2DGradFilterFromColInto.
// Scratch is rented from alloc.
func Conv2DGradFilterInto(dst, x, w, gout *Tensor, stride, pad int, alloc Allocator) *Tensor {
	alloc = orHeap(alloc)
	checkDst(dst, w.shape, "Conv2DGradFilterInto")
	n, oc, oh, ow := convGeom(x, w, stride, pad)
	checkOperand(gout, []int{n, oc, oh, ow}, "Conv2DGradFilterInto", "gradient")
	rows, ckk := Im2ColShape(x.shape, w.shape, stride, pad)
	col := Im2ColInto(Rent(alloc, rows, ckk), x, w, stride, pad, alloc)
	Conv2DGradFilterFromColInto(dst, col, gout, alloc)
	alloc.Put(col)
	return dst
}

// MaxPool2DInto applies kxk max pooling with the given stride into dst
// [n,c,oh,ow] (no argmax output; MaxPool2DGradInto recomputes it).
func MaxPool2DInto(dst, x *Tensor, k, stride int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	checkDst(dst, []int{n, c, oh, ow}, "MaxPool2DInto")
	if k == 2 && stride == 2 {
		// The ubiquitous 2x2/2 case: direct 4-way max, no window loops.
		for i := 0; i < n*c; i++ {
			for y := 0; y < oh; y++ {
				r0 := (i*h + 2*y) * w
				r1 := r0 + w
				orow := dst.data[(i*oh+y)*ow : (i*oh+y+1)*ow]
				for xx := 0; xx < ow; xx++ {
					c0 := 2 * xx
					best := x.data[r0+c0]
					if v := x.data[r0+c0+1]; v > best {
						best = v
					}
					if v := x.data[r1+c0]; v > best {
						best = v
					}
					if v := x.data[r1+c0+1]; v > best {
						best = v
					}
					orow[xx] = best
				}
			}
		}
		return dst
	}
	for i := 0; i < n*c; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				off := (i*h+y*stride)*w + xx*stride
				best := x.data[off]
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						if v := x.data[(i*h+y*stride+dy)*w+xx*stride+dx]; v > best {
							best = v
						}
					}
				}
				dst.data[(i*oh+y)*ow+xx] = best
			}
		}
	}
	return dst
}

// MaxPool2DGradInto recomputes the pooling argmax over x and routes upstream
// gradients gout to the max positions, into dst (shaped like x).
func MaxPool2DGradInto(dst, x *Tensor, k, stride int, gout *Tensor) *Tensor {
	checkDst(dst, x.shape, "MaxPool2DGradInto")
	clear(dst.data)
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	if k == 2 && stride == 2 {
		for i := 0; i < n*c; i++ {
			for y := 0; y < oh; y++ {
				r0 := (i*h + 2*y) * w
				r1 := r0 + w
				grow := gout.data[(i*oh+y)*ow : (i*oh+y+1)*ow]
				for xx := 0; xx < ow; xx++ {
					c0 := 2 * xx
					bestOff := r0 + c0
					best := x.data[bestOff]
					if v := x.data[r0+c0+1]; v > best {
						best, bestOff = v, r0+c0+1
					}
					if v := x.data[r1+c0]; v > best {
						best, bestOff = v, r1+c0
					}
					if v := x.data[r1+c0+1]; v > best {
						bestOff = r1 + c0 + 1
					}
					dst.data[bestOff] += grow[xx]
				}
			}
		}
		return dst
	}
	for i := 0; i < n*c; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				bestOff := (i*h+y*stride)*w + xx*stride
				best := x.data[bestOff]
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						off := (i*h+y*stride+dy)*w + xx*stride + dx
						if x.data[off] > best {
							best = x.data[off]
							bestOff = off
						}
					}
				}
				dst.data[bestOff] += gout.data[(i*oh+y)*ow+xx]
			}
		}
	}
	return dst
}

// AvgPool2DInto applies kxk average pooling into dst.
func AvgPool2DInto(dst, x *Tensor, k, stride int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	checkDst(dst, []int{n, c, oh, ow}, "AvgPool2DInto")
	inv := 1 / float64(k*k)
	for i := 0; i < n*c; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				s := 0.0
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						s += x.data[(i*h+y*stride+dy)*w+xx*stride+dx]
					}
				}
				dst.data[(i*oh+y)*ow+xx] = s * inv
			}
		}
	}
	return dst
}

// AvgPool2DGradInto distributes upstream gradients evenly across each
// window, into dst (zeroed here first).
func AvgPool2DGradInto(dst *Tensor, k, stride int, gout *Tensor) *Tensor {
	clear(dst.data)
	h, w := dst.shape[2], dst.shape[3]
	oh, ow := gout.shape[2], gout.shape[3]
	inv := 1 / float64(k*k)
	nc := dst.shape[0] * dst.shape[1]
	for i := 0; i < nc; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				g := gout.data[(i*oh+y)*ow+xx] * inv
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						dst.data[(i*h+y*stride+dy)*w+xx*stride+dx] += g
					}
				}
			}
		}
	}
	return dst
}
