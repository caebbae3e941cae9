package tensor

import (
	"fmt"
	"math"
)

// Conv layout convention: NCHW for activations, [outC, inC, kH, kW] for
// filters. Stride and "same"/valid padding are supported via explicit pad.

// Conv2D performs a 2-D convolution. x is NCHW, w is [outC,inC,kH,kW].
// Padding pad is applied symmetrically; stride applies to both dims. Thin
// wrapper over the destination-passing Conv2DInto (conv_into.go).
func Conv2D(x, w *Tensor, stride, pad int) *Tensor {
	n, oc, oh, ow := Conv2DShape(x.Shape(), w.Shape(), stride, pad)
	return Conv2DInto(Zeros(n, oc, oh, ow), x, w, stride, pad, nil)
}

// Conv2DGradInput computes the input gradient of Conv2D.
func Conv2DGradInput(x, w, gout *Tensor, stride, pad int) *Tensor {
	return Conv2DGradInputInto(Zeros(x.shape...), x, w, gout, stride, pad, nil)
}

// Conv2DGradFilter computes the filter gradient of Conv2D.
func Conv2DGradFilter(x, w, gout *Tensor, stride, pad int) *Tensor {
	return Conv2DGradFilterInto(Zeros(w.shape...), x, w, gout, stride, pad, nil)
}

// MaxPool2D applies kxk max pooling with the given stride to an NCHW tensor.
// It returns the pooled tensor and the argmax offsets used by MaxPool2DGrad.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := Zeros(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	for i := 0; i < n*c; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := math.Inf(-1)
				bestOff := 0
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						off := (i*h+y*stride+dy)*w + xx*stride + dx
						if x.data[off] > best {
							best = x.data[off]
							bestOff = off
						}
					}
				}
				oi := (i*oh+y)*ow + xx
				out.data[oi] = best
				arg[oi] = bestOff
			}
		}
	}
	return out, arg
}

// MaxPool2DGrad routes upstream gradients to the argmax positions.
func MaxPool2DGrad(xshape []int, arg []int, gout *Tensor) *Tensor {
	out := Zeros(xshape...)
	for i, off := range arg {
		out.data[off] += gout.data[i]
	}
	return out
}

// AvgPool2D applies kxk average pooling with the given stride.
func AvgPool2D(x *Tensor, k, stride int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := Zeros(n, c, oh, ow)
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
				out.data[(i*oh+y)*ow+xx] = s * inv
			}
		}
	}
	return out
}

// AvgPool2DGrad distributes upstream gradients evenly across each window.
func AvgPool2DGrad(xshape []int, k, stride int, gout *Tensor) *Tensor {
	out := Zeros(xshape...)
	h, w := xshape[2], xshape[3]
	oh, ow := gout.shape[2], gout.shape[3]
	inv := 1 / float64(k*k)
	nc := xshape[0] * xshape[1]
	for i := 0; i < nc; i++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				g := gout.data[(i*oh+y)*ow+xx] * inv
				for dy := 0; dy < k; dy++ {
					for dx := 0; dx < k; dx++ {
						out.data[(i*h+y*stride+dy)*w+xx*stride+dx] += g
					}
				}
			}
		}
	}
	return out
}

// BatchNorm normalizes x over the batch (and spatial dims for rank-4 input)
// per channel, using gamma/beta scale and shift. In training mode it uses
// batch statistics and updates runningMean/runningVar in place with the given
// momentum; in inference mode it uses the running statistics. This dual
// behaviour is the branch that breaks trace-based converters in Figure 6 of
// the paper.
func BatchNorm(x, gamma, beta, runningMean, runningVar *Tensor, training bool, momentum, eps float64) *Tensor {
	var chans, spatial int
	switch x.Rank() {
	case 2:
		chans = x.shape[1]
		spatial = 1
	case 4:
		chans = x.shape[1]
		spatial = x.shape[2] * x.shape[3]
	default:
		panic(fmt.Sprintf("tensor: BatchNorm wants rank 2 or 4, got %v", x.shape))
	}
	n := x.shape[0]
	out := Zeros(x.shape...)
	count := float64(n * spatial)
	for ch := 0; ch < chans; ch++ {
		var mean, variance float64
		if training {
			s := 0.0
			forEachChannel(x, ch, chans, spatial, func(v float64) { s += v })
			mean = s / count
			v2 := 0.0
			forEachChannel(x, ch, chans, spatial, func(v float64) { d := v - mean; v2 += d * d })
			variance = v2 / count
			runningMean.data[ch] = momentum*runningMean.data[ch] + (1-momentum)*mean
			runningVar.data[ch] = momentum*runningVar.data[ch] + (1-momentum)*variance
		} else {
			mean = runningMean.data[ch]
			variance = runningVar.data[ch]
		}
		inv := 1 / math.Sqrt(variance+eps)
		g, b := gamma.data[ch], beta.data[ch]
		mapChannel(x, out, ch, chans, spatial, func(v float64) float64 {
			return (v-mean)*inv*g + b
		})
	}
	return out
}

func forEachChannel(x *Tensor, ch, chans, spatial int, f func(float64)) {
	n := x.shape[0]
	for i := 0; i < n; i++ {
		base := (i*chans + ch) * spatial
		for s := 0; s < spatial; s++ {
			f(x.data[base+s])
		}
	}
}

func mapChannel(x, out *Tensor, ch, chans, spatial int, f func(float64) float64) {
	n := x.shape[0]
	for i := 0; i < n; i++ {
		base := (i*chans + ch) * spatial
		for s := 0; s < spatial; s++ {
			out.data[base+s] = f(x.data[base+s])
		}
	}
}
