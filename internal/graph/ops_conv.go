package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Convolution and pooling, plus the Im2Col / FromCol family the im2col pass
// (passes/im2col.go) rewrites convolutions into.

// poolOut rents the pooled output of NCHW x from alloc.
func poolOut(alloc tensor.Allocator, x *tensor.Tensor, k, stride int) *tensor.Tensor {
	sh := x.Shape()
	return tensor.Rent(alloc, sh[0], sh[1], (sh[2]-k)/stride+1, (sh[3]-k)/stride+1)
}

// poolShape is the Shape rule of the NCHW pooling ops (poolOut's shape).
func poolShape(attrs map[string]Val, in [][]int) ([]int, bool) {
	sh := in[0]
	if len(sh) != 4 {
		return nil, false
	}
	k, stride := intAttr(attrs, "k", 2), intAttr(attrs, "stride", 2)
	if stride < 1 {
		return nil, false
	}
	return []int{sh[0], sh[1], (sh[2]-k)/stride + 1, (sh[3]-k)/stride + 1}, true
}

// gradPool routes a pooling op's gradient through gradOp(x, gout).
func gradPool(gradOp string) GradFunc {
	return func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
		attrs := map[string]Val{"k": n.IntAttr("k", 2), "stride": n.IntAttr("stride", 2)}
		add(0, e.Emit(gradOp, attrs, In(in[0], gout)))
		return nil
	}
}

func init() {
	register(
		OpDef{Name: "Conv2D", ReadsOnly: true,
			Shape: func(attrs map[string]Val, in [][]int) ([]int, bool) {
				stride := intAttr(attrs, "stride", 1)
				if len(in[0]) != 4 || len(in[1]) != 4 || stride < 1 {
					return nil, false
				}
				nb, oc, oh, ow := tensor.Conv2DShape(in[0], in[1], stride, intAttr(attrs, "pad", 0))
				return []int{nb, oc, oh, ow}, true
			},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, w, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if x.Rank() != 4 || w.Rank() != 4 {
					return nil, fmt.Errorf("%s: want rank-4 input and filter, got %v, %v", n.Op, x.Shape(), w.Shape())
				}
				stride, pad := n.IntAttr("stride", 1), n.IntAttr("pad", 0)
				nb, oc, oh, ow := tensor.Conv2DShape(x.Shape(), w.Shape(), stride, pad)
				return tensor.Conv2DInto(tensor.Rent(alloc, nb, oc, oh, ow), x, w, stride, pad, alloc), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				attrs := map[string]Val{"stride": n.IntAttr("stride", 1), "pad": n.IntAttr("pad", 0)}
				add(0, e.Emit("Conv2DGradInput", attrs, In(in[0], in[1], gout)))
				add(1, e.Emit("Conv2DGradFilter", attrs, In(in[0], in[1], gout)))
				return nil
			}},
		// Conv2DGradInput / Conv2DGradFilter take (x, w, gout).
		OpDef{Name: "Conv2DGradInput", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, w, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.Conv2DGradInputInto(alloc.Get(x.Shape()...), x, w, g,
					n.IntAttr("stride", 1), n.IntAttr("pad", 0), alloc), nil
			}},
		OpDef{Name: "Conv2DGradFilter", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, w, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.Conv2DGradFilterInto(alloc.Get(w.Shape()...), x, w, g,
					n.IntAttr("stride", 1), n.IntAttr("pad", 0), alloc), nil
			}},

		OpDef{Name: "MaxPool", ReadsOnly: true, Grad: gradPool("MaxPoolGrad"), Shape: poolShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				k, stride := n.IntAttr("k", 2), n.IntAttr("stride", 2)
				return tensor.MaxPool2DInto(poolOut(alloc, x, k, stride), x, k, stride), nil
			}},
		// MaxPoolGrad(x, gout) recomputes the argmax (cheap at our scales).
		OpDef{Name: "MaxPoolGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.MaxPool2DGradInto(alloc.Get(x.Shape()...), x,
					n.IntAttr("k", 2), n.IntAttr("stride", 2), g), nil
			}},
		OpDef{Name: "AvgPool", ReadsOnly: true, Grad: gradPool("AvgPoolGrad"), Shape: poolShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				k, stride := n.IntAttr("k", 2), n.IntAttr("stride", 2)
				return tensor.AvgPool2DInto(poolOut(alloc, x, k, stride), x, k, stride), nil
			}},
		OpDef{Name: "AvgPoolGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.AvgPool2DGradInto(alloc.Get(x.Shape()...),
					n.IntAttr("k", 2), n.IntAttr("stride", 2), g), nil
			}},

		OpDef{Name: "Im2Col", ReadsOnly: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, w, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				stride, pad := n.IntAttr("stride", 1), n.IntAttr("pad", 0)
				rows, cols := tensor.Im2ColShape(x.Shape(), w.Shape(), stride, pad)
				return tensor.Im2ColInto(tensor.Rent(alloc, rows, cols), x, w, stride, pad, alloc), nil
			}},
		// Conv2DFromCol(col, w, x): x is read for its shape only (the output
		// spatial dims are not recoverable from the flattened col matrix).
		OpDef{Name: "Conv2DFromCol", ReadsOnly: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				col, w, x, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				stride, pad := n.IntAttr("stride", 1), n.IntAttr("pad", 0)
				nb, oc, oh, ow := tensor.Conv2DShape(x.Shape(), w.Shape(), stride, pad)
				return tensor.Conv2DFromColInto(tensor.Rent(alloc, nb, oc, oh, ow), col, w, nb, oh, ow, alloc), nil
			}},
		// Conv2DGradFilterFromCol(col, gout, w): w is read for its shape only.
		OpDef{Name: "Conv2DGradFilterFromCol", ReadsOnly: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				col, g, w, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.Conv2DGradFilterFromColInto(alloc.Get(w.Shape()...), col, g, alloc), nil
			}},
	)
}
