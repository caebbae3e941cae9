package graph

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Arithmetic, activations, reductions, linear algebra and losses, each with
// the gradient ops its Grad emits.

// unbroadcast sends gradient gp to input i of a broadcasting op, summed back
// to that input's shape.
func unbroadcast(e Emitter, add func(int, Val), in []Val, i int, gp Val) {
	add(i, e.Emit("Unbroadcast", nil, In(gp, in[i])))
}

// gradUnary routes a one-input op's gradient through gradOp(x, gout), where x
// is the op's input, or its output when fromOut is set.
func gradUnary(gradOp string, fromOut bool) GradFunc {
	return func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
		x := in[0]
		if fromOut {
			x = out
		}
		add(0, e.Emit(gradOp, nil, In(x, gout)))
		return nil
	}
}

// extremumAttrs[max][side] are the attrs of the ExtremumGrad ops that
// route a Maximum's (max) or a Minimum's gradient to one side. Like every
// attrs map a rule emits, they are built once and never written.
var extremumAttrs = [2][2]map[string]Val{
	{{"max": false, "side": 0}, {"max": false, "side": 1}},
	{{"max": true, "side": 0}, {"max": true, "side": 1}},
}

// fillSumAttrs and fillMeanAttrs spread a Sum's and a Mean's gradient.
var (
	fillSumAttrs  = map[string]Val{"scale": 1.0}
	fillMeanAttrs = map[string]Val{"scale": 1.0, "divByCount": true}
)

func gradExtremum(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
	attrs := &extremumAttrs[0]
	if n.Op == "Maximum" {
		attrs = &extremumAttrs[1]
	}
	ga := e.Emit("ExtremumGrad", attrs[0], In(in[0], in[1], gout))
	gb := e.Emit("ExtremumGrad", attrs[1], In(in[0], in[1], gout))
	unbroadcast(e, add, in, 0, ga)
	unbroadcast(e, add, in, 1, gb)
	return nil
}

// fillLikeScale resolves FillLike's scale attrs against the reference input.
func fillLikeScale(n *Node, x *tensor.Tensor) float64 {
	scale := 1.0
	if s, ok := n.Attrs["scale"]; ok {
		scale = s.(float64)
	}
	if n.Attr("divByCount") == true {
		scale /= float64(x.Size())
	}
	return scale
}

// FusedProg extracts a Fused node's op-code program.
func FusedProg(n *Node) ([]tensor.FusedStep, error) {
	prog, ok := n.Attr("prog").([]tensor.FusedStep)
	if !ok || len(prog) == 0 {
		return nil, fmt.Errorf("Fused: node %d has no program", n.ID)
	}
	return prog, nil
}

// logitsAndLabels coerces a cross-entropy op's inputs and returns their
// broadcast shape. The batch size is logits' leading dimension.
func logitsAndLabels(n *Node, in []Val) (logits, labels *tensor.Tensor, shape []int, err error) {
	if logits, labels, err = t2(n, in); err != nil {
		return nil, nil, nil, err
	}
	if logits.Rank() == 0 {
		return nil, nil, nil, fmt.Errorf("%s: logits need a batch axis, got a scalar", n.Op)
	}
	shape, err = broadcastShape(n, logits, labels)
	return logits, labels, shape, err
}

// broadcastsTo checks that each of ts broadcasts to shape without growing
// it, as a gradient op's operands do to the forward op's output shape.
func broadcastsTo(n *Node, shape []int, ts ...*tensor.Tensor) error {
	for _, t := range ts {
		if s, err := tensor.BroadcastShapes(t.Shape(), shape); err != nil || !tensor.ShapeEq(s, shape) {
			return fmt.Errorf("%s: operand %v does not broadcast to %v", n.Op, t.Shape(), shape)
		}
	}
	return nil
}

func init() {
	register(
		OpDef{Name: "Add", Into: zipInto(tensor.AddInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedAdd), fuseAs(tensor.FusedAdd)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				unbroadcast(e, add, in, 0, gout)
				unbroadcast(e, add, in, 1, gout)
				return nil
			}},
		OpDef{Name: "Sub", Into: zipInto(tensor.SubInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedSub), fuseAs(tensor.FusedRSub)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				unbroadcast(e, add, in, 0, gout)
				unbroadcast(e, add, in, 1, e.Emit("Neg", nil, In(gout)))
				return nil
			}},
		OpDef{Name: "Mul", Into: zipInto(tensor.MulInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedMul), fuseAs(tensor.FusedMul)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				unbroadcast(e, add, in, 0, e.Emit("Mul", nil, In(gout, in[1])))
				unbroadcast(e, add, in, 1, e.Emit("Mul", nil, In(gout, in[0])))
				return nil
			}},
		OpDef{Name: "Div", Into: zipInto(tensor.DivInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedDiv), fuseAs(tensor.FusedRDiv)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				unbroadcast(e, add, in, 0, e.Emit("Div", nil, In(gout, in[1])))
				// gb = -g*a/b^2
				num := e.Emit("Mul", nil, In(gout, in[0]))
				den := e.Emit("Mul", nil, In(in[1], in[1]))
				unbroadcast(e, add, in, 1, e.Emit("Neg", nil, In(e.Emit("Div", nil, In(num, den)))))
				return nil
			}},
		OpDef{Name: "Pow", Into: zipInto(tensor.PowInto), ReadsOnly: true, InPlace: true,
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("PowGrad", nil, In(in[0], in[1], gout)))
				unbroadcast(e, add, in, 1, e.Emit("PowExpGrad", nil, In(in[0], out, gout)))
				return nil
			}},
		OpDef{Name: "Maximum", Into: zipInto(tensor.MaximumInto), ReadsOnly: true, InPlace: true, Grad: gradExtremum,
			Fuse: []uint8{fuseAs(tensor.FusedMaximum), fuseAs(tensor.FusedMaximum)}},
		OpDef{Name: "Minimum", Into: zipInto(tensor.MinimumInto), ReadsOnly: true, InPlace: true, Grad: gradExtremum,
			Fuse: []uint8{fuseAs(tensor.FusedMinimum), fuseAs(tensor.FusedMinimum)}},

		OpDef{Name: "Neg", Into: mapInto(tensor.NegInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedNeg)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("Neg", nil, In(gout)))
				return nil
			}},
		OpDef{Name: "ReLU", Into: mapInto(tensor.ReLUInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Fuse: []uint8{fuseAs(tensor.FusedReLU)}, Grad: gradUnary("ReLUGrad", false)},
		OpDef{Name: "Sigmoid", Into: mapInto(tensor.SigmoidInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Fuse: []uint8{fuseAs(tensor.FusedSigmoid)}, Grad: gradUnary("SigmoidGradFromOut", true)},
		OpDef{Name: "Tanh", Into: mapInto(tensor.TanhInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Fuse: []uint8{fuseAs(tensor.FusedTanh)}, Grad: gradUnary("TanhGradFromOut", true)},
		OpDef{Name: "Exp", Into: mapInto(tensor.ExpInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Fuse: []uint8{fuseAs(tensor.FusedExp)},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("Mul", nil, In(gout, out)))
				return nil
			}},
		OpDef{Name: "Log", Into: mapInto(tensor.LogInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Fuse: []uint8{fuseAs(tensor.FusedLog)}, Grad: gradUnary("LogGrad", false)},
		OpDef{Name: "Abs", Into: mapInto(tensor.AbsInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedAbs)}, Grad: gradUnary("AbsGrad", false)},
		OpDef{Name: "Softmax", Into: mapInto(tensor.SoftmaxInto), ReadsOnly: true, InPlace: true, Shape: sameShape,
			Grad: gradUnary("SoftmaxGrad", true)},
		OpDef{Name: "Sum", Into: reduceInto(tensor.SumInto), ReadsOnly: true, Shape: scalarShape,
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("FillLike", fillSumAttrs, In(in[0], gout)))
				return nil
			}},
		OpDef{Name: "Mean", Into: reduceInto(tensor.MeanInto), ReadsOnly: true, Shape: scalarShape,
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("FillLike", fillMeanAttrs, In(in[0], gout)))
				return nil
			}},

		// ScaleByScalar multiplies by the scalar tensor input 1, a size-1
		// tensor in every well-formed graph (the gradient of a scalar loss),
		// so in a chain through input 0 it is a Mul by the broadcast extra.
		OpDef{Name: "ScaleByScalar", ReadsOnly: true, InPlace: true, StopGrad: true,
			Fuse: []uint8{fuseAs(tensor.FusedMul), 0},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, b, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.MulScalarInto(alloc.Get(a.Shape()...), a, b.Item()), nil
			}},

		OpDef{Name: "MatMul", ReadsOnly: true,
			Shape: func(_ map[string]Val, in [][]int) ([]int, bool) {
				if len(in[0]) != 2 || len(in[1]) != 2 {
					return nil, false
				}
				return []int{in[0][0], in[1][1]}, true
			},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, b, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if a.Rank() != 2 || b.Rank() != 2 || a.Shape()[1] != b.Shape()[0] {
					return nil, fmt.Errorf("%s: want [m,k] x [k,n], got %v x %v", n.Op, a.Shape(), b.Shape())
				}
				return tensor.MatMulInto(tensor.Rent(alloc, a.Shape()[0], b.Shape()[1]), a, b), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("MatMul", nil, In(gout, e.Emit("Transpose", nil, In(in[1])))))
				add(1, e.Emit("MatMul", nil, In(e.Emit("Transpose", nil, In(in[0])), gout)))
				return nil
			}},
		OpDef{Name: "Transpose", ReadsOnly: true,
			Shape: func(_ map[string]Val, in [][]int) ([]int, bool) {
				if len(in[0]) != 2 {
					return nil, false
				}
				return []int{in[0][1], in[0][0]}, true
			},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				if a.Rank() != 2 {
					return nil, fmt.Errorf("%s: want rank 2, got %v", n.Op, a.Shape())
				}
				return tensor.TransposeInto(tensor.Rent(alloc, a.Shape()[1], a.Shape()[0]), a), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("Transpose", nil, In(gout)))
				return nil
			}},

		// The loss kernels broadcast their second operand.
		OpDef{Name: "CrossEntropy", ReadsOnly: true, Shape: scalarShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				logits, labels, _, err := logitsAndLabels(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.CrossEntropyInto(alloc.Get(), logits, labels, alloc), nil
			},
			// The labels are data: they get no gradient.
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				ce := e.Emit("CrossEntropyGrad", nil, In(in[0], in[1]))
				add(0, e.Emit("ScaleByScalar", nil, In(ce, gout)))
				return nil
			}},
		OpDef{Name: "CrossEntropyGrad", ReadsOnly: true, InPlace: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				logits, labels, shape, err := logitsAndLabels(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.CrossEntropyGradInto(alloc.Get(shape...), logits, labels), nil
			}},
		OpDef{Name: "MSE", ReadsOnly: true, Shape: scalarShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				pred, target, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if _, err := broadcastShape(n, pred, target); err != nil {
					return nil, err
				}
				return tensor.MSEInto(alloc.Get(), pred, target, alloc), nil
			},
			// MSEGrad is the gradient of the broadcast difference; each side
			// sums it back to its own shape, the target's negated.
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				d := e.Emit("MSEGrad", nil, In(in[0], in[1], gout))
				unbroadcast(e, add, in, 0, d)
				unbroadcast(e, add, in, 1, e.Emit("Neg", nil, In(d)))
				return nil
			}},
		// MSEGrad(pred, target, gout) = 2*gout*(pred-target)/size over the
		// broadcast shape, the shape the forward mean ran over; gout is the
		// scalar upstream gradient.
		OpDef{Name: "MSEGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				p, tg, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				shape, err := broadcastShape(n, p, tg)
				if err != nil {
					return nil, err
				}
				return tensor.MSEGradInto(alloc.Get(shape...), p, tg, g.Item()), nil
			}},

		// Gradient ops. Gradient-of-gradient is out of scope, so they all
		// stop gradients.
		OpDef{Name: "ReLUGrad", Into: zipInto(tensor.ReLUGradInto), ReadsOnly: true, InPlace: true, StopGrad: true,
			Fuse: []uint8{fuseAs(tensor.FusedReLUMask), fuseAs(tensor.FusedReLUGate)}},
		// SigmoidGradFromOut(s, g) and TanhGradFromOut(v, g) take the forward
		// op's output rather than its input, and fuse only into a chain that
		// carries the gradient.
		OpDef{Name: "SigmoidGradFromOut", ReadsOnly: true, InPlace: true, StopGrad: true,
			Fuse: []uint8{0, fuseAs(tensor.FusedSigmoidGradOut)},
			Into: zipInto(func(dst, s, g *tensor.Tensor) *tensor.Tensor {
				return tensor.ZipInto(dst, s, g, func(sv, gv float64) float64 {
					return gv * (sv * (1 - sv))
				})
			})},
		OpDef{Name: "TanhGradFromOut", ReadsOnly: true, InPlace: true, StopGrad: true,
			Fuse: []uint8{0, fuseAs(tensor.FusedTanhGradOut)},
			Into: zipInto(func(dst, v, g *tensor.Tensor) *tensor.Tensor {
				return tensor.ZipInto(dst, v, g, func(vv, gv float64) float64 {
					return gv * (1 - vv*vv)
				})
			})},
		// AbsGrad(x, g) is g * sign(x), with sign(0) = 0.
		OpDef{Name: "AbsGrad", ReadsOnly: true, InPlace: true, StopGrad: true,
			Into: zipInto(func(dst, x, g *tensor.Tensor) *tensor.Tensor {
				return tensor.ZipInto(dst, x, g, func(xv, gv float64) float64 {
					sign := 0.0
					if xv > 0 {
						sign = 1
					} else if xv < 0 {
						sign = -1
					}
					return gv * sign
				})
			})},
		// SoftmaxGrad(s, g) is s * (g - sum(g * s)) along the last axis, s
		// being the softmax output. A g that broadcasts to s (the seed of a
		// loss that is itself a softmax) is expanded first.
		OpDef{Name: "SoftmaxGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				s, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if err := broadcastsTo(n, s.Shape(), g); err != nil {
					return nil, err
				}
				out := alloc.Get(s.Shape()...)
				if s.Rank() == 0 {
					// The softmax of a scalar is the constant 1.
					return tensor.FillInto(out, 0), nil
				}
				if !tensor.SameShape(s, g) {
					gb := tensor.ZipInto(alloc.Get(s.Shape()...), g, s, func(gv, _ float64) float64 { return gv })
					defer alloc.Put(gb)
					g = gb
				}
				// Row sums of g*s, each accumulated from 0 in index order.
				sums := alloc.GetZeroed(append(s.Shape()[:s.Rank()-1:s.Rank()-1], 1)...)
				gs, sd, last := tensor.MulInto(out, g, s).Data(), sums.Data(), s.Shape()[s.Rank()-1]
				for i := range gs {
					sd[i/last] += gs[i]
				}
				tensor.MulInto(out, s, tensor.SubInto(out, g, sums))
				alloc.Put(sums)
				return out, nil
			}},
		// PowGrad(x, p, g) is g * d/dx x**p = g * p * x**(p-1), summed back
		// to x's shape when the exponent broadcast x.
		OpDef{Name: "PowGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, p, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				shape, err := broadcastShape(n, x, p)
				if err != nil {
					return nil, err
				}
				if err := broadcastsTo(n, shape, g); err != nil {
					return nil, err
				}
				pm1 := tensor.MapInto(alloc.Get(p.Shape()...), p, func(v float64) float64 { return v - 1 })
				d := tensor.PowInto(alloc.Get(shape...), x, pm1)
				alloc.Put(pm1)
				tensor.MulInto(d, d, p)
				tensor.MulInto(d, g, d)
				if tensor.ShapeEq(shape, x.Shape()) {
					return d, nil
				}
				defer alloc.Put(d)
				return tensor.UnbroadcastToInto(alloc.Get(x.Shape()...), d), nil
			}},
		// PowExpGrad(x, y, g) is g * d/dp x**p = g * y * log(x) for y =
		// x**p, taken as 0 where x <= 0 (the limit at x = 0; x**p is not
		// differentiable in p for negative x).
		OpDef{Name: "PowExpGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, y, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				if err := broadcastsTo(n, y.Shape(), x, g); err != nil {
					return nil, err
				}
				logx := tensor.MapInto(alloc.Get(x.Shape()...), x, func(v float64) float64 {
					if v <= 0 {
						return 0
					}
					return math.Log(v)
				})
				defer alloc.Put(logx)
				dst := tensor.MulInto(alloc.Get(y.Shape()...), g, y)
				return tensor.MulInto(dst, dst, logx), nil
			}},
		// LogGrad(x, g) is g / x.
		OpDef{Name: "LogGrad", ReadsOnly: true, StopGrad: true,
			Into: zipInto(func(dst, x, g *tensor.Tensor) *tensor.Tensor { return tensor.DivInto(dst, g, x) })},
		// ExtremumGrad(a, b, g) routes the upstream gradient to the winning
		// side of a Maximum/Minimum op (side 0 = first input, ties included).
		OpDef{Name: "ExtremumGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, b, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				shape, err := broadcastShape(n, a, b)
				if err != nil {
					return nil, err
				}
				if err := broadcastsTo(n, shape, g); err != nil {
					return nil, err
				}
				isMax := n.Attrs["max"] == true
				side := n.IntAttr("side", 0)
				mask := tensor.ZipInto(alloc.Get(shape...), a, b, func(x, y float64) float64 {
					win := (isMax && x >= y) || (!isMax && x <= y)
					if (win && side == 0) || (!win && side == 1) {
						return 1
					}
					return 0
				})
				return tensor.MulInto(mask, g, mask), nil
			}},
		// FillLike(x, g) broadcasts the scalar gradient g to x's shape,
		// scaled by the attrs "scale" and (for Mean) 1/size.
		OpDef{Name: "FillLike", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				x, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.FillInto(alloc.Get(x.Shape()...), g.Item()*fillLikeScale(n, x)), nil
			}},
		// Unbroadcast(g, ref) sums g over the dims broadcasting added to
		// ref's shape. It copies even when the shapes already match: Into
		// kernels never alias an input into the output.
		OpDef{Name: "Unbroadcast", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				g, ref, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.UnbroadcastToInto(alloc.Get(ref.Shape()...), g), nil
			}},

		// Fused runs an elementwise op-code program (passes/fuse.go): in[0]
		// is the chain input, the rest are the extra operands of the binary
		// steps. It is pointwise over input 0 on its fast path; the
		// broadcast slow path allocates a differently-shaped output first,
		// which fails the executor's in-place shape check and degrades to a
		// plain rent.
		OpDef{Name: "Fused", ReadsOnly: true, InPlace: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				prog, err := FusedProg(n)
				if err != nil {
					return nil, err
				}
				if len(in) < 1 {
					return nil, fmt.Errorf("Fused: want at least 1 input")
				}
				var tb [8]*tensor.Tensor
				ts, err := appendTensors(tb[:0], n, in)
				if err != nil {
					return nil, err
				}
				x, extras := ts[0], ts[1:]
				sh, err := tensor.FusedShape(x, extras, prog)
				if err != nil {
					return nil, fmt.Errorf("Fused: %v", err)
				}
				return tensor.FusedElementwiseInto(alloc.Get(sh...), x, extras, prog, alloc), nil
			}},
	)
}
