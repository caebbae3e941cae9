package graph

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Arithmetic, activations, reductions, linear algebra and losses, each with
// the gradient ops its Grad emits.

// unbroadcastTo sends gp to input p of a broadcasting op, summed back to p's
// shape.
func unbroadcastTo(g *Graph, addGrad func(p, gp Port), p, gp Port) {
	addGrad(p, g.Add("Unbroadcast", nil, gp, p).P())
}

func gradExtremum(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
	in := n.Inputs
	isMax := n.Op == "Maximum"
	ga := g.Add("ExtremumGrad", map[string]Val{"max": isMax, "side": 0}, in[0], in[1], gout)
	gb := g.Add("ExtremumGrad", map[string]Val{"max": isMax, "side": 1}, in[0], in[1], gout)
	unbroadcastTo(g, addGrad, in[0], ga.P())
	unbroadcastTo(g, addGrad, in[1], gb.P())
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

func init() {
	register(
		OpDef{Name: "Add", Into: zipInto(tensor.AddInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedAdd), fuseAs(tensor.FusedAdd)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				unbroadcastTo(g, addGrad, n.Inputs[0], gout)
				unbroadcastTo(g, addGrad, n.Inputs[1], gout)
				return nil
			}},
		OpDef{Name: "Sub", Into: zipInto(tensor.SubInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedSub), fuseAs(tensor.FusedRSub)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				unbroadcastTo(g, addGrad, n.Inputs[0], gout)
				neg := g.Add("Neg", nil, gout)
				unbroadcastTo(g, addGrad, n.Inputs[1], neg.P())
				return nil
			}},
		OpDef{Name: "Mul", Into: zipInto(tensor.MulInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedMul), fuseAs(tensor.FusedMul)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				in := n.Inputs
				ga := g.Add("Mul", nil, gout, in[1])
				gb := g.Add("Mul", nil, gout, in[0])
				unbroadcastTo(g, addGrad, in[0], ga.P())
				unbroadcastTo(g, addGrad, in[1], gb.P())
				return nil
			}},
		OpDef{Name: "Div", Into: zipInto(tensor.DivInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedDiv), fuseAs(tensor.FusedRDiv)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				in := n.Inputs
				ga := g.Add("Div", nil, gout, in[1])
				unbroadcastTo(g, addGrad, in[0], ga.P())
				// gb = -g*a/b^2
				num := g.Add("Mul", nil, gout, in[0])
				den := g.Add("Mul", nil, in[1], in[1])
				gb := g.Add("Neg", nil, g.Add("Div", nil, num.P(), den.P()).P())
				unbroadcastTo(g, addGrad, in[1], gb.P())
				return nil
			}},
		OpDef{Name: "Pow", Into: zipInto(tensor.PowInto), ReadsOnly: true, InPlace: true,
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				// Only constant exponents are differentiable here; the
				// converter guarantees this by specializing the exponent.
				expNode := n.Inputs[1].Node
				if expNode.Op != "Const" {
					return fmt.Errorf("graph: Pow gradient needs constant exponent")
				}
				ev, err := AsTensor(expNode.Attr("value"))
				if err != nil || ev.Size() != 1 {
					return fmt.Errorf("graph: Pow exponent must be scalar")
				}
				pg := g.Add("PowGrad", map[string]Val{"p": ev.Item()}, n.Inputs[0], gout)
				addGrad(n.Inputs[0], pg.P())
				return nil
			}},
		OpDef{Name: "Maximum", Into: zipInto(tensor.MaximumInto), ReadsOnly: true, InPlace: true, Grad: gradExtremum,
			Fuse: []uint8{fuseAs(tensor.FusedMaximum), fuseAs(tensor.FusedMaximum)}},
		OpDef{Name: "Minimum", Into: zipInto(tensor.MinimumInto), ReadsOnly: true, InPlace: true, Grad: gradExtremum,
			Fuse: []uint8{fuseAs(tensor.FusedMinimum), fuseAs(tensor.FusedMinimum)}},

		OpDef{Name: "Neg", Into: mapInto(tensor.NegInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedNeg)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("Neg", nil, gout).P())
				return nil
			}},
		OpDef{Name: "ReLU", Into: mapInto(tensor.ReLUInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedReLU)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("ReLUGrad", nil, n.Inputs[0], gout).P())
				return nil
			}},
		OpDef{Name: "Sigmoid", Into: mapInto(tensor.SigmoidInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedSigmoid)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("SigmoidGradFromOut", nil, n.P(), gout).P())
				return nil
			}},
		OpDef{Name: "Tanh", Into: mapInto(tensor.TanhInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedTanh)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("TanhGradFromOut", nil, n.P(), gout).P())
				return nil
			}},
		OpDef{Name: "Exp", Into: mapInto(tensor.ExpInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedExp)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("Mul", nil, gout, n.P()).P())
				return nil
			}},
		OpDef{Name: "Log", Into: mapInto(tensor.LogInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedLog)},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("LogGrad", nil, n.Inputs[0], gout).P())
				return nil
			}},
		OpDef{Name: "Abs", Into: mapInto(tensor.AbsInto), ReadsOnly: true, InPlace: true,
			Fuse: []uint8{fuseAs(tensor.FusedAbs)}},
		OpDef{Name: "Floor", ReadsOnly: true, Fresh: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				return one(tensor.Map(x, math.Floor)), nil
			}},
		OpDef{Name: "Softmax", Into: mapInto(tensor.SoftmaxInto), ReadsOnly: true, InPlace: true,
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("SoftmaxGrad", nil, n.P(), gout).P())
				return nil
			}},
		OpDef{Name: "LogSoftmax", Into: mapInto(tensor.LogSoftmaxInto), ReadsOnly: true, InPlace: true},
		OpDef{Name: "Sum", Into: reduceInto(tensor.SumInto), ReadsOnly: true,
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("FillLike", map[string]Val{"scale": 1.0}, n.Inputs[0], gout).P())
				return nil
			}},
		OpDef{Name: "Mean", Into: reduceInto(tensor.MeanInto), ReadsOnly: true,
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("FillLike", map[string]Val{"scale": 1.0, "divByCount": true}, n.Inputs[0], gout).P())
				return nil
			}},

		// Scale multiplies by the static attr "s"; ScaleByScalar by the
		// scalar tensor input 1, a size-1 tensor in every well-formed graph
		// (the gradient of a scalar loss), so in a chain through input 0 it
		// is a Mul by the broadcast extra.
		OpDef{Name: "Scale", ReadsOnly: true, InPlace: true, StopGrad: true,
			Fuse: []uint8{fuseAs(tensor.FusedScale)},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.MulScalarInto(alloc.Get(a.Shape()...), a, n.Attr("s").(float64)), nil
			}},
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
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, b, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if a.Rank() != 2 || b.Rank() != 2 || a.Shape()[1] != b.Shape()[0] {
					return nil, fmt.Errorf("%s: want [m,k] x [k,n], got %v x %v", n.Op, a.Shape(), b.Shape())
				}
				return tensor.MatMulInto(alloc.Get(a.Shape()[0], b.Shape()[1]), a, b), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				in := n.Inputs
				ga := g.Add("MatMul", nil, gout, g.Add("Transpose", nil, in[1]).P())
				gb := g.Add("MatMul", nil, g.Add("Transpose", nil, in[0]).P(), gout)
				addGrad(in[0], ga.P())
				addGrad(in[1], gb.P())
				return nil
			}},
		OpDef{Name: "Transpose", ReadsOnly: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				if a.Rank() != 2 {
					return nil, fmt.Errorf("%s: want rank 2, got %v", n.Op, a.Shape())
				}
				return tensor.TransposeInto(alloc.Get(a.Shape()[1], a.Shape()[0]), a), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("Transpose", nil, gout).P())
				return nil
			}},

		// The loss kernels broadcast their second operand like the imperative
		// interpreter's tensor.CrossEntropy and tensor.MSE do.
		OpDef{Name: "CrossEntropy", ReadsOnly: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				logits, labels, _, err := logitsAndLabels(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.CrossEntropyInto(alloc.Get(), logits, labels, alloc), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				ce := g.Add("CrossEntropyGrad", nil, n.Inputs[0], n.Inputs[1])
				scaled := g.Add("ScaleByScalar", nil, ce.P(), gout)
				addGrad(n.Inputs[0], scaled.P())
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
		OpDef{Name: "MSE", ReadsOnly: true,
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
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("MSEGrad", nil, n.Inputs[0], n.Inputs[1], gout).P())
				return nil
			}},
		// MSEGrad(pred, target, gout): gout is the scalar upstream gradient.
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
		// SoftmaxGrad(s, g): s is the softmax output.
		OpDef{Name: "SoftmaxGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				s, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				gs := tensor.Mul(g, s)
				sum := tensor.SumAxis(gs, -1)
				nLast := s.Shape()[s.Rank()-1]
				exp := tensor.Zeros(s.Shape()...)
				ed, sd := exp.Data(), sum.Data()
				for i := range sd {
					for j := 0; j < nLast; j++ {
						ed[i*nLast+j] = sd[i]
					}
				}
				return one(tensor.Mul(s, tensor.Sub(g, exp))), nil
			}},
		// PowGrad(x, g) is d/dx x**p for the constant attr "p".
		OpDef{Name: "PowGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				x, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				p := n.Attr("p").(float64)
				d := tensor.MulScalar(tensor.Pow(x, tensor.Scalar(p-1)), p)
				return one(tensor.Mul(g, d)), nil
			}},
		OpDef{Name: "LogGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				x, g, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return one(tensor.Div(g, x)), nil
			}},
		// ExtremumGrad(a, b, g) routes the upstream gradient to the winning
		// side of a Maximum/Minimum op (side 0 = first input, ties included).
		OpDef{Name: "ExtremumGrad", ReadsOnly: true, Fresh: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				a, b, g, err := t3(n, in)
				if err != nil {
					return nil, err
				}
				isMax := n.Attrs["max"] == true
				side := n.IntAttr("side", 0)
				mask := tensor.Zip(a, b, func(x, y float64) float64 {
					win := (isMax && x >= y) || (!isMax && x <= y)
					if (win && side == 0) || (!win && side == 1) {
						return 1
					}
					return 0
				})
				return one(tensor.Mul(g, mask)), nil
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
				ts, err := allTensors(n, in)
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
