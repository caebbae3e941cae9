// Package autodiff implements define-by-run reverse-mode automatic
// differentiation (a "gradient tape") over internal/tensor.
//
// This is the autodiff engine of the imperative executor: every tensor
// builtin invoked by the minipy interpreter records a backward closure on the
// active tape, exactly like TensorFlow Eager's GradientTape. The symbolic
// engines do NOT use this package — graph-mode gradients are generated
// structurally in internal/graph.
package autodiff

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/tensor"
)

// nodeIDs issues process-globally unique node identifiers. Values that
// outlive one training iteration (RNN state stored on objects) carry nodes
// from an earlier tape; globally unique IDs guarantee such stale nodes can
// never alias a fresh tape's gradient slots — they simply receive no
// gradient, making cross-iteration state a clean gradient stop (the same
// semantics as the graph engines' PyGetAttr gradient stop).
var nodeIDs atomic.Int64

// Node is a tape-tracked tensor value. Nodes form an implicit DAG through the
// tape's recorded operations.
type Node struct {
	// Value is the forward result.
	Value *tensor.Tensor
	// id indexes the tape's gradient table; -1 means untracked (constant).
	// IDs are globally unique across tapes (see nodeIDs).
	id int64
}

// Const wraps a tensor as an untracked constant node.
func Const(t *tensor.Tensor) *Node { return &Node{Value: t, id: -1} }

// Tracked reports whether the node participates in differentiation.
func (n *Node) Tracked() bool { return n.id >= 0 }

// op is one recorded operation: when backprop reaches it, backward receives
// the output gradient and must accumulate into its input nodes via
// Tape.accum.
type op struct {
	outID    int64
	backward func(g *tensor.Tensor)
}

// Tape records operations during forward execution and replays them in
// reverse to compute gradients. A tape belongs to one goroutine: the
// interpreter or the graph executor records onto it, then the same caller
// replays it after the forward pass completes.
type Tape struct {
	ops []op
	// watched maps variable names to their tape nodes so Gradient can report
	// per-variable gradients.
	watched map[string]*Node
	// bornAt records len(ops) at the moment a variable was watched. Ops
	// recorded before that moment cannot reference the node, so during
	// reverse replay a watched gradient is final as soon as the replay index
	// drops to the node's birth index — the basis for GradientStream's
	// per-tensor emission.
	bornAt map[int64]int
	grads  map[int64]*tensor.Tensor
}

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{watched: make(map[string]*Node), bornAt: make(map[int64]int)}
}

// NewNode allocates a tracked node holding v.
func (t *Tape) NewNode(v *tensor.Tensor) *Node {
	return &Node{Value: v, id: nodeIDs.Add(1)}
}

// Watch registers a named variable (model parameter) with the tape and
// returns its tracked node. Watching the same name twice returns the original
// node.
func (t *Tape) Watch(name string, v *tensor.Tensor) *Node {
	if n, ok := t.watched[name]; ok {
		return n
	}
	n := t.NewNode(v)
	t.watched[name] = n
	t.bornAt[n.id] = len(t.ops)
	return n
}

// Record registers a backward closure for a tracked output node.
func (t *Tape) Record(out *Node, backward func(g *tensor.Tensor)) {
	if out == nil || !out.Tracked() {
		return
	}
	t.ops = append(t.ops, op{outID: out.id, backward: backward})
}

// Accum adds g into the gradient accumulator for node n. It is exported for
// custom backward rules written outside this package (e.g. minipy builtins
// with approximate gradients).
func (t *Tape) Accum(n *Node, g *tensor.Tensor) { t.accum(n, g) }

// accum adds g into the gradient accumulator for node n.
func (t *Tape) accum(n *Node, g *tensor.Tensor) {
	if n == nil || !n.Tracked() {
		return
	}
	if cur, ok := t.grads[n.id]; ok {
		t.grads[n.id] = tensor.Add(cur, g)
	} else {
		t.grads[n.id] = g
	}
}

// Gradient runs backprop from the scalar loss node and returns the gradient
// of every watched variable (by name). Variables that did not influence the
// loss get zero gradients.
func (t *Tape) Gradient(loss *Node) map[string]*tensor.Tensor {
	return t.GradientStream(loss, nil)
}

// GradientStream runs backprop from the scalar loss node and invokes emit
// (when non-nil) for each watched variable the moment its gradient is final
// — i.e. as soon as no remaining backward op can contribute to it. Because
// replay runs in reverse recording order, variables recorded late in the
// forward pass (the top layers) finalize first, so a distributed worker can
// ship per-layer gradients to a parameter server while backprop is still
// descending through earlier layers. The full gradient map is also returned.
//
// Backprop is single-threaded; emit is called synchronously on the calling
// goroutine and should hand expensive work (network pushes) off to another
// goroutine to actually overlap communication with compute.
func (t *Tape) GradientStream(loss *Node, emit func(name string, g *tensor.Tensor)) map[string]*tensor.Tensor {
	// Watched variables ordered by descending birth index: the next one to
	// finalize is always at the front of the remainder.
	type watchedVar struct {
		name string
		n    *Node
		born int
	}
	order := make([]watchedVar, 0, len(t.watched))
	for name, n := range t.watched {
		order = append(order, watchedVar{name: name, n: n, born: t.bornAt[n.id]})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].born > order[j].born })

	out := make(map[string]*tensor.Tensor, len(t.watched))
	next := 0
	// finalize emits every not-yet-emitted variable whose birth index is >=
	// remaining: ops below that index existed before the variable and cannot
	// reference it.
	finalize := func(remaining int) {
		for next < len(order) && order[next].born >= remaining {
			v := order[next]
			g, ok := t.grads[v.n.id]
			if !ok {
				g = tensor.Zeros(v.n.Value.Shape()...)
			}
			out[v.name] = g
			if emit != nil {
				emit(v.name, g)
			}
			next++
		}
	}

	if !loss.Tracked() {
		// Loss does not depend on any tracked value; all grads are zero.
		t.grads = make(map[int64]*tensor.Tensor)
		finalize(0)
		return out
	}
	t.grads = make(map[int64]*tensor.Tensor)
	t.grads[loss.id] = tensor.Full(1, loss.Value.Shape()...)
	// Replay in reverse recording order. Recording order is a valid
	// topological order of the forward DAG because each op is recorded when
	// its output is produced.
	for i := len(t.ops) - 1; i >= 0; i-- {
		o := t.ops[i]
		if g, ok := t.grads[o.outID]; ok {
			o.backward(g)
		}
		finalize(i)
	}
	finalize(0)
	return out
}

// --- differentiable operations ---------------------------------------------
//
// Each helper computes the forward value eagerly and records the backward
// rule. Inputs may be constants (untracked); their gradients are skipped.

// Add returns a + b (broadcasting).
func (t *Tape) Add(a, b *Node) *Node {
	out := t.NewNode(tensor.Add(a.Value, b.Value))
	ash, bsh := a.Value.Shape(), b.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.UnbroadcastTo(g, ash))
		t.accum(b, tensor.UnbroadcastTo(g, bsh))
	})
	return out
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	out := t.NewNode(tensor.Sub(a.Value, b.Value))
	ash, bsh := a.Value.Shape(), b.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.UnbroadcastTo(g, ash))
		t.accum(b, tensor.UnbroadcastTo(tensor.Neg(g), bsh))
	})
	return out
}

// Mul returns a * b element-wise.
func (t *Tape) Mul(a, b *Node) *Node {
	out := t.NewNode(tensor.Mul(a.Value, b.Value))
	av, bv := a.Value, b.Value
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.UnbroadcastTo(tensor.Mul(g, bv), av.Shape()))
		t.accum(b, tensor.UnbroadcastTo(tensor.Mul(g, av), bv.Shape()))
	})
	return out
}

// Div returns a / b element-wise.
func (t *Tape) Div(a, b *Node) *Node {
	out := t.NewNode(tensor.Div(a.Value, b.Value))
	av, bv := a.Value, b.Value
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.UnbroadcastTo(tensor.Div(g, bv), av.Shape()))
		gb := tensor.Neg(tensor.Div(tensor.Mul(g, av), tensor.Mul(bv, bv)))
		t.accum(b, tensor.UnbroadcastTo(gb, bv.Shape()))
	})
	return out
}

// Pow returns a ** p for constant exponent p.
func (t *Tape) Pow(a *Node, p float64) *Node {
	out := t.NewNode(tensor.Pow(a.Value, tensor.Scalar(p)))
	av := a.Value
	t.Record(out, func(g *tensor.Tensor) {
		d := tensor.MulScalar(tensor.Pow(av, tensor.Scalar(p-1)), p)
		t.accum(a, tensor.Mul(g, d))
	})
	return out
}

// Neg returns -a.
func (t *Tape) Neg(a *Node) *Node {
	out := t.NewNode(tensor.Neg(a.Value))
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, tensor.Neg(g)) })
	return out
}

// Maximum returns element-wise max(a, b); the subgradient routes to the
// winning side (ties go to a).
func (t *Tape) Maximum(a, b *Node) *Node { return t.extremum(a, b, true) }

// Minimum returns element-wise min(a, b).
func (t *Tape) Minimum(a, b *Node) *Node { return t.extremum(a, b, false) }

func (t *Tape) extremum(a, b *Node, isMax bool) *Node {
	var v *tensor.Tensor
	if isMax {
		v = tensor.Maximum(a.Value, b.Value)
	} else {
		v = tensor.Minimum(a.Value, b.Value)
	}
	out := t.NewNode(v)
	av, bv := a.Value, b.Value
	t.Record(out, func(g *tensor.Tensor) {
		mask := tensor.Zip(av, bv, func(x, y float64) float64 {
			if (isMax && x >= y) || (!isMax && x <= y) {
				return 1
			}
			return 0
		})
		inv := tensor.Zip(mask, mask, func(m, _ float64) float64 { return 1 - m })
		t.accum(a, tensor.UnbroadcastTo(tensor.Mul(g, mask), av.Shape()))
		t.accum(b, tensor.UnbroadcastTo(tensor.Mul(g, inv), bv.Shape()))
	})
	return out
}

// MatMul returns a x b for rank-2 nodes.
func (t *Tape) MatMul(a, b *Node) *Node {
	out := t.NewNode(tensor.MatMul(a.Value, b.Value))
	av, bv := a.Value, b.Value
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.MatMul(g, tensor.Transpose(bv)))
		t.accum(b, tensor.MatMul(tensor.Transpose(av), g))
	})
	return out
}

// ReLU returns max(a, 0).
func (t *Tape) ReLU(a *Node) *Node {
	out := t.NewNode(tensor.ReLU(a.Value))
	av := a.Value
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, tensor.ReLUGrad(av, g)) })
	return out
}

// Sigmoid returns the logistic function of a.
func (t *Tape) Sigmoid(a *Node) *Node {
	s := tensor.Sigmoid(a.Value)
	out := t.NewNode(s)
	t.Record(out, func(g *tensor.Tensor) {
		one := tensor.Full(1, s.Shape()...)
		t.accum(a, tensor.Mul(g, tensor.Mul(s, tensor.Sub(one, s))))
	})
	return out
}

// Tanh returns tanh(a).
func (t *Tape) Tanh(a *Node) *Node {
	v := tensor.Tanh(a.Value)
	out := t.NewNode(v)
	t.Record(out, func(g *tensor.Tensor) {
		one := tensor.Full(1, v.Shape()...)
		t.accum(a, tensor.Mul(g, tensor.Sub(one, tensor.Mul(v, v))))
	})
	return out
}

// Exp returns e**a.
func (t *Tape) Exp(a *Node) *Node {
	v := tensor.Exp(a.Value)
	out := t.NewNode(v)
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, tensor.Mul(g, v)) })
	return out
}

// Log returns ln(a).
func (t *Tape) Log(a *Node) *Node {
	out := t.NewNode(tensor.Log(a.Value))
	av := a.Value
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, tensor.Div(g, av)) })
	return out
}

// Sum reduces to a scalar.
func (t *Tape) Sum(a *Node) *Node {
	out := t.NewNode(tensor.Sum(a.Value))
	sh := a.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.MulScalar(tensor.Full(1, sh...), g.Item()))
	})
	return out
}

// Mean reduces to the scalar mean.
func (t *Tape) Mean(a *Node) *Node {
	out := t.NewNode(tensor.Mean(a.Value))
	sh := a.Value.Shape()
	n := float64(a.Value.Size())
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.MulScalar(tensor.Full(1, sh...), g.Item()/n))
	})
	return out
}

// Reshape changes the node's shape.
func (t *Tape) Reshape(a *Node, shape ...int) *Node {
	out := t.NewNode(a.Value.Reshape(shape...))
	orig := a.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, g.Reshape(orig...)) })
	return out
}

// Transpose swaps the axes of a rank-2 node.
func (t *Tape) Transpose(a *Node) *Node {
	out := t.NewNode(tensor.Transpose(a.Value))
	t.Record(out, func(g *tensor.Tensor) { t.accum(a, tensor.Transpose(g)) })
	return out
}

// Concat joins nodes along axis.
func (t *Tape) Concat(axis int, ns ...*Node) *Node {
	ts := make([]*tensor.Tensor, len(ns))
	for i, n := range ns {
		ts[i] = n.Value
	}
	out := t.NewNode(tensor.Concat(axis, ts...))
	t.Record(out, func(g *tensor.Tensor) {
		off := 0
		ax := axis
		if ax < 0 {
			ax += g.Rank()
		}
		for _, n := range ns {
			w := n.Value.Shape()[ax]
			t.accum(n, tensor.SliceAxis(g, ax, off, off+w))
			off += w
		}
	})
	return out
}

// SliceAxis extracts [lo,hi) along axis.
func (t *Tape) SliceAxis(a *Node, axis, lo, hi int) *Node {
	out := t.NewNode(tensor.SliceAxis(a.Value, axis, lo, hi))
	sh := a.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(a, tensor.PadSliceGrad(g, sh, axis, lo))
	})
	return out
}

// Softmax applies softmax along the last axis.
func (t *Tape) Softmax(a *Node) *Node {
	s := tensor.Softmax(a.Value)
	out := t.NewNode(s)
	t.Record(out, func(g *tensor.Tensor) {
		// dL/dx = s * (g - sum(g*s, lastAxis, keepdims))
		gs := tensor.Mul(g, s)
		sum := tensor.SumAxis(gs, -1)
		// Re-expand sum over the last axis.
		expanded := tensor.Zip(gs, reexpand(sum, s.Shape()), func(_, y float64) float64 { return y })
		t.accum(a, tensor.Mul(s, tensor.Sub(g, expanded)))
	})
	return out
}

// reexpand broadcasts a reduced-by-last-axis tensor back to shape.
func reexpand(sum *tensor.Tensor, shape []int) *tensor.Tensor {
	n := shape[len(shape)-1]
	out := tensor.Zeros(shape...)
	od, sd := out.Data(), sum.Data()
	for i := range sd {
		for j := 0; j < n; j++ {
			od[i*n+j] = sd[i]
		}
	}
	return out
}

// CrossEntropy computes mean softmax cross-entropy between logits and labels
// (labels are constant).
func (t *Tape) CrossEntropy(logits *Node, labels *tensor.Tensor) *Node {
	out := t.NewNode(tensor.CrossEntropy(logits.Value, labels))
	lv := logits.Value
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(logits, tensor.MulScalar(tensor.CrossEntropyGrad(lv, labels), g.Item()))
	})
	return out
}

// MSE computes mean squared error against a constant target.
func (t *Tape) MSE(pred *Node, target *tensor.Tensor) *Node {
	out := t.NewNode(tensor.MSE(pred.Value, target))
	pv := pred.Value
	n := float64(pv.Size())
	t.Record(out, func(g *tensor.Tensor) {
		d := tensor.MulScalar(tensor.Sub(pv, target), 2/n*g.Item())
		t.accum(pred, d)
	})
	return out
}

// Conv2D performs a 2-D convolution with stride and padding.
func (t *Tape) Conv2D(x, w *Node, stride, pad int) *Node {
	out := t.NewNode(tensor.Conv2D(x.Value, w.Value, stride, pad))
	xv, wv := x.Value, w.Value
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(x, tensor.Conv2DGradInput(xv, wv, g, stride, pad))
		t.accum(w, tensor.Conv2DGradFilter(xv, wv, g, stride, pad))
	})
	return out
}

// MaxPool2D applies max pooling.
func (t *Tape) MaxPool2D(x *Node, k, stride int) *Node {
	v, arg := tensor.MaxPool2D(x.Value, k, stride)
	out := t.NewNode(v)
	sh := x.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(x, tensor.MaxPool2DGrad(sh, arg, g))
	})
	return out
}

// AvgPool2D applies average pooling.
func (t *Tape) AvgPool2D(x *Node, k, stride int) *Node {
	out := t.NewNode(tensor.AvgPool2D(x.Value, k, stride))
	sh := x.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(x, tensor.AvgPool2DGrad(sh, k, stride, g))
	})
	return out
}

// Gather selects rows from an embedding table node.
func (t *Tape) Gather(table *Node, idx []int) *Node {
	out := t.NewNode(tensor.Gather(table.Value, idx))
	sh := table.Value.Shape()
	t.Record(out, func(g *tensor.Tensor) {
		t.accum(table, tensor.ScatterAddRows(sh, idx, g))
	})
	return out
}

// CheckGrad verifies dLoss/dParam numerically for a single parameter entry.
// Exposed for tests of higher layers.
func CheckGrad(analytic, numeric float64, tol float64) error {
	d := analytic - numeric
	if d < 0 {
		d = -d
	}
	if d > tol {
		return fmt.Errorf("autodiff: gradient mismatch: analytic %v numeric %v", analytic, numeric)
	}
	return nil
}
