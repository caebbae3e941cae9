// Package autodiff implements define-by-run reverse-mode automatic
// differentiation (a "gradient tape") over the op table of internal/graph.
//
// The imperative interpreter (internal/minipy) and the executor's tape mode
// for dynamic graphs (internal/exec) run every differentiable op through
// Tape.Apply: the op's kernel computes the value at once and the tape records
// the op. Backprop runs each recorded op's OpDef.Grad rule with the tape as
// the Emitter, so every op the rule emits is evaluated eagerly through
// OpDef.Eval. graph.Gradients runs the very same rules symbolically for
// static graphs: each derivative is written once, for both engines.
package autodiff

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
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

// Tensor returns the node's value, making a node a graph.TensorHolder: the
// kernels of ops over runtime lists (StackList) read nodes in place.
func (n *Node) Tensor() *tensor.Tensor { return n.Value }

// record is one recorded op: its definition, the node holding its attrs,
// its output, and where the tape's args hold its inputs as they were passed
// (tape nodes, plain values, lists of either).
type record struct {
	def    *graph.OpDef
	n      *graph.Node
	out    *Node
	lo, hi int
}

// grad is a node's accumulated gradient. owned marks a sum the tape
// allocated itself, which later contributions may be added into in place;
// any other gradient may be shared with a rule's output (Add hands the same
// gradient to both inputs, Identity passes it through) and is never written.
type grad struct {
	t     *tensor.Tensor
	owned bool
}

// Tape records operations during forward execution and replays them in
// reverse to compute gradients. A tape belongs to one goroutine: the
// interpreter or the graph executor records onto it, then the same caller
// replays it after the forward pass completes.
type Tape struct {
	ops []record
	// args holds the inputs of every record, back to back.
	args []graph.Val
	// watched maps variable names to their tape nodes so Gradient can report
	// per-variable gradients.
	watched map[string]watch
	grads   map[int64]grad
	// raw is scratch for the plain input values of one Apply or one rule.
	raw []graph.Val
}

// watch is a watched variable's node and its birth index: len(ops) when it
// was watched. Ops recorded before that moment cannot reference the node, so
// during reverse replay its gradient is final as soon as the replay index
// drops to the birth index — the basis for GradientStream's per-tensor
// emission.
type watch struct {
	n    *Node
	born int
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{watched: make(map[string]watch)} }

// newNode allocates a tracked node holding v.
func newNode(v *tensor.Tensor) *Node {
	return &Node{Value: v, id: nodeIDs.Add(1)}
}

// Watch registers a named variable (model parameter) with the tape and
// returns its tracked node. Watching the same name twice returns the original
// node. A nil tape tracks nothing: the variable comes back as a constant.
func (t *Tape) Watch(name string, v *tensor.Tensor) *Node {
	if t == nil {
		return Const(v)
	}
	if w, ok := t.watched[name]; ok {
		return w.n
	}
	n := newNode(v)
	t.watched[name] = watch{n: n, born: len(t.ops)}
	return n
}

// Apply evaluates the pure op def, with the attrs of n, on in: tape nodes,
// plain values, or lists holding tape nodes. When def has a gradient rule and
// an input is tracked, the op is recorded and the result is a tracked node;
// otherwise the plain result comes back (a list element as it was, node or
// not). A nil tape only evaluates, so callers need no tapeless path. n must
// stay unmodified while the tape lives.
func (t *Tape) Apply(def *graph.OpDef, n *graph.Node, in []graph.Val) (graph.Val, error) {
	var raw []graph.Val
	if t != nil {
		raw = t.raw[:0]
	}
	for _, v := range in {
		raw = append(raw, value(v))
	}
	out, err := def.Eval(n, raw)
	if t != nil {
		clear(raw)
		t.raw = raw
	}
	if err != nil {
		return nil, err
	}
	return t.Record(def, n, in, out), nil
}

// Record wraps out, the value op def computed from in, the way Apply does:
// as a tracked node, with the op recorded, when def has a gradient rule and
// an input is tracked. An output that is an element of a list input was
// forwarded, not computed (IndexAny on a list), and comes back as it is. Ops
// implemented outside the op table's kernels (BatchNorm) record through
// here.
func (t *Tape) Record(def *graph.OpDef, n *graph.Node, in []graph.Val, out graph.Val) graph.Val {
	v, ok := out.(*tensor.Tensor)
	if t == nil || def.Grad == nil || !ok {
		return out
	}
	tracked := false
	for _, h := range in {
		switch x := h.(type) {
		case *Node:
			tracked = tracked || x.Tracked()
		case []graph.Val:
			for _, e := range x {
				if e == out {
					return out
				}
				if en, ok := e.(*Node); ok && en.Tracked() {
					tracked = true
				}
			}
		}
	}
	if !tracked {
		return out
	}
	node := newNode(v)
	lo := len(t.args)
	t.args = append(t.args, in...)
	t.ops = append(t.ops, record{def: def, n: n, out: node, lo: lo, hi: len(t.args)})
	return node
}

// value is the plain value behind an input handle: a node's tensor, or the
// handle itself. Lists keep their nodes: kernels read them as
// graph.TensorHolders, and a list op can hand a node back unchanged.
func value(h graph.Val) graph.Val {
	if n, ok := h.(*Node); ok {
		return n.Value
	}
	return h
}

// eager is the tape's Emitter: every op a gradient rule emits is evaluated
// at once on the heap. Its handles are plain values.
type eager struct{ n graph.Node }

func (e *eager) Emit(op string, attrs map[string]graph.Val, in ...graph.Val) graph.Val {
	// An Unbroadcast to the shape the gradient already has is the identity.
	// The graph copies (Into kernels never alias); the tape can share,
	// because it never writes a gradient a rule produced.
	if op == "Unbroadcast" {
		g, gok := in[0].(*tensor.Tensor)
		ref, rok := in[1].(*tensor.Tensor)
		if gok && rok && tensor.SameShape(g, ref) {
			return g
		}
	}
	def := graph.Lookup(op)
	if def == nil {
		panic(fmt.Sprintf("autodiff: gradient rule emitted unknown op %s", op))
	}
	// Kernels read attrs during the call only, so one scratch node serves
	// every emission.
	e.n.Op, e.n.Attrs = op, attrs
	out, err := def.Eval(&e.n, in)
	if err != nil {
		panic(fmt.Sprintf("autodiff: %v", err))
	}
	return out
}

// accum adds gradient g into input handle h: a node's accumulator, or, for a
// list, each element's share of the list gradient g. The first contribution
// is kept as given; the second is summed into a fresh tensor the tape owns,
// which every later contribution is added into in place — the same order of
// additions, so the same bits, as allocating a new sum each time.
func (t *Tape) accum(h, g graph.Val) {
	switch x := h.(type) {
	case *Node:
		if !x.Tracked() {
			return
		}
		gt := g.(*tensor.Tensor)
		cur, ok := t.grads[x.id]
		switch {
		case !ok:
			t.grads[x.id] = grad{t: gt}
		case cur.owned && tensor.SameShape(cur.t, gt):
			tensor.AddInto(cur.t, cur.t, gt)
		default:
			t.grads[x.id] = grad{t: tensor.Add(cur.t, gt), owned: true}
		}
	case []graph.Val:
		gs := g.([]graph.Val)
		for i, e := range x {
			t.accum(e, gs[i])
		}
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
		watch
	}
	order := make([]watchedVar, 0, len(t.watched))
	for name, w := range t.watched {
		order = append(order, watchedVar{name, w})
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
			g := t.grads[v.n.id].t
			if g == nil {
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
		t.grads = make(map[int64]grad)
		finalize(0)
		return out
	}
	t.grads = make(map[int64]grad)
	t.grads[loss.id] = grad{t: tensor.Full(1, loss.Value.Shape()...)}
	// Replay in reverse recording order. Recording order is a valid
	// topological order of the forward DAG because each op is recorded when
	// its output is produced. add routes the contributions of the rule of
	// record cur.
	em := &eager{}
	var cur *record
	add := func(i int, g graph.Val) { t.accum(t.args[cur.lo+i], g) }
	for i := len(t.ops) - 1; i >= 0; i-- {
		cur = &t.ops[i]
		if g, ok := t.grads[cur.out.id]; ok {
			t.backward(cur, g.t, em, add)
		}
		finalize(i)
	}
	finalize(0)
	return out
}

// backward runs r's gradient rule on the plain values of its inputs and
// output, accumulating each input's contribution. A rule that cannot run
// panics: the forward pass already ran the same op on the same values.
func (t *Tape) backward(r *record, g *tensor.Tensor, em *eager, add func(int, graph.Val)) {
	raw := t.raw[:0]
	for _, v := range t.args[r.lo:r.hi] {
		raw = append(raw, value(v))
	}
	err := r.def.Grad(em, r.n, raw, r.out.Value, g, add)
	clear(raw)
	t.raw = raw
	if err != nil {
		panic(fmt.Sprintf("autodiff: %s gradient: %v", r.def.Name, err))
	}
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
