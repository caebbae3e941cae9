// Package autodiff implements define-by-run reverse-mode automatic
// differentiation (a "gradient tape") over the op table of internal/graph.
//
// The imperative interpreter (internal/minipy) and the executor's tape mode
// for dynamic graphs (internal/exec) run every pure op through Tape.Apply:
// the op's kernel computes the value at once and the tape records the op.
// The executor rents those forward values from the tape's pool until the
// step's Reset; the interpreter keeps them on the heap. Backprop runs each
// recorded op's OpDef.Grad rule with the tape as the Emitter, so every op the
// rule emits is evaluated at once: its Into kernel writes into a buffer
// rented from the tape's pool, which takes the buffer back at its last use
// (DESIGN.md §3.1). graph.Gradients runs the very same rules symbolically for
// static graphs: each derivative is written once, for both engines.
package autodiff

import (
	"cmp"
	"fmt"
	"slices"
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

// Tape records operations during forward execution and replays them in
// reverse to compute gradients. A tape belongs to one goroutine: the
// interpreter or the graph executor records onto it, then the same caller
// replays it after the forward pass completes. Reset readies it for the next
// step without giving up the capacity it has grown.
//
// Every tensor an Into kernel computes during backprop is rented from the
// tape's pool and goes back at its last use. holds counts, per rented tensor,
// the gradient entries that refer to it, plus one while it belongs to the
// rule being run (the rule's outputs and its incoming gradient); the tensor
// returns to the pool when the count reaches zero. A gradient handed out
// (the returned map, emit) leaves holds and the pool: it is never returned
// and never written again. Results of ops without an Into kernel stay on the
// heap and are never pooled.
//
// Forward values rented by Apply live until Reset, which returns every one
// of them but those Keep pinned: the values that escape the step.
type Tape struct {
	ops []record
	// args holds the inputs of every record, back to back.
	args []graph.Val
	// watched maps variable names to their tape nodes so Gradient can report
	// per-variable gradients.
	watched map[string]watch
	// grads is each node's accumulated gradient during backprop.
	grads map[int64]*tensor.Tensor
	// raw is scratch for the plain input values of one Apply or one rule.
	raw []graph.Val

	pool  *tensor.Pool
	holds map[*tensor.Tensor]int32
	// rule lists the tensors the running rule holds.
	rule []*tensor.Tensor
	em   eager
	// cur is the record whose rule is running; add routes its contributions.
	cur   *record
	add   func(i int, g graph.Val)
	order []watchedVar
	// fwd lists the forward values rented since the last Reset; kept holds
	// those that escape the step and leave the pool instead.
	fwd  []*tensor.Tensor
	kept map[*tensor.Tensor]bool
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

type watchedVar struct {
	name string
	watch
}

// NewTape returns an empty tape whose backprop rents from a private pool.
func NewTape() *Tape { return NewPooledTape(nil) }

// NewPooledTape returns an empty tape whose backprop rents from pool, or
// from a private pool when pool is nil. The pool may be shared with other
// users, as an engine shares its own with graph replay.
func NewPooledTape(pool *tensor.Pool) *Tape {
	if pool == nil {
		pool = tensor.NewPool()
	}
	t := &Tape{
		watched: make(map[string]watch),
		grads:   make(map[int64]*tensor.Tensor),
		pool:    pool,
		holds:   make(map[*tensor.Tensor]int32),
		kept:    make(map[*tensor.Tensor]bool),
	}
	t.em.t = t
	t.add = func(i int, g graph.Val) { t.accum(t.args[t.cur.lo+i], g) }
	return t
}

// Reset empties the tape for the next step: it returns the step's forward
// rentals to the pool, except those Keep pinned, which leave it; it drops
// every reference to the last step's nodes, values and gradients; and it
// keeps the capacity of its record, argument and gradient tables. Nothing
// may read an unpinned forward value after Reset.
func (t *Tape) Reset() {
	for i, v := range t.fwd {
		if len(t.kept) > 0 && t.kept[v] {
			t.pool.Disown(v)
		} else {
			t.pool.Put(v)
		}
		t.fwd[i] = nil
	}
	t.fwd = t.fwd[:0]
	clear(t.kept)
	clear(t.ops)
	t.ops = t.ops[:0]
	clear(t.args)
	t.args = t.args[:0]
	clear(t.watched)
	clear(t.grads)
	clear(t.holds)
	clear(t.rule)
	t.rule = t.rule[:0]
	clear(t.order)
	t.order = t.order[:0]
	t.cur = nil
}

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
// not). The caller picks where an Into kernel's result lives: rent rents it
// from the tape's pool until Reset (the executor, whose values die with the
// step unless pinned with Keep); otherwise it is on the heap (the
// interpreter, whose values live in its own heap). A nil tape only
// evaluates, on the heap, so callers need no tapeless path. n must stay
// unmodified while the tape lives.
func (t *Tape) Apply(def *graph.OpDef, n *graph.Node, in []graph.Val, rent bool) (graph.Val, error) {
	var raw []graph.Val
	if t != nil {
		raw = t.raw[:0]
	}
	for _, v := range in {
		raw = append(raw, value(v))
	}
	var out graph.Val
	var err error
	if rent && t != nil && def.Into != nil {
		if out, err = def.Into(n, raw, t.pool); err == nil {
			t.fwd = append(t.fwd, out.(*tensor.Tensor))
		}
	} else {
		out, err = def.Eval(n, raw)
	}
	if t != nil {
		clear(raw)
		t.raw = raw
	}
	if err != nil {
		return nil, err
	}
	return t.Record(def, n, in, out), nil
}

// Keep pins the forward rentals v holds — a node's value, a tensor, or any
// of those inside lists — so that Reset hands them over to their new holder
// instead of returning them to the pool. The executor keeps whatever
// outlives the step: its outputs, the values it commits to the
// interpreter's heap, the actual value of a failed assertion.
func (t *Tape) Keep(v graph.Val) {
	switch x := v.(type) {
	case *Node:
		t.kept[x.Value] = true
	case *tensor.Tensor:
		t.kept[x] = true
	case []graph.Val:
		for _, e := range x {
			t.Keep(e)
		}
	}
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
// at once, an Into kernel into a buffer rented from the tape's pool. Its
// handles are plain values.
type eager struct {
	t *Tape
	n graph.Node
	// in is scratch for the inputs of one emission.
	in []graph.Val
}

func (e *eager) Emit(op string, attrs map[string]graph.Val, args graph.Args) graph.Val {
	// An Unbroadcast to the shape the gradient already has is the identity.
	// The graph copies (Into kernels never alias); the tape can share,
	// because it never writes a gradient another holder refers to.
	if op == "Unbroadcast" {
		g, gok := args.At(0).(*tensor.Tensor)
		ref, rok := args.At(1).(*tensor.Tensor)
		if gok && rok && tensor.SameShape(g, ref) {
			return g
		}
	}
	def := graph.Lookup(op)
	if def == nil {
		panic(fmt.Sprintf("autodiff: gradient rule emitted unknown op %s", op))
	}
	// Kernels read attrs and inputs during the call only, so one scratch
	// node and one input slice serve every emission.
	e.n.Op, e.n.Attrs = op, attrs
	in := args.AppendTo(e.in[:0])
	var out graph.Val
	var err error
	if def.Into != nil {
		out, err = def.Into(&e.n, in, e.t.pool)
	} else {
		out, err = def.Eval(&e.n, in)
	}
	clear(in)
	e.in = in
	if err != nil {
		panic(fmt.Sprintf("autodiff: %v", err))
	}
	if def.Into == nil {
		// A Kernel result stays on the heap.
		return out
	}
	r := out.(*tensor.Tensor)
	e.t.holds[r] = 1
	e.t.rule = append(e.t.rule, r)
	return r
}

// retain counts one more holder of g if the tape rented it.
func (t *Tape) retain(g *tensor.Tensor) {
	if n, ok := t.holds[g]; ok {
		t.holds[g] = n + 1
	}
}

// release drops one holder of g, returning a rented g to the pool with its
// last holder.
func (t *Tape) release(g *tensor.Tensor) {
	switch n, ok := t.holds[g]; {
	case !ok:
	case n > 1:
		t.holds[g] = n - 1
	default:
		delete(t.holds, g)
		t.pool.Put(g)
	}
}

// handOut takes g out of the tape's accounting and, if rented, out of the
// pool's for good: a gradient given to the caller is never returned to the
// pool and never written again.
func (t *Tape) handOut(g *tensor.Tensor) {
	if _, ok := t.holds[g]; ok {
		delete(t.holds, g)
		t.pool.Disown(g)
	}
}

// accum adds gradient g into input handle h: a node's accumulator, or, for a
// list, each element's share of the list gradient g. The first contribution
// is kept as given. A later one is added in place when the accumulator is a
// rented tensor no one else holds; otherwise the sum goes into a fresh
// rental, which replaces it. Either way the additions run in the same order,
// so give the same bits.
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
			t.grads[x.id] = gt
			t.retain(gt)
		case t.holds[cur] == 1 && tensor.SameShape(cur, gt):
			tensor.AddInto(cur, cur, gt)
		default:
			shape := cur.Shape()
			if !tensor.SameShape(cur, gt) {
				var err error
				if shape, err = tensor.BroadcastShapes(cur.Shape(), gt.Shape()); err != nil {
					panic(fmt.Sprintf("autodiff: accumulating gradients: %v", err))
				}
			}
			sum := tensor.AddInto(t.pool.Get(shape...), cur, gt)
			t.holds[sum] = 1
			t.grads[x.id] = sum
			t.release(cur)
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
// goroutine to actually overlap communication with compute. Every gradient
// handed out stays valid and unchanged for good. Every other tensor backprop
// rented is back in the pool when GradientStream returns.
func (t *Tape) GradientStream(loss *Node, emit func(name string, g *tensor.Tensor)) map[string]*tensor.Tensor {
	// Watched variables ordered by descending birth index: the next one to
	// finalize is always at the front of the remainder.
	order := t.order[:0]
	for name, w := range t.watched {
		order = append(order, watchedVar{name, w})
	}
	slices.SortFunc(order, func(a, b watchedVar) int {
		return cmp.Or(cmp.Compare(b.born, a.born), cmp.Compare(a.name, b.name))
	})
	t.order = order

	out := make(map[string]*tensor.Tensor, len(t.watched))
	next := 0
	// finalize emits every not-yet-emitted variable whose birth index is >=
	// remaining: ops below that index existed before the variable and cannot
	// reference it.
	finalize := func(remaining int) {
		for next < len(order) && order[next].born >= remaining {
			v := order[next]
			g := t.grads[v.n.id]
			if g == nil {
				g = t.pool.GetZeroed(v.n.Value.Shape()...)
				t.holds[g] = 1
			}
			t.handOut(g)
			out[v.name] = g
			if emit != nil {
				emit(v.name, g)
			}
			next++
		}
	}

	clear(t.grads)
	if loss.Tracked() {
		seed := tensor.FillInto(t.pool.Get(loss.Value.Shape()...), 1)
		t.holds[seed] = 1
		t.grads[loss.id] = seed
		// Replay in reverse recording order. Recording order is a valid
		// topological order of the forward DAG because each op is recorded
		// when its output is produced, so a record's gradient is complete
		// when its turn comes, and no one reads it after its rule has run:
		// the rule takes over its hold.
		for i := len(t.ops) - 1; i >= 0; i-- {
			r := &t.ops[i]
			if g, ok := t.grads[r.out.id]; ok {
				delete(t.grads, r.out.id)
				t.rule = append(t.rule, g)
				t.backward(r, g)
				for _, x := range t.rule {
					t.release(x)
				}
				clear(t.rule)
				t.rule = t.rule[:0]
			}
			finalize(i)
		}
	}
	finalize(0)
	// What is left are the handed-out gradients and those of nodes no
	// record of this tape produced (state carried over from an earlier
	// step), which nothing reads.
	for _, g := range t.grads {
		t.release(g)
	}
	clear(t.grads)
	return out
}

// backward runs r's gradient rule on the plain values of its inputs and
// output, accumulating each input's contribution. A rule that cannot run
// panics: the forward pass already ran the same op on the same values.
func (t *Tape) backward(r *record, g *tensor.Tensor) {
	raw := t.raw[:0]
	for _, v := range t.args[r.lo:r.hi] {
		raw = append(raw, value(v))
	}
	t.cur = r
	err := r.def.Grad(&t.em, r.n, raw, r.out.Value, g, t.add)
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
