package autodiff

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// op runs a graph op on the tape and returns its result as a node.
func op(tp *Tape, name string, attrs map[string]graph.Val, in ...graph.Val) *Node {
	v, err := tp.Apply(graph.Lookup(name), &graph.Node{Op: name, Attrs: attrs}, in, false)
	if err != nil {
		panic(err)
	}
	if n, ok := v.(*Node); ok {
		return n
	}
	return Const(v.(*tensor.Tensor))
}

// numGrad computes dLoss/dParam[i] by central differences, rebuilding the
// whole forward pass each evaluation.
func numGrad(param *tensor.Tensor, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := param.Data()[i]
	param.Data()[i] = orig + h
	up := loss()
	param.Data()[i] = orig - h
	dn := loss()
	param.Data()[i] = orig
	return (up - dn) / (2 * h)
}

func checkAll(t *testing.T, name string, param *tensor.Tensor, analytic *tensor.Tensor, loss func() float64, tol float64) {
	t.Helper()
	for i := range param.Data() {
		n := numGrad(param, i, loss)
		if err := CheckGrad(analytic.Data()[i], n, tol); err != nil {
			t.Fatalf("%s[%d]: %v", name, i, err)
		}
	}
}

func TestTapeAddMulChain(t *testing.T) {
	rng := tensor.NewRNG(1)
	w := rng.Randn(3)
	loss := func() float64 {
		tp := NewTape()
		wn := tp.Watch("w", w)
		y := op(tp, "Mul", nil, op(tp, "Add", nil, wn, Const(tensor.Full(2, 3))), wn) // (w+2)*w
		return op(tp, "Sum", nil, y).Value.Item()
	}
	tp := NewTape()
	wn := tp.Watch("w", w)
	l := op(tp, "Sum", nil, op(tp, "Mul", nil, op(tp, "Add", nil, wn, Const(tensor.Full(2, 3))), wn))
	g := tp.Gradient(l)["w"]
	// d/dw [(w+2)w] = 2w + 2
	want := tensor.AddScalar(tensor.MulScalar(w, 2), 2)
	if !tensor.AllClose(g, want, 1e-9) {
		t.Fatalf("got %v want %v", g, want)
	}
	checkAll(t, "w", w, g, loss, 1e-5)
}

func TestTapeMatMulGrad(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := rng.Randn(2, 3)
	b := rng.Randn(3, 4)
	build := func(tp *Tape) *Node {
		an := tp.Watch("a", a)
		bn := tp.Watch("b", b)
		return op(tp, "Sum", nil, op(tp, "MatMul", nil, an, bn))
	}
	tp := NewTape()
	grads := tp.Gradient(build(tp))
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "a", a, grads["a"], loss, 1e-5)
	checkAll(t, "b", b, grads["b"], loss, 1e-5)
}

func TestTapeBroadcastGrad(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := rng.Randn(4, 3)
	bias := rng.Randn(3)
	build := func(tp *Tape) *Node {
		bn := tp.Watch("b", bias)
		return op(tp, "Sum", nil, op(tp, "Mul", nil, op(tp, "Add", nil, Const(x), bn), op(tp, "Add", nil, Const(x), bn)))
	}
	tp := NewTape()
	g := tp.Gradient(build(tp))["b"]
	if !tensor.ShapeEq(g.Shape(), []int{3}) {
		t.Fatalf("broadcast grad shape %v", g.Shape())
	}
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "bias", bias, g, loss, 1e-5)
}

func TestTapeActivationsGrad(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := rng.Randn(5)
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, n *Node) *Node
	}{
		{"relu", func(tp *Tape, n *Node) *Node { return op(tp, "ReLU", nil, n) }},
		{"sigmoid", func(tp *Tape, n *Node) *Node { return op(tp, "Sigmoid", nil, n) }},
		{"tanh", func(tp *Tape, n *Node) *Node { return op(tp, "Tanh", nil, n) }},
		{"exp", func(tp *Tape, n *Node) *Node { return op(tp, "Exp", nil, n) }},
		{"neg", func(tp *Tape, n *Node) *Node { return op(tp, "Neg", nil, n) }},
		{"pow2", func(tp *Tape, n *Node) *Node { return op(tp, "Pow", nil, n, tensor.Scalar(2)) }},
	} {
		build := func(tp *Tape) *Node { return op(tp, "Sum", nil, tc.f(tp, tp.Watch("x", x))) }
		tp := NewTape()
		g := tp.Gradient(build(tp))["x"]
		loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
		checkAll(t, tc.name, x, g, loss, 1e-4)
	}
}

func TestTapeLogGrad(t *testing.T) {
	x := tensor.FromSlice([]float64{0.5, 1.5, 3})
	build := func(tp *Tape) *Node { return op(tp, "Sum", nil, op(tp, "Log", nil, tp.Watch("x", x))) }
	tp := NewTape()
	g := tp.Gradient(build(tp))["x"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "log", x, g, loss, 1e-5)
}

func TestTapeDivGrad(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2, 3})
	b := tensor.FromSlice([]float64{2, 4, 5})
	build := func(tp *Tape) *Node {
		return op(tp, "Sum", nil, op(tp, "Div", nil, tp.Watch("a", a), tp.Watch("b", b)))
	}
	tp := NewTape()
	gs := tp.Gradient(build(tp))
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "a", a, gs["a"], loss, 1e-5)
	checkAll(t, "b", b, gs["b"], loss, 1e-5)
}

func TestTapeSoftmaxCrossEntropyGrad(t *testing.T) {
	rng := tensor.NewRNG(5)
	logits := rng.Randn(3, 4)
	labels := tensor.OneHot([]int{0, 2, 3}, 4)
	build := func(tp *Tape) *Node {
		return op(tp, "CrossEntropy", nil, tp.Watch("l", logits), labels)
	}
	tp := NewTape()
	g := tp.Gradient(build(tp))["l"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "logits", logits, g, loss, 1e-5)
}

func TestTapeSoftmaxGrad(t *testing.T) {
	rng := tensor.NewRNG(15)
	x := rng.Randn(2, 3)
	w := rng.Randn(2, 3)
	build := func(tp *Tape) *Node {
		return op(tp, "Sum", nil, op(tp, "Mul", nil, op(tp, "Softmax", nil, tp.Watch("x", x)), Const(w)))
	}
	tp := NewTape()
	g := tp.Gradient(build(tp))["x"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "softmax-in", x, g, loss, 1e-5)
}

func TestTapeMSEGrad(t *testing.T) {
	rng := tensor.NewRNG(6)
	p := rng.Randn(4)
	target := rng.Randn(4)
	build := func(tp *Tape) *Node { return op(tp, "MSE", nil, tp.Watch("p", p), target) }
	tp := NewTape()
	g := tp.Gradient(build(tp))["p"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "mse", p, g, loss, 1e-5)
}

func TestTapeConvPoolGrad(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := rng.Randn(1, 1, 6, 6)
	w := rng.Randn(2, 1, 3, 3)
	build := func(tp *Tape) *Node {
		xn := tp.Watch("x", x)
		wn := tp.Watch("w", w)
		c := op(tp, "Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, xn, wn)
		p := op(tp, "MaxPool", map[string]graph.Val{"k": 2, "stride": 2}, c)
		return op(tp, "Sum", nil, p)
	}
	tp := NewTape()
	gs := tp.Gradient(build(tp))
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	// Max pooling makes the loss piecewise-linear; gradcheck at random points
	// is fine with loose tolerance.
	checkAll(t, "w", w, gs["w"], loss, 1e-4)
}

func TestTapeConcatSliceGrad(t *testing.T) {
	rng := tensor.NewRNG(8)
	a := rng.Randn(2, 2)
	b := rng.Randn(2, 3)
	build := func(tp *Tape) *Node {
		an := tp.Watch("a", a)
		bn := tp.Watch("b", b)
		c := op(tp, "Concat", map[string]graph.Val{"axis": 1}, an, bn)             // [2,5]
		s := op(tp, "Slice", map[string]graph.Val{"axis": 1, "lo": 1, "hi": 4}, c) // depends on parts of both
		return op(tp, "Sum", nil, op(tp, "Mul", nil, s, s))
	}
	tp := NewTape()
	gs := tp.Gradient(build(tp))
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "a", a, gs["a"], loss, 1e-5)
	checkAll(t, "b", b, gs["b"], loss, 1e-5)
}

func TestTapeGatherGrad(t *testing.T) {
	rng := tensor.NewRNG(9)
	table := rng.Randn(5, 3)
	idx := []int{4, 0, 4}
	build := func(tp *Tape) *Node {
		tn := tp.Watch("t", table)
		g := op(tp, "Gather", nil, tn, idx)
		return op(tp, "Sum", nil, op(tp, "Mul", nil, g, g))
	}
	tp := NewTape()
	g := tp.Gradient(build(tp))["t"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "table", table, g, loss, 1e-5)
	// Row 1..3 were never gathered: zero gradient.
	for r := 1; r <= 3; r++ {
		for c := 0; c < 3; c++ {
			if g.At(r, c) != 0 {
				t.Fatalf("ungathered row %d has gradient", r)
			}
		}
	}
}

func TestTapeReuseAccumulatesFanOut(t *testing.T) {
	x := tensor.FromSlice([]float64{3})
	tp := NewTape()
	xn := tp.Watch("x", x)
	y := op(tp, "Add", nil, op(tp, "Mul", nil, xn, xn), xn) // x^2 + x -> grad 2x+1 = 7
	g := tp.Gradient(op(tp, "Sum", nil, y))["x"]
	if math.Abs(g.At(0)-7) > 1e-9 {
		t.Fatalf("fan-out grad %v want 7", g.At(0))
	}
}

// TestTapeForwardsListElements: indexing a runtime list hands back the
// element itself, so a tracked node keeps its identity and its gradient,
// and a stacked list of nodes sends each element its share.
func TestTapeForwardsListElements(t *testing.T) {
	tp := NewTape()
	a := tp.Watch("a", tensor.FromSlice([]float64{1, 2}))
	b := tensor.FromSlice([]float64{3, 4})
	list := []graph.Val{a, b}
	for i, want := range []graph.Val{a, b} {
		got, err := tp.Apply(graph.Lookup("IndexAny"), &graph.Node{Op: "IndexAny"}, []graph.Val{list, i}, true)
		if err != nil || got != want {
			t.Fatalf("element %d: got %v (%v), want the element itself", i, got, err)
		}
	}
	stacked := op(tp, "StackList", nil, []graph.Val{a, b, a})
	g := tp.Gradient(op(tp, "Sum", nil, stacked))["a"]
	if !tensor.Equal(g, tensor.FromSlice([]float64{2, 2})) {
		t.Fatalf("gradient of a stacked twice: %v, want [2 2]", g)
	}
}

// TestTapeScalarOperands: plain Go numbers reach the tape as operands (a
// Python float in the interpreter, a scalar edge in tape mode); the rules
// differentiate through them like constant tensors.
func TestTapeScalarOperands(t *testing.T) {
	tp := NewTape()
	x := tp.Watch("x", tensor.FromSlice([]float64{1, 2}))
	y := op(tp, "Pow", nil, op(tp, "Mul", nil, x, 3.0), 2)
	g := tp.Gradient(op(tp, "Sum", nil, y))["x"] // d/dx (3x)^2 = 18x
	if !tensor.Equal(g, tensor.FromSlice([]float64{18, 36})) {
		t.Fatalf("gradient %v, want [18 36]", g)
	}
}

func TestGradientOfUntrackedLossIsZero(t *testing.T) {
	tp := NewTape()
	tp.Watch("w", tensor.FromSlice([]float64{1, 2}))
	g := tp.Gradient(Const(tensor.Scalar(5)))["w"]
	if !tensor.Equal(g, tensor.Zeros(2)) {
		t.Fatalf("got %v", g)
	}
}

func TestTapeTransposeReshapeGrad(t *testing.T) {
	rng := tensor.NewRNG(10)
	a := rng.Randn(2, 3)
	build := func(tp *Tape) *Node {
		an := tp.Watch("a", a)
		tr := op(tp, "Transpose", nil, an)
		r := op(tp, "Reshape", map[string]graph.Val{"shape": []int{6}}, tr)
		return op(tp, "Sum", nil, op(tp, "Mul", nil, r, r))
	}
	tp := NewTape()
	g := tp.Gradient(build(tp))["a"]
	loss := func() float64 { tp := NewTape(); return build(tp).Value.Item() }
	checkAll(t, "a", a, g, loss, 1e-5)
}

// --- optimizers ------------------------------------------------------------

func TestSGDStep(t *testing.T) {
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{1, 2}))
	(&SGD{LR: 0.5}).Apply(store, map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{2, 4})})
	want := tensor.FromSlice([]float64{0, 0})
	if !tensor.Equal(store.MustGet("w"), want) {
		t.Fatalf("got %v", store.MustGet("w"))
	}
}

func TestSGDClipping(t *testing.T) {
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{0}))
	g := map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{100})}
	(&SGD{LR: 1, Clip: 1}).Apply(store, g)
	if math.Abs(store.MustGet("w").At(0)+1) > 1e-9 {
		t.Fatalf("clip failed: %v", store.MustGet("w"))
	}
}

func TestMomentumAccumulates(t *testing.T) {
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{0}))
	m := &Momentum{LR: 1, Mu: 0.5}
	g := map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{1})}
	m.Apply(store, g) // v=1, w=-1
	m.Apply(store, g) // v=1.5, w=-2.5
	if math.Abs(store.MustGet("w").At(0)+2.5) > 1e-9 {
		t.Fatalf("got %v", store.MustGet("w"))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{5}))
	opt := NewAdam(0.3)
	for i := 0; i < 300; i++ {
		w := store.MustGet("w")
		g := map[string]*tensor.Tensor{"w": tensor.MulScalar(w, 2)} // d/dw w^2
		opt.Apply(store, g)
	}
	if math.Abs(store.MustGet("w").At(0)) > 1e-2 {
		t.Fatalf("adam failed to minimize: %v", store.MustGet("w"))
	}
}

func TestGlobalNorm(t *testing.T) {
	g := map[string]*tensor.Tensor{
		"a": tensor.FromSlice([]float64{3}),
		"b": tensor.FromSlice([]float64{4}),
	}
	if math.Abs(GlobalNorm(g)-5) > 1e-12 {
		t.Fatalf("got %v", GlobalNorm(g))
	}
}

// Train a tiny linear regression end to end through the tape: the canonical
// integration test that the eager engine can actually learn.
func TestTapeLinearRegressionLearns(t *testing.T) {
	rng := tensor.NewRNG(77)
	trueW := tensor.FromRows([][]float64{{2}, {-3}})
	store := vars.NewStore()
	store.Set("w", rng.Randn(2, 1))
	opt := &SGD{LR: 0.1}
	var last float64
	for i := 0; i < 200; i++ {
		x := rng.Randn(8, 2)
		y := tensor.MatMul(x, trueW)
		tp := NewTape()
		wn := tp.Watch("w", store.MustGet("w"))
		pred := op(tp, "MatMul", nil, Const(x), wn)
		loss := op(tp, "MSE", nil, pred, y)
		opt.Apply(store, tp.Gradient(loss))
		last = loss.Value.Item()
	}
	if last > 1e-3 {
		t.Fatalf("did not converge: loss %v", last)
	}
	if !tensor.AllClose(store.MustGet("w"), trueW, 1e-2) {
		t.Fatalf("weights %v", store.MustGet("w"))
	}
}

// TestGradientStreamEmitsPerTensorInBackpropOrder checks the streaming
// contract: every watched variable is emitted exactly once, with gradients
// identical to Gradient(), and variables used later in the forward pass
// (the top layers) finalize before earlier ones — the property that lets a
// distributed worker overlap gradient pushes with backprop.
func TestGradientStreamEmitsPerTensorInBackpropOrder(t *testing.T) {
	build := func(tape *Tape) *Node {
		w1 := tape.Watch("w1", tensor.New([]int{2, 2}, []float64{1, 2, 3, 4}))
		x := Const(tensor.New([]int{1, 2}, []float64{1, -1}))
		h := op(tape, "ReLU", nil, op(tape, "MatMul", nil, x, w1))
		w2 := tape.Watch("w2", tensor.New([]int{2, 1}, []float64{0.5, -0.5}))
		return op(tape, "Sum", nil, op(tape, "MatMul", nil, h, w2))
	}

	ref := NewTape()
	want := ref.Gradient(build(ref))

	tape := NewTape()
	loss := build(tape)
	var order []string
	got := tape.GradientStream(loss, func(name string, g *tensor.Tensor) {
		order = append(order, name)
		if w, ok := want[name]; !ok || !tensor.AllClose(g, w, 1e-12) {
			t.Fatalf("streamed gradient for %q = %v, want %v", name, g, want[name])
		}
	})
	if len(order) != 2 {
		t.Fatalf("emitted %v, want both variables exactly once", order)
	}
	// w2 is used after w1 in the forward pass, so backprop finalizes it first.
	if order[0] != "w2" || order[1] != "w1" {
		t.Fatalf("emission order %v, want [w2 w1] (reverse forward order)", order)
	}
	for name, g := range want {
		if !tensor.AllClose(got[name], g, 1e-12) {
			t.Fatalf("returned map disagrees with Gradient() for %q", name)
		}
	}
}

// TestGradientStreamUntrackedLossEmitsZeros covers the zero-gradient path.
func TestGradientStreamUntrackedLossEmitsZeros(t *testing.T) {
	tape := NewTape()
	tape.Watch("w", tensor.New([]int{3}, []float64{1, 2, 3}))
	emitted := 0
	out := tape.GradientStream(Const(tensor.Scalar(1)), func(name string, g *tensor.Tensor) {
		emitted++
		if tensor.SumInto(tensor.Scalar(0), g).Item() != 0 {
			t.Fatalf("untracked loss produced nonzero gradient for %q: %v", name, g)
		}
	})
	if emitted != 1 || len(out) != 1 {
		t.Fatalf("emitted %d grads, returned %d, want 1 and 1", emitted, len(out))
	}
}
