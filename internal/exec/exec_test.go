package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

func scalarOut(t *testing.T, res *Result, i int) float64 {
	t.Helper()
	tt, err := graph.AsTensor(unwrap(res.Outputs[i]))
	if err != nil {
		t.Fatalf("output %d: %v", i, err)
	}
	return tt.Item()
}

func TestRunLinearGraph(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	c := g.Const(tensor.Scalar(3))
	out := g.Add("Mul", nil, x.P(), c.P())
	g.Outputs = []graph.Port{out.P()}
	res, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(7)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarOut(t, res, 0); got != 21 {
		t.Fatalf("got %v", got)
	}
}

func TestVariableAndAssignSubDeferred(t *testing.T) {
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{10}))
	g := graph.New()
	w := g.Variable("w")
	gradc := g.Const(tensor.FromSlice([]float64{2}))
	upd := g.Add("AssignSub", map[string]graph.Val{"name": "w", "lr": 0.5}, gradc.P())
	g.Updates = []*graph.Node{upd}
	g.Outputs = []graph.Port{w.P()}
	res, err := Run(g, nil, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Output read the pre-update value; store now holds 10 - 0.5*2 = 9.
	outT, _ := graph.AsTensor(res.Outputs[0])
	if outT.At(0) != 10 {
		t.Fatalf("read-after-write hazard: output %v", outT)
	}
	if store.MustGet("w").At(0) != 9 {
		t.Fatalf("update not applied: %v", store.MustGet("w"))
	}
}

func TestAssertPassAndFail(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	a := g.Add("Assert", map[string]graph.Val{"kind": "eq-int", "expected": 5, "desc": "loop trips"}, x.P())
	g.Outputs = []graph.Port{a.P()}
	if _, err := Run(g, map[string]graph.Val{"x": 5}, Options{}); err != nil {
		t.Fatalf("assert should pass: %v", err)
	}
	_, err := Run(g, map[string]graph.Val{"x": 6}, Options{})
	var ae *AssertError
	if !errors.As(err, &ae) {
		t.Fatalf("want AssertError, got %v", err)
	}
	if ae.Kind != "eq-int" {
		t.Fatalf("kind %q", ae.Kind)
	}
	// DisableAsserts skips the check.
	if _, err := Run(g, map[string]graph.Val{"x": 6}, Options{DisableAsserts: true}); err != nil {
		t.Fatalf("disabled assert still failed: %v", err)
	}
}

func TestAssertShapeWildcards(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	a := g.Add("Assert", map[string]graph.Val{"kind": "shape", "shape": []int{-1, 8}, "desc": "batch"}, x.P())
	g.Outputs = []graph.Port{a.P()}
	if _, err := Run(g, map[string]graph.Val{"x": tensor.Zeros(4, 8)}, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, map[string]graph.Val{"x": tensor.Zeros(3, 8)}, Options{}); err != nil {
		t.Fatal("wildcard dim rejected different batch")
	}
	if _, err := Run(g, map[string]graph.Val{"x": tensor.Zeros(3, 9)}, Options{}); err == nil {
		t.Fatal("fixed dim mismatch not caught")
	}
}

func TestFailedAssertBlocksStateUpdates(t *testing.T) {
	// This is the all-or-nothing guarantee of §3.2: an AssignSub control-
	// dependent on a failing assert must not fire.
	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{1}))
	g := graph.New()
	x := g.Placeholder("x")
	a := g.Add("Assert", map[string]graph.Val{"kind": "true", "desc": "branch"}, x.P())
	gradc := g.Const(tensor.FromSlice([]float64{1}))
	upd := g.Add("AssignSub", map[string]graph.Val{"name": "w", "lr": 1.0}, gradc.P())
	upd.ControlDeps = append(upd.ControlDeps, a)
	g.Updates = []*graph.Node{upd}
	g.Outputs = []graph.Port{a.P()}
	_, err := Run(g, map[string]graph.Val{"x": false}, Options{Store: store})
	if err == nil {
		t.Fatal("assert should fail")
	}
	if store.MustGet("w").At(0) != 1 {
		t.Fatalf("state mutated despite failed assertion: %v", store.MustGet("w"))
	}
}

func TestSwitchMergeDeadTokens(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		pred := g.Placeholder("p")
		sw := g.Add("Switch", nil, x.P(), pred.P())
		// true side: x*2 ; false side: x+100
		two := g.Const(tensor.Scalar(2))
		hundred := g.Const(tensor.Scalar(100))
		tside := g.Add("Mul", nil, sw.Out(0), two.P())
		fside := g.Add("Add", nil, sw.Out(1), hundred.P())
		m := g.Add("Merge", nil, tside.P(), fside.P())
		g.Outputs = []graph.Port{m.P()}
		return g
	}
	g := build()
	res, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(5), "p": true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarOut(t, res, 0); got != 10 {
		t.Fatalf("true branch got %v", got)
	}
	res, err = Run(g, map[string]graph.Val{"x": tensor.Scalar(5), "p": false}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarOut(t, res, 0); got != 105 {
		t.Fatalf("false branch got %v", got)
	}
}

func TestDeadBranchSideEffectsSkipped(t *testing.T) {
	// A Print op on the untaken branch must not execute.
	g := graph.New()
	x := g.Placeholder("x")
	pred := g.Placeholder("p")
	sw := g.Add("Switch", nil, x.P(), pred.P())
	g.Add("Print", nil, sw.Out(1)) // only on false side
	m := g.Add("Merge", nil, sw.Out(0), sw.Out(1))
	g.Outputs = []graph.Port{m.P()}
	res, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(1), "p": true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Printed) != 0 {
		t.Fatalf("dead Print executed: %v", res.Printed)
	}
	res, err = Run(g, map[string]graph.Val{"x": tensor.Scalar(1), "p": false}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Printed) != 1 {
		t.Fatalf("live Print skipped")
	}
}

func TestWhileLoopComputesFactorial(t *testing.T) {
	// while i <= n: acc *= i; i += 1
	cond := graph.New()
	ci := cond.Placeholder("arg0")
	cn := cond.Placeholder("arg2")
	le := cond.Add("Cmp", map[string]graph.Val{"op": "<="}, ci.P(), cn.P())
	cond.Outputs = []graph.Port{le.P()}

	body := graph.New()
	bi := body.Placeholder("arg0")
	bacc := body.Placeholder("arg1")
	bn := body.Placeholder("arg2")
	newAcc := body.Add("Mul", nil, bacc.P(), bi.P())
	one := body.Const(tensor.Scalar(1))
	newI := body.Add("Add", nil, bi.P(), one.P())
	body.Outputs = []graph.Port{newI.P(), newAcc.P(), bn.P()}

	g := graph.New()
	i0 := g.Const(tensor.Scalar(1))
	acc0 := g.Const(tensor.Scalar(1))
	n0 := g.Placeholder("n")
	w := g.Add("While", map[string]graph.Val{"cond": cond, "body": body}, i0.P(), acc0.P(), n0.P())
	w.NumOutputs = 3
	g.Outputs = []graph.Port{w.Out(1)}
	res, err := Run(g, map[string]graph.Val{"n": tensor.Scalar(5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarOut(t, res, 0); got != 120 {
		t.Fatalf("5! = %v", got)
	}
}

func TestInvokeRecursionFibonacci(t *testing.T) {
	// fib(n) computed with a recursive Invoke + Switch/Merge base case.
	fg := graph.New()
	n := fg.Placeholder("arg0")
	two := fg.Const(tensor.Scalar(2))
	isBase := fg.Add("Cmp", map[string]graph.Val{"op": "<"}, n.P(), two.P())
	sw := fg.Add("Switch", nil, n.P(), isBase.P())
	// base: return n (port 0 = true side)
	baseVal := fg.Add("Identity", nil, sw.Out(0))
	// recursive side:
	onec := fg.Const(tensor.Scalar(1))
	nm1 := fg.Add("Sub", nil, sw.Out(1), onec.P())
	nm2 := fg.Add("Sub", nil, nm1.P(), onec.P())
	call1 := fg.Add("Invoke", map[string]graph.Val{"func": fg}, nm1.P())
	call2 := fg.Add("Invoke", map[string]graph.Val{"func": fg}, nm2.P())
	recSum := fg.Add("Add", nil, call1.P(), call2.P())
	m := fg.Add("Merge", nil, baseVal.P(), recSum.P())
	fg.Outputs = []graph.Port{m.P()}

	g := graph.New()
	x := g.Placeholder("x")
	call := g.Add("Invoke", map[string]graph.Val{"func": fg}, x.P())
	g.Outputs = []graph.Port{call.P()}

	res, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(10)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarOut(t, res, 0); got != 55 {
		t.Fatalf("fib(10)=%v", got)
	}
}

// fakeHeap implements Heap over plain maps for tests.
type fakeHeap struct {
	attrs map[string]any
}

func (h *fakeHeap) GetAttr(obj any, name string) (any, error) {
	v, ok := h.attrs[name]
	if !ok {
		return nil, errors.New("no attr " + name)
	}
	return v, nil
}
func (h *fakeHeap) SetAttr(obj any, name string, v any) error {
	h.attrs[name] = v
	return nil
}
func (h *fakeHeap) GetSubscr(obj, key any) (any, error) { return h.attrs["sub"], nil }
func (h *fakeHeap) SetSubscr(obj, key, v any) error     { h.attrs["sub"] = v; return nil }

func TestHeapOverlayDeferredWriteback(t *testing.T) {
	h := &fakeHeap{attrs: map[string]any{"state": tensor.Scalar(1)}}
	objRef := struct{}{}
	g := graph.New()
	obj := g.ConstVal(objRef)
	read1 := g.Add("PyGetAttr", map[string]graph.Val{"attr": "state"}, obj.P())
	two := g.Const(tensor.Scalar(2))
	newState := g.Add("Mul", nil, read1.P(), two.P())
	set := g.Add("PySetAttr", map[string]graph.Val{"attr": "state"}, obj.P(), newState.P())
	// A later read must see the overlay's local copy (step 3 in Figure 5).
	read2 := g.Add("PyGetAttr", map[string]graph.Val{"attr": "state"}, obj.P())
	read2.ControlDeps = append(read2.ControlDeps, set)
	g.Updates = []*graph.Node{set}
	g.Outputs = []graph.Port{read2.P()}

	res, err := Run(g, nil, Options{Heap: h})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := graph.AsTensor(res.Outputs[0])
	if got.Item() != 2 {
		t.Fatalf("overlay read got %v", got.Item())
	}
	// Write-back committed after success.
	final := h.attrs["state"].(*tensor.Tensor)
	if final.Item() != 2 {
		t.Fatalf("writeback missing: %v", final.Item())
	}
}

func TestHeapWritebackAbortedOnAssertFailure(t *testing.T) {
	h := &fakeHeap{attrs: map[string]any{"state": tensor.Scalar(1)}}
	objRef := struct{}{}
	g := graph.New()
	obj := g.ConstVal(objRef)
	read := g.Add("PyGetAttr", map[string]graph.Val{"attr": "state"}, obj.P())
	two := g.Const(tensor.Scalar(2))
	newState := g.Add("Mul", nil, read.P(), two.P())
	set := g.Add("PySetAttr", map[string]graph.Val{"attr": "state"}, obj.P(), newState.P())
	pred := g.Placeholder("p")
	a := g.Add("Assert", map[string]graph.Val{"kind": "true", "desc": "spec"}, pred.P())
	// The assert runs after the write was overlaid but before commit.
	_ = a
	g.Updates = []*graph.Node{set}
	g.Outputs = []graph.Port{a.P()}
	_, err := Run(g, map[string]graph.Val{"p": false}, Options{Heap: h})
	if err == nil {
		t.Fatal("assert should fail")
	}
	if h.attrs["state"].(*tensor.Tensor).Item() != 1 {
		t.Fatal("heap mutated despite assumption failure")
	}
}

func TestTapeModeGradientsThroughDynamicGraph(t *testing.T) {
	// loss = sum(relu(x @ w)) through a Switch/Merge (always-true branch),
	// differentiated by the executed-trace tape.
	store := vars.NewStore()
	rng := tensor.NewRNG(3)
	wv := rng.Randn(3, 2)
	store.Set("w", wv)
	xv := rng.Randn(2, 3)

	run := func() (map[string]*tensor.Tensor, float64) {
		g := graph.New()
		x := g.Placeholder("x")
		w := g.Variable("w")
		mm := g.Add("MatMul", nil, x.P(), w.P())
		pred := g.ConstVal(true)
		sw := g.Add("Switch", nil, mm.P(), pred.P())
		act := g.Add("ReLU", nil, sw.Out(0))
		alt := g.Add("Tanh", nil, sw.Out(1))
		m := g.Add("Merge", nil, act.P(), alt.P())
		loss := g.Add("Sum", nil, m.P())
		g.Outputs = []graph.Port{loss.P()}
		tape := autodiff.NewTape()
		res, err := Run(g, map[string]graph.Val{"x": xv}, Options{Store: store, Tape: tape})
		if err != nil {
			t.Fatal(err)
		}
		lossNode := res.Outputs[0].(*autodiff.Node)
		return tape.Gradient(lossNode), lossNode.Value.Item()
	}
	grads, _ := run()
	g := grads["w"]
	// numeric check
	const h = 1e-6
	for _, i := range []int{0, 3, 5} {
		orig := wv.Data()[i]
		wv.Data()[i] = orig + h
		_, up := run()
		wv.Data()[i] = orig - h
		_, dn := run()
		wv.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-g.Data()[i]) > 1e-5 {
			t.Fatalf("grad[%d] numeric %v analytic %v", i, num, g.Data()[i])
		}
	}
}

func TestTapeModeGradientThroughInvokeRecursion(t *testing.T) {
	// f(x, n) = x * f(x, n-1), f(x, 0) = x  => f(x, 3) = x^4, df/dx = 4x^3.
	store := vars.NewStore()
	store.Set("x", tensor.Scalar(1.5))

	fg := graph.New()
	xa := fg.Placeholder("arg0")
	na := fg.Placeholder("arg1")
	zero := fg.Const(tensor.Scalar(0))
	isBase := fg.Add("Cmp", map[string]graph.Val{"op": "<="}, na.P(), zero.P())
	swX := fg.Add("Switch", nil, xa.P(), isBase.P())
	swN := fg.Add("Switch", nil, na.P(), isBase.P())
	baseOut := fg.Add("Identity", nil, swX.Out(0))
	onec := fg.Const(tensor.Scalar(1))
	nm1 := fg.Add("Sub", nil, swN.Out(1), onec.P())
	rec := fg.Add("Invoke", map[string]graph.Val{"func": fg}, swX.Out(1), nm1.P())
	prod := fg.Add("Mul", nil, swX.Out(1), rec.P())
	m := fg.Add("Merge", nil, baseOut.P(), prod.P())
	fg.Outputs = []graph.Port{m.P()}

	g := graph.New()
	x := g.Variable("x")
	n := g.Const(tensor.Scalar(3))
	call := g.Add("Invoke", map[string]graph.Val{"func": fg}, x.P(), n.P())
	g.Outputs = []graph.Port{call.P()}

	tape := autodiff.NewTape()
	res, err := Run(g, nil, Options{Store: store, Tape: tape})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0].(*autodiff.Node)
	want := math.Pow(1.5, 4)
	if math.Abs(out.Value.Item()-want) > 1e-9 {
		t.Fatalf("f=%v want %v", out.Value.Item(), want)
	}
	grad := tape.Gradient(out)["x"]
	wantG := 4 * math.Pow(1.5, 3)
	if math.Abs(grad.Item()-wantG) > 1e-9 {
		t.Fatalf("df/dx=%v want %v", grad.Item(), wantG)
	}
}

// powGraph computes x**n by recursion: f(x, n) = x * f(x, n-1), f(x, 0) = x
// (so n+1 nested runs of the function graph), on variable x.
func powGraph(n int) (g, fg *graph.Graph) {
	fg = graph.New()
	xa := fg.Placeholder("arg0")
	na := fg.Placeholder("arg1")
	isBase := fg.Add("Cmp", map[string]graph.Val{"op": "<="}, na.P(), fg.Const(tensor.Scalar(0)).P())
	swX := fg.Add("Switch", nil, xa.P(), isBase.P())
	swN := fg.Add("Switch", nil, na.P(), isBase.P())
	nm1 := fg.Add("Sub", nil, swN.Out(1), fg.Const(tensor.Scalar(1)).P())
	rec := fg.Add("Invoke", map[string]graph.Val{"func": fg}, swX.Out(1), nm1.P())
	prod := fg.Add("Mul", nil, swX.Out(1), rec.P())
	m := fg.Add("Merge", nil, fg.Add("Identity", nil, swX.Out(0)).P(), prod.P())
	fg.Outputs = []graph.Port{m.P()}

	g = graph.New()
	call := g.Add("Invoke", map[string]graph.Val{"func": fg}, g.Variable("x").P(), g.Const(tensor.Scalar(float64(n))).P())
	g.Outputs = []graph.Port{call.P()}
	return g, fg
}

// TestRecursiveInvokeReusesBoundedFrames: each level of a recursion runs
// on its own frame of the arena, the outermost on the graph's first frame
// and the deeper ones on spare frames, at most spareFrameCap of them; deeper
// levels run on fresh scratch. Every frame is back when the run ends, and
// the results and tape gradients are those of a run without an arena.
func TestRecursiveInvokeReusesBoundedFrames(t *testing.T) {
	store := vars.NewStore()
	store.Set("x", tensor.Scalar(1.001))
	arena := NewArena()
	tape := autodiff.NewTape()
	for _, n := range []int{3, spareFrameCap + 8} {
		g, fg := powGraph(n)
		ref := autodiff.NewTape()
		res, err := Run(g, nil, Options{Store: store, Tape: ref})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Outputs[0].(*autodiff.Node)
		wantGrad := ref.Gradient(want)["x"].Item()
		for rep := 0; rep < 2; rep++ {
			tape.Reset()
			res, err := Run(g, nil, Options{Store: store, Tape: tape, Arena: arena})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Outputs[0].(*autodiff.Node)
			if got.Value.Item() != want.Value.Item() {
				t.Fatalf("n=%d: x**(n+1) is %v with the arena, %v without", n, got.Value.Item(), want.Value.Item())
			}
			if g := tape.Gradient(got)["x"].Item(); g != wantGrad {
				t.Fatalf("n=%d: gradient %v with the arena, %v without", n, g, wantGrad)
			}
		}
		ga := arena.per[fg]
		if !ga.idle() {
			t.Fatalf("n=%d: frames still in use: first busy %v, %d of %d spares back", n, ga.firstBusy, len(ga.spare), ga.made)
		}
		if want := min(n, spareFrameCap); ga.made != want {
			t.Errorf("n=%d: %d spare frames made, want %d", n, ga.made, want)
		}
	}
}

func TestRunDetectsCycle(t *testing.T) {
	g := graph.New()
	a := g.Add("Identity", nil)
	b := g.Add("Identity", nil, a.P())
	a.Inputs = []graph.Port{b.P()} // cycle
	g.Outputs = []graph.Port{b.P()}
	if _, err := Run(g, nil, Options{}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestStatsCounts(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	y := g.Add("Tanh", nil, x.P())
	g.Outputs = []graph.Port{y.P()}
	stats := &Stats{}
	if _, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(1)}, Options{Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.OpsExecuted.Load() != 2 {
		t.Fatalf("ops=%d", stats.OpsExecuted.Load())
	}
}

// TestKernelPanicRecovered covers runNodes' recovery path: malformed
// feeds that panic a tensor kernel deep inside the scheduler must surface as
// errors, never kill the process. This is the property the serving layer relies on to survive bad
// client requests routed through Engine.Call.
func TestKernelPanicRecovered(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	y := g.Placeholder("y")
	out := g.Add("MatMul", nil, x.P(), y.P())
	g.Outputs = []graph.Port{out.P()}
	feeds := map[string]graph.Val{
		// [1,5] x [2,3]: inner dimensions disagree, the MatMul kernel panics.
		"x": tensor.New([]int{1, 5}, []float64{1, 2, 3, 4, 5}),
		"y": tensor.New([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6}),
	}
	res, err := Run(g, feeds, Options{})
	if err == nil {
		t.Fatalf("malformed feed executed: %v", res.Outputs)
	}
	var ae *AssertError
	if errors.As(err, &ae) {
		t.Fatalf("kernel panic misreported as assertion failure: %v", err)
	}
	// The graph (and its cached plan) must still run good feeds afterwards.
	good := map[string]graph.Val{
		"x": tensor.New([]int{1, 2}, []float64{1, 2}),
		"y": tensor.New([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6}),
	}
	if _, err := Run(g, good, Options{}); err != nil {
		t.Fatalf("graph poisoned after recovered panic: %v", err)
	}
}

// TestFromColShapeMismatchNamesOp: an im2col matrix that does not fit the
// filter (as a corrupt artifact or a bad pass could wire it) fails the run
// with an error naming the FromCol node, on the plain path and on the
// pooled memory plan, instead of computing from the wrong elements.
func TestFromColShapeMismatchNamesOp(t *testing.T) {
	rng := tensor.NewRNG(3)
	feeds := map[string]graph.Val{
		"col":  rng.Randn(16, 9), // the unroll of a 1-channel 4x4 image
		"w":    rng.Randn(4, 2, 3, 3),
		"x":    rng.Randn(1, 2, 4, 4),
		"gout": rng.Randn(1, 4, 4, 4),
	}
	// Conv2DFromCol(col, w, x) and Conv2DGradFilterFromCol(col, gout, w).
	for op, rest := range map[string][2]string{"Conv2DFromCol": {"w", "x"}, "Conv2DGradFilterFromCol": {"gout", "w"}} {
		g := graph.New()
		n := g.Add(op, map[string]graph.Val{"stride": 1, "pad": 1},
			g.Placeholder("col").P(), g.Placeholder(rest[0]).P(), g.Placeholder(rest[1]).P())
		g.Outputs = []graph.Port{n.P()}
		for _, opts := range []Options{{}, {Pool: tensor.NewPool(), Arena: NewArena()}} {
			_, err := Run(g, feeds, opts)
			if err == nil || !strings.Contains(err.Error(), "("+op+")") || !strings.Contains(err.Error(), "im2col") {
				t.Fatalf("%s with a 9-column col for an 18-column filter: err = %v", op, err)
			}
		}
	}
}

// TestCtxCancellationLandsInsideWhile cancels a context while a long While
// loop is executing and checks that Run stops mid-execution — inside the
// graph, not at a step boundary — and that no deferred variable update was
// committed (the all-or-nothing guarantee holds for canceled runs too).
func TestCtxCancellationLandsInsideWhile(t *testing.T) {
	// while i < n: i += 1, with n far beyond what could run before the
	// cancel fires; an AssignSub downstream must never commit.
	cond := graph.New()
	ci := cond.Placeholder("arg0")
	cn := cond.Placeholder("arg1")
	lt := cond.Add("Cmp", map[string]graph.Val{"op": "<"}, ci.P(), cn.P())
	cond.Outputs = []graph.Port{lt.P()}

	body := graph.New()
	bi := body.Placeholder("arg0")
	bn := body.Placeholder("arg1")
	one := body.Const(tensor.Scalar(1))
	ni := body.Add("Add", nil, bi.P(), one.P())
	body.Outputs = []graph.Port{ni.P(), bn.P()}

	g := graph.New()
	i0 := g.Const(tensor.Scalar(0))
	n0 := g.Const(tensor.Scalar(1e18))
	w := g.Add("While", map[string]graph.Val{
		"cond": cond, "body": body, "maxIter": 1 << 40,
	}, i0.P(), n0.P())
	w.NumOutputs = 2
	gradc := g.Const(tensor.FromSlice([]float64{2}))
	upd := g.Add("AssignSub", map[string]graph.Val{"name": "w", "lr": 0.5}, gradc.P())
	upd.ControlDeps = append(upd.ControlDeps, w)
	g.Updates = []*graph.Node{upd}
	g.Outputs = []graph.Port{w.Out(0)}

	store := vars.NewStore()
	store.Set("w", tensor.FromSlice([]float64{10}))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := Run(g, nil, Options{Store: store, Ctx: ctx})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	// Far below the time the full loop would need: cancellation landed
	// inside the execution.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if store.MustGet("w").At(0) != 10 {
		t.Fatalf("canceled run committed an update: %v", store.MustGet("w"))
	}
}

// TestCtxPreCanceledRunsNothing: a context canceled before Run starts stops
// the schedule before any node executes.
func TestCtxPreCanceledRunsNothing(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	c := g.Const(tensor.Scalar(3))
	out := g.Add("Mul", nil, x.P(), c.P())
	g.Outputs = []graph.Port{out.P()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st Stats
	_, err := Run(g, map[string]graph.Val{"x": tensor.Scalar(7)}, Options{Ctx: ctx, Stats: &st})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st.OpsExecuted.Load() != 0 {
		t.Fatalf("pre-canceled run executed %d ops", st.OpsExecuted.Load())
	}
}

// TestGradSinkFirstEmissionCommitsTheRun: with Options.GradSink, AssignSub
// hands its raw gradient to the sink instead of updating the store, and the
// first emission is the run's commit point — a sink that cancels the context
// on its first call still receives every parameter exactly once and Run
// succeeds, while a run canceled before it starts emits nothing.
func TestGradSinkFirstEmissionCommitsTheRun(t *testing.T) {
	const params = 4
	for _, preCanceled := range []bool{false, true} {
		g := graph.New()
		store := vars.NewStore()
		x := g.Placeholder("x")
		sum := x.P()
		for k := 0; k < params; k++ {
			name := fmt.Sprintf("w%d", k)
			store.Set(name, tensor.FromSlice([]float64{float64(k + 1)}))
			grad := g.Add("Mul", nil, g.Variable(name).P(), x.P())
			g.Updates = append(g.Updates, g.Add("AssignSub", map[string]graph.Val{"name": name, "lr": 0.5}, grad.P()))
			sum = g.Add("Add", nil, sum, grad.P()).P()
		}
		g.Outputs = []graph.Port{sum}

		ctx, cancel := context.WithCancel(context.Background())
		if preCanceled {
			cancel()
		}
		got := map[string]float64{}
		sink := func(name string, gr *tensor.Tensor) {
			if _, dup := got[name]; dup {
				t.Errorf("%s emitted twice", name)
			}
			got[name] = gr.Item()
			cancel()
		}
		_, err := Run(g, map[string]graph.Val{"x": tensor.FromSlice([]float64{3})}, Options{
			Store: store, Pool: tensor.NewPool(), Ctx: ctx, GradSink: sink,
		})
		if preCanceled {
			if !errors.Is(err, context.Canceled) || len(got) != 0 {
				t.Fatalf("pre-canceled: err %v, emitted %v", err, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run canceled after its commit point: %v", err)
		}
		if len(got) != params {
			t.Fatalf("emitted %v, want all %d parameters", got, params)
		}
		for k := 0; k < params; k++ {
			name := fmt.Sprintf("w%d", k)
			if want := float64(3 * (k + 1)); got[name] != want {
				t.Fatalf("%s gradient %v, want the raw %v", name, got[name], want)
			}
			if v := store.MustGet(name).Item(); v != float64(k+1) {
				t.Fatalf("%s updated locally despite the sink: %v", name, v)
			}
		}
	}
}
