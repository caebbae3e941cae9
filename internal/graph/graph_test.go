package graph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// evalStatic executes a pure static graph serially using the kernel registry
// — a minimal reference evaluator used only by this package's tests (the real
// scheduler lives in internal/exec).
func evalStatic(t *testing.T, g *Graph, feeds map[string]Val) []Val {
	t.Helper()
	vals := make(map[Port]Val)
	for _, n := range g.Nodes {
		in := make([]Val, len(n.Inputs))
		for i, p := range n.Inputs {
			v, ok := vals[p]
			if !ok {
				t.Fatalf("node %d (%s): input %d not computed", n.ID, n.Op, i)
			}
			in[i] = v
		}
		var out []Val
		switch n.Op {
		case "Placeholder":
			v, ok := feeds[n.StrAttr("name")]
			if !ok {
				t.Fatalf("missing feed %q", n.StrAttr("name"))
			}
			out = []Val{v}
		default:
			def := Lookup(n.Op)
			if !def.Foldable() {
				t.Fatalf("no kernel for %s", n.Op)
			}
			v, err := def.Eval(n, in)
			if err != nil {
				t.Fatalf("kernel %s: %v", n.Op, err)
			}
			out = []Val{v}
		}
		for i, v := range out {
			vals[Port{Node: n, Out: i}] = v
		}
	}
	res := make([]Val, len(g.Outputs))
	for i, o := range g.Outputs {
		res[i] = vals[o]
	}
	return res
}

func TestGraphBuildAndEval(t *testing.T) {
	// The paper's Figure 3: loss = (0.5*x + 1.5 - y)**2
	g := New()
	x := g.Placeholder("x")
	y := g.Placeholder("y")
	half := g.Const(tensor.Scalar(0.5))
	oneHalf := g.Const(tensor.Scalar(1.5))
	mul := g.Add("Mul", nil, half.P(), x.P())
	add := g.Add("Add", nil, mul.P(), oneHalf.P())
	sub := g.Add("Sub", nil, add.P(), y.P())
	two := g.Const(tensor.Scalar(2))
	loss := g.Add("Pow", nil, sub.P(), two.P())
	g.Outputs = []Port{loss.P()}

	res := evalStatic(t, g, map[string]Val{"x": tensor.Scalar(4), "y": tensor.Scalar(2)})
	got := res[0].(*tensor.Tensor).Item()
	if math.Abs(got-2.25) > 1e-12 {
		t.Fatalf("got %v want 2.25", got)
	}
}

func TestKernelsMatchTensorOps(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := rng.Randn(2, 3)
	b := rng.Randn(2, 3)
	cases := []struct {
		op   string
		want *tensor.Tensor
	}{
		{"Add", tensor.Add(a, b)},
		{"Sub", tensor.SubInto(tensor.Zeros(2, 3), a, b)},
		{"Mul", tensor.Mul(a, b)},
		{"Div", tensor.Div(a, b)},
	}
	for _, c := range cases {
		n := &Node{Op: c.op}
		out, err := Lookup(c.op).Eval(n, []Val{a, b})
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if !tensor.Equal(out.(*tensor.Tensor), c.want) {
			t.Fatalf("%s mismatch", c.op)
		}
	}
}

func TestGradientsLinear(t *testing.T) {
	// loss = mean((x@w - y)^2) — gradient vs numeric check.
	rng := tensor.NewRNG(3)
	xv := rng.Randn(4, 3)
	wv := rng.Randn(3, 1)
	yv := rng.Randn(4, 1)

	build := func() (*Graph, Port) {
		g := New()
		x := g.Const(xv)
		w := g.Variable("w")
		y := g.Const(yv)
		pred := g.Add("MatMul", nil, x.P(), w.P())
		loss := g.Add("MSE", nil, pred.P(), y.P())
		return g, loss.P()
	}
	g, loss := build()
	grads, err := Gradients(g, loss, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	g.Outputs = []Port{loss, grads["w"]}

	// Feed Variable via a tiny shim: replace Variable kernel-free node by
	// rewriting to Const for this evaluation.
	for _, n := range g.Nodes {
		if n.Op == "Variable" {
			n.Op = "Const"
			n.Attrs = map[string]Val{"value": wv}
		}
	}
	res := evalStatic(t, g, nil)
	analytic := res[1].(*tensor.Tensor)

	// numeric
	lossAt := func() float64 {
		g2, l2 := build()
		g2.Outputs = []Port{l2}
		for _, n := range g2.Nodes {
			if n.Op == "Variable" {
				n.Op = "Const"
				n.Attrs = map[string]Val{"value": wv}
			}
		}
		return evalStatic(t, g2, nil)[0].(*tensor.Tensor).Item()
	}
	const h = 1e-6
	for i := range wv.Data() {
		orig := wv.Data()[i]
		wv.Data()[i] = orig + h
		up := lossAt()
		wv.Data()[i] = orig - h
		dn := lossAt()
		wv.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-analytic.Data()[i]) > 1e-5 {
			t.Fatalf("grad[%d]: numeric %v analytic %v", i, num, analytic.Data()[i])
		}
	}
}

func TestGradientsThroughActivationChain(t *testing.T) {
	rng := tensor.NewRNG(5)
	wv := rng.Randn(3, 3)
	xv := rng.Randn(2, 3)

	build := func() (*Graph, Port) {
		g := New()
		x := g.Const(xv)
		w := g.Variable("w")
		h1 := g.Add("MatMul", nil, x.P(), w.P())
		h2 := g.Add("Tanh", nil, h1.P())
		h3 := g.Add("Sigmoid", nil, h2.P())
		h4 := g.Add("ReLU", nil, h3.P())
		loss := g.Add("Sum", nil, h4.P())
		return g, loss.P()
	}
	g, loss := build()
	grads, err := Gradients(g, loss, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	g.Outputs = []Port{loss, grads["w"]}
	materialize := func(gr *Graph) {
		for _, n := range gr.Nodes {
			if n.Op == "Variable" {
				n.Op = "Const"
				n.Attrs = map[string]Val{"value": wv}
			}
		}
	}
	materialize(g)
	analytic := evalStatic(t, g, nil)[1].(*tensor.Tensor)
	lossAt := func() float64 {
		g2, l2 := build()
		g2.Outputs = []Port{l2}
		materialize(g2)
		return evalStatic(t, g2, nil)[0].(*tensor.Tensor).Item()
	}
	const h = 1e-6
	for _, i := range []int{0, 4, 8} {
		orig := wv.Data()[i]
		wv.Data()[i] = orig + h
		up := lossAt()
		wv.Data()[i] = orig - h
		dn := lossAt()
		wv.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-analytic.Data()[i]) > 1e-5 {
			t.Fatalf("grad[%d]: numeric %v analytic %v", i, num, analytic.Data()[i])
		}
	}
}

func TestGradientZeroForUnusedVariable(t *testing.T) {
	g := New()
	w := g.Variable("w")
	u := g.Variable("unused")
	_ = u
	loss := g.Add("Sum", nil, w.P())
	grads, err := Gradients(g, loss.P(), []string{"w", "unused"})
	if err != nil {
		t.Fatal(err)
	}
	if grads["unused"].Node.Op != "FillLike" {
		t.Fatalf("unused grad should be FillLike, got %s", grads["unused"].Node.Op)
	}
}

// TestGradientsSumEveryReadOfAVariable: the converter emits one Variable node
// per read, so the gradient of sum(w) + sum(w) must count both reads.
func TestGradientsSumEveryReadOfAVariable(t *testing.T) {
	g := New()
	a := g.Add("Sum", nil, g.Variable("w").P())
	b := g.Add("Sum", nil, g.Variable("w").P())
	loss := g.Add("Add", nil, a.P(), b.P())
	grads, err := Gradients(g, loss.P(), []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	g.Outputs = []Port{grads["w"]}
	for _, n := range g.Nodes {
		if n.Op == "Variable" {
			n.Op = "Const"
			n.Attrs = map[string]Val{"value": tensor.FromSlice([]float64{3, 4})}
		}
	}
	got := evalStatic(t, g, nil)[0].(*tensor.Tensor)
	if !tensor.Equal(got, tensor.FromSlice([]float64{2, 2})) {
		t.Fatalf("gradient of sum(w)+sum(w) over two reads of w: %v, want [2 2]", got)
	}
}

// TestGradientsRejectOutputPortAboveZero: rules differentiate output 0 only,
// so a gradient that reaches a later output (Switch's true side, a Loop's
// second carried value) must fail naming the op and port, not be dropped.
func TestGradientsRejectOutputPortAboveZero(t *testing.T) {
	for _, c := range []struct {
		op   string
		port int
	}{{"Switch", 1}, {"Loop", 2}} {
		g := New()
		w := g.Variable("w")
		n := g.Add(c.op, nil, w.P(), g.Const(tensor.Scalar(1)).P())
		loss := g.Add("Add", nil, g.Add("Sum", nil, w.P()).P(), g.Add("Sum", nil, n.Out(c.port)).P())
		_, err := Gradients(g, loss.P(), []string{"w"})
		want := fmt.Sprintf("output %d of op %s", c.port, c.op)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %q", c.op, err, want)
		}
	}
}

// TestGradientsOutputPortErrorIsDeterministic: with several unsupported
// ports in the graph, the error always names the first in node order.
func TestGradientsOutputPortErrorIsDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		g := New()
		w := g.Variable("w")
		one := g.Const(tensor.Scalar(1)).P()
		sw := g.Add("Switch", nil, w.P(), one)
		lp := g.Add("Loop", nil, w.P(), one)
		loss := g.Add("Add", nil, g.Add("Sum", nil, lp.Out(2)).P(), g.Add("Sum", nil, sw.Out(1)).P())
		_, err := Gradients(g, loss.P(), []string{"w"})
		if want := "output 1 of op Switch"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("build %d: got %v, want an error naming %q", i, err, want)
		}
	}
}

// TestFailedGradientsLeavesGraphUnchanged: the rules run before the walk
// meets what it cannot differentiate, and their nodes must not stay behind —
// the caller runs the same graph on the trace tape and may persist it.
func TestFailedGradientsLeavesGraphUnchanged(t *testing.T) {
	for _, op := range []string{"Merge", "Switch"} {
		g := New()
		w := g.Variable("w")
		n := g.Add(op, nil, w.P(), g.Const(tensor.Scalar(1)).P())
		port := n.P()
		if op == "Switch" {
			port = n.Out(1)
		}
		loss := g.Add("Sum", nil, g.Add("Tanh", nil, port).P())
		g.Outputs = []Port{loss.P()}
		before, err := CanonicalBytes(g)
		if err != nil {
			t.Fatal(err)
		}
		nodes, nextID := len(g.Nodes), g.nextID
		if _, err := Gradients(g, loss.P(), []string{"w"}); err == nil {
			t.Fatalf("%s: Gradients succeeded", op)
		}
		after, err := CanonicalBytes(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || len(g.Nodes) != nodes || g.nextID != nextID {
			t.Errorf("%s: failed Gradients left %d nodes (next ID %d), want %d (%d)",
				op, len(g.Nodes), g.nextID, nodes, nextID)
		}
	}
}

// The optimizer tests moved to internal/graph/passes with the passes
// themselves.

func TestCountOpsAndString(t *testing.T) {
	g := New()
	x := g.Placeholder("x")
	g.Add("Tanh", nil, x.P())
	counts := g.CountOps()
	if counts["Placeholder"] != 1 || counts["Tanh"] != 1 {
		t.Fatalf("counts %v", counts)
	}
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}
