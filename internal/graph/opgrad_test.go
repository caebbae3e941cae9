package graph_test

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// gradCase is one application of a differentiable op: its attrs and inputs
// (tensors, lists of tensors, or index data). Tensor inputs — and the
// tensors of list inputs — are differentiated unless listed in fixed.
type gradCase struct {
	op    string
	attrs map[string]graph.Val
	in    []graph.Val
	fixed []int
}

// gradCases covers every OpDef with a Grad, with the broadcasting shapes —
// [n,1] against [n] included — that the rules must sum back.
func gradCases() []gradCase {
	rng := tensor.NewRNG(11)
	r := func(shape ...int) *tensor.Tensor { return rng.Randn(shape...) }
	// pos draws from [0.5, 1.5): inside the domain of Log, Div and Pow.
	pos := func(shape ...int) *tensor.Tensor { return rng.Uniform(0.5, 1.5, shape...) }
	a := func(kv ...any) map[string]graph.Val {
		m := map[string]graph.Val{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return m
	}
	in := func(vs ...graph.Val) []graph.Val { return vs }
	return []gradCase{
		{op: "Add", in: in(r(4, 1), r(4))},
		{op: "Add", in: in(r(2, 3), r(2, 3))},
		{op: "Sub", in: in(r(4, 1), r(4))},
		{op: "Sub", in: in(r(3), r(2, 3))},
		{op: "Mul", in: in(r(2, 3), r(3))},
		{op: "Mul", in: in(r(4, 1), r(4))},
		{op: "Div", in: in(r(2, 3), pos(3))},
		{op: "Div", in: in(r(4, 1), pos(4))},
		{op: "Pow", in: in(pos(2, 3), tensor.Scalar(3))},
		{op: "Pow", in: in(pos(2, 3), tensor.FromSlice([]float64{1.5, 2, -1}))},
		{op: "Pow", in: in(pos(4, 1), r(4))},
		{op: "Maximum", in: in(r(4, 1), r(4))},
		{op: "Minimum", in: in(r(2, 3), r(3))},
		{op: "Neg", in: in(r(2, 3))},
		{op: "ReLU", in: in(r(2, 3))},
		{op: "Sigmoid", in: in(r(2, 3))},
		{op: "Tanh", in: in(r(2, 3))},
		{op: "Exp", in: in(r(2, 3))},
		{op: "Log", in: in(pos(2, 3))},
		{op: "Softmax", in: in(r(2, 4))},
		{op: "Sum", in: in(r(2, 3))},
		{op: "Mean", in: in(r(4, 1))},
		{op: "MatMul", in: in(r(2, 3), r(3, 4))},
		{op: "Transpose", in: in(r(2, 3))},
		{op: "CrossEntropy", in: in(r(3, 4), tensor.OneHot([]int{0, 2, 3}, 4)), fixed: []int{1}},
		{op: "CrossEntropy", in: in(r(3, 4), tensor.Softmax(r(4))), fixed: []int{1}},
		{op: "MSE", in: in(r(4, 1), r(4))},
		{op: "MSE", in: in(r(4), r(4))},
		{op: "MSE", in: in(r(2, 3), r(3))},
		{op: "Conv2D", attrs: a("stride", 1, "pad", 1), in: in(r(2, 2, 5, 5), r(3, 2, 3, 3))},
		{op: "Conv2D", attrs: a("stride", 2, "pad", 0), in: in(r(1, 1, 5, 5), r(2, 1, 3, 3))},
		{op: "MaxPool", attrs: a("k", 2, "stride", 2), in: in(r(1, 2, 4, 4))},
		{op: "AvgPool", attrs: a("k", 2, "stride", 1), in: in(r(1, 2, 3, 3))},
		{op: "Identity", in: in(r(2, 3))},
		{op: "Reshape", attrs: a("shape", []int{3, -1}), in: in(r(2, 3))},
		{op: "ReshapeLike", in: in(r(1, 3), r(3)), fixed: []int{1}},
		// Abs sits here so that the cases after it keep their indices and
		// their draws from rng.
		{op: "Abs", in: in(r(2, 3))},
		{op: "Concat", attrs: a("axis", 1), in: in(r(2, 2), r(2, 3))},
		{op: "Concat", attrs: a("axis", -1), in: in(r(2, 1), r(2, 1), r(2, 2))},
		{op: "Concat", attrs: a("axis", 0), in: in(r(1, 2), r(3, 2), r(2, 2), r(1, 2))},
		{op: "Slice", attrs: a("axis", 1, "lo", 1, "hi", 3), in: in(r(2, 4))},
		{op: "Stack", in: in(r(2, 3), r(2, 3))},
		{op: "StackList", in: in([]graph.Val{r(3), r(3), r(3)})},
		{op: "Gather", in: in(r(5, 3), []int{4, 0, 4}), fixed: []int{1}},
		{op: "IndexAny", in: in(r(3, 2), 1), fixed: []int{1}},
		{op: "IndexAny", in: in(r(3, 2), -1), fixed: []int{1}},
	}
}

// noNumericCheck lists the differentiable ops whose rule has no kernel to
// check it against: BatchNorm runs in the executor and its gradient is a
// documented pass-through approximation.
var noNumericCheck = map[string]bool{"BatchNorm": true}

// TestEveryGradRuleMatchesCentralDifferences checks every OpDef.Grad rule,
// through both emitters, against central differences of the op's own
// kernel: the eager tape (Apply, then Gradient) and the graph (the rule
// emitting nodes, run by the executor with passes off). The loss is
// sum(op(in) * w) for a fixed random w, so every output element carries a
// distinct weight.
func TestEveryGradRuleMatchesCentralDifferences(t *testing.T) {
	covered := map[string]bool{}
	for i, c := range gradCases() {
		covered[c.op] = true
		t.Run(fmt.Sprintf("%s#%d", c.op, i), func(t *testing.T) { checkGradCase(t, c) })
	}
	for _, name := range graph.OpNames() {
		if graph.Lookup(name).Grad != nil && !covered[name] && !noNumericCheck[name] {
			t.Errorf("op %s has a gradient rule but no case here", name)
		}
	}
	for name := range noNumericCheck {
		if d := graph.Lookup(name); d == nil || d.Grad == nil || d.Foldable() {
			t.Errorf("%s: exempt from the numeric check, but it is not a kernel-less differentiable op", name)
		}
	}
}

// diffInputs returns the differentiated tensors of c, keyed by a name: "x0"
// for tensor input 0, "x0_1" for element 1 of list input 0.
func diffInputs(c gradCase) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for i, v := range c.in {
		if contains(c.fixed, i) {
			continue
		}
		switch x := v.(type) {
		case *tensor.Tensor:
			out[fmt.Sprintf("x%d", i)] = x
		case []graph.Val:
			for j, e := range x {
				out[fmt.Sprintf("x%d_%d", i, j)] = e.(*tensor.Tensor)
			}
		}
	}
	return out
}

func checkGradCase(t *testing.T, c gradCase) {
	def := graph.Lookup(c.op)
	n := &graph.Node{Op: c.op, Attrs: c.attrs}
	fwd := func() *tensor.Tensor {
		out, err := def.Eval(n, c.in)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		return out.(*tensor.Tensor)
	}
	w := tensor.NewRNG(5).Randn(fwd().Shape()...)
	loss := func() float64 { return tensor.SumInto(tensor.Scalar(0), tensor.Mul(fwd(), w)).Item() }

	eager := tapeGrads(t, c, w)
	symbolic := graphGrads(t, c, w)
	for name, x := range diffInputs(c) {
		for k := range x.Data() {
			orig := x.Data()[k]
			const h = 1e-6
			x.Data()[k] = orig + h
			up := loss()
			x.Data()[k] = orig - h
			dn := loss()
			x.Data()[k] = orig
			num := (up - dn) / (2 * h)
			for engine, g := range map[string]*tensor.Tensor{"tape": eager[name], "graph": symbolic[name]} {
				if g == nil || !tensor.ShapeEq(g.Shape(), x.Shape()) {
					t.Fatalf("%s: %s gradient %v for a %v input", engine, name, g, x.Shape())
				}
				if d := math.Abs(g.Data()[k] - num); d > 1e-6+1e-5*math.Abs(num) {
					t.Fatalf("%s: d/d%s[%d] = %v, central difference %v", engine, name, k, g.Data()[k], num)
				}
			}
		}
	}
}

// tapeGrads differentiates sum(op(in) * w) on the tape, every differentiated
// tensor watched as a variable of its diffInputs name.
func tapeGrads(t *testing.T, c gradCase, w *tensor.Tensor) map[string]*tensor.Tensor {
	tp := autodiff.NewTape()
	in := make([]graph.Val, len(c.in))
	for i, v := range c.in {
		in[i] = v
		if contains(c.fixed, i) {
			continue
		}
		switch x := v.(type) {
		case *tensor.Tensor:
			in[i] = tp.Watch(fmt.Sprintf("x%d", i), x)
		case []graph.Val:
			l := make([]graph.Val, len(x))
			for j, e := range x {
				l[j] = tp.Watch(fmt.Sprintf("x%d_%d", i, j), e.(*tensor.Tensor))
			}
			in[i] = l
		}
	}
	y := apply(t, tp, c.op, c.attrs, in...)
	return tp.Gradient(apply(t, tp, "Sum", nil, apply(t, tp, "Mul", nil, y, w)))
}

func apply(t *testing.T, tp *autodiff.Tape, op string, attrs map[string]graph.Val, in ...graph.Val) *autodiff.Node {
	t.Helper()
	v, err := tp.Apply(graph.Lookup(op), &graph.Node{Op: op, Attrs: attrs}, in, false)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	n, ok := v.(*autodiff.Node)
	if !ok {
		t.Fatalf("%s: result %T is not a tape node", op, v)
	}
	return n
}

// graphGrads runs the rule with a graph as the Emitter: the forward op's
// inputs and the gradient w reaching its output are placeholders, and the
// executor evaluates the contributions the rule reports.
func graphGrads(t *testing.T, c gradCase, w *tensor.Tensor) map[string]*tensor.Tensor {
	g := graph.New()
	feeds := map[string]graph.Val{"gout": w}
	in := make([]graph.Val, len(c.in))
	ports := make([]graph.Port, len(c.in))
	for i, v := range c.in {
		name := fmt.Sprintf("in%d", i)
		feeds[name] = v
		ports[i] = g.Add("Placeholder", map[string]graph.Val{"name": name}).P()
		in[i] = ports[i]
	}
	fwd := g.Add(c.op, c.attrs, ports...)
	gout := g.Add("Placeholder", map[string]graph.Val{"name": "gout"}).P()
	contrib := map[int]graph.Port{}
	add := func(i int, gp graph.Val) {
		if prev, ok := contrib[i]; ok {
			gp = g.Add("Add", nil, prev, gp.(graph.Port)).P()
		}
		contrib[i] = gp.(graph.Port)
	}
	if err := graph.Lookup(c.op).Grad(g, fwd, in, fwd.P(), gout, add); err != nil {
		t.Fatalf("graph rule: %v", err)
	}
	var idx []int
	for i, p := range contrib {
		idx = append(idx, i)
		g.Outputs = append(g.Outputs, p)
	}
	res, err := exec.Run(g, feeds, exec.Options{})
	if err != nil {
		t.Fatalf("graph run: %v", err)
	}
	out := map[string]*tensor.Tensor{}
	for k, i := range idx {
		switch x := res.Outputs[k].(type) {
		case *tensor.Tensor:
			out[fmt.Sprintf("x%d", i)] = x
		case []graph.Val:
			for j, e := range x {
				out[fmt.Sprintf("x%d_%d", i, j)] = e.(*tensor.Tensor)
			}
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestSharedRuleAttrsStayUnchanged: the attrs maps the gradient rules build
// once and share, and the forward attrs a rule passes on (Concat's), come
// through every per-op case, on both emitters, with their content
// unchanged: no emitter or kernel writes an emitted attrs map.
func TestSharedRuleAttrsStayUnchanged(t *testing.T) {
	run := func() {
		for _, c := range gradCases() {
			fwd := maps.Clone(c.attrs)
			w := tensor.NewRNG(5).Randn(tensorOut(t, c).Shape()...)
			tapeGrads(t, c, w)
			graphGrads(t, c, w)
			if !reflect.DeepEqual(c.attrs, fwd) {
				t.Errorf("%s: forward attrs %v became %v", c.op, fwd, c.attrs)
			}
		}
	}
	run()
	shared := graph.SharedAttrs()
	if len(shared) < 8 {
		t.Fatalf("%d shared attrs maps after every case, want the 6 constants and the Slice/Stack memo", len(shared))
	}
	before := make([]map[string]graph.Val, len(shared))
	for i, m := range shared {
		before[i] = maps.Clone(m)
	}
	run()
	for i, m := range shared {
		if !reflect.DeepEqual(m, before[i]) {
			t.Errorf("shared attrs %v became %v", before[i], m)
		}
	}
	if got := graph.SharedAttrs(); len(got) != len(shared) {
		t.Errorf("%d shared attrs maps after a second pass, %d after the first: the memo rebuilt some", len(got), len(shared))
	}
}

// tensorOut is c's forward value.
func tensorOut(t *testing.T, c gradCase) *tensor.Tensor {
	t.Helper()
	out, err := graph.Lookup(c.op).Eval(&graph.Node{Op: c.op, Attrs: c.attrs}, c.in)
	if err != nil {
		t.Fatalf("%s: %v", c.op, err)
	}
	return out.(*tensor.Tensor)
}
