package passes_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
	"repro/internal/tensor"
)

// only builds a verifying pipeline containing just the named passes.
func only(names ...string) *passes.Pipeline {
	dis := map[string]bool{}
	for _, n := range passes.Names() {
		dis[n] = true
	}
	for _, n := range names {
		delete(dis, n)
	}
	return passes.New(passes.Options{Disable: dis, Verify: true})
}

// full builds the complete verifying pipeline.
func full() *passes.Pipeline {
	return passes.New(passes.Options{Verify: true})
}

// run executes g through the real scheduler; pool != nil turns the memory
// plan on (plan-driven buffer reuse), matching engine replay.
func run(t *testing.T, g *graph.Graph, feeds map[string]graph.Val, pool *tensor.Pool) []graph.Val {
	t.Helper()
	res, err := exec.Run(g, feeds, exec.Options{Pool: pool})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return res.Outputs
}

func mustRun(t *testing.T, p *passes.Pipeline, g *graph.Graph) *passes.Report {
	t.Helper()
	rep, err := p.Run(g)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return rep
}

func countOp(g *graph.Graph, op string) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Op == op {
			n++
		}
	}
	return n
}

// --- ported optimizer tests (formerly in internal/graph) --------------------

func TestConstantFolding(t *testing.T) {
	g := graph.New()
	a := g.Const(tensor.Scalar(2))
	b := g.Const(tensor.Scalar(3))
	sum := g.Add("Add", nil, a.P(), b.P())
	x := g.Placeholder("x")
	out := g.Add("Mul", nil, sum.P(), x.P())
	g.Outputs = []graph.Port{out.P()}

	rep := mustRun(t, only("fold", "dce"), g).Map()
	if rep["fold"] == 0 {
		t.Fatalf("nothing folded: %v", rep)
	}
	folded := false
	for _, n := range g.Nodes {
		if n.Op == "Const" {
			if tv, err := graph.AsTensor(n.Attr("value")); err == nil && tv.Size() == 1 && tv.Item() == 5 {
				folded = true
			}
		}
		if n.Op == "Add" {
			t.Fatal("Add survived folding")
		}
	}
	if !folded {
		t.Fatal("no folded const with value 5")
	}
	res := run(t, g, map[string]graph.Val{"x": tensor.Scalar(4)}, nil)
	if res[0].(*tensor.Tensor).Item() != 20 {
		t.Fatalf("folded graph wrong: %v", res[0])
	}
}

func TestCSEMergesDuplicates(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	a := g.Add("Tanh", nil, x.P())
	b := g.Add("Tanh", nil, x.P()) // identical
	out := g.Add("Add", nil, a.P(), b.P())
	g.Outputs = []graph.Port{out.P()}
	before := len(g.Nodes)
	rep := mustRun(t, only("cse", "dce"), g).Map()
	if rep["cse"] != 1 {
		t.Fatalf("cse=%d", rep["cse"])
	}
	if len(g.Nodes) != before-1 {
		t.Fatalf("node count %d -> %d", before, len(g.Nodes))
	}
	res := run(t, g, map[string]graph.Val{"x": tensor.Scalar(1)}, nil)
	want := 2 * math.Tanh(1)
	if math.Abs(res[0].(*tensor.Tensor).Item()-want) > 1e-12 {
		t.Fatalf("got %v want %v", res[0], want)
	}
}

func TestDCERemovesUnreachable(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	used := g.Add("Tanh", nil, x.P())
	g.Add("Sigmoid", nil, x.P()) // dead
	g.Outputs = []graph.Port{used.P()}
	rep := mustRun(t, only("dce"), g).Map()
	if rep["dce"] != 1 {
		t.Fatalf("dce=%d", rep["dce"])
	}
	if countOp(g, "Sigmoid") != 0 {
		t.Fatal("dead node survived")
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	g.Add("AssignSub", map[string]graph.Val{"name": "w"}, x.P()) // side effect, no consumer
	out := g.Add("Tanh", nil, x.P())
	g.Outputs = []graph.Port{out.P()}
	mustRun(t, full(), g)
	if countOp(g, "AssignSub") != 1 {
		t.Fatal("side-effecting node removed by DCE")
	}
}

func TestArithmeticIdentities(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	zero := g.Const(tensor.Scalar(0))
	onec := g.Const(tensor.Scalar(1))
	a := g.Add("Add", nil, x.P(), zero.P()) // x+0 -> x
	b := g.Add("Mul", nil, a.P(), onec.P()) // x*1 -> x
	out := g.Add("Tanh", nil, b.P())
	g.Outputs = []graph.Port{out.P()}
	rep := mustRun(t, full(), g).Map()
	if rep["arith"] < 2 {
		t.Fatalf("arith=%d", rep["arith"])
	}
	if out.Inputs[0].Node != x {
		t.Fatalf("identities not collapsed; input is %s", out.Inputs[0].Node.Op)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	// Random-ish expression graph: optimize must not change the result.
	rng := tensor.NewRNG(9)
	xv := rng.Randn(3, 3)
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		c1 := g.Const(tensor.Scalar(2))
		c2 := g.Const(tensor.Scalar(3))
		sum := g.Add("Add", nil, c1.P(), c2.P())
		m := g.Add("Mul", nil, x.P(), sum.P())
		t1 := g.Add("Tanh", nil, m.P())
		t2 := g.Add("Tanh", nil, m.P())
		one := g.Const(tensor.Scalar(1))
		t3 := g.Add("Mul", nil, t1.P(), one.P())
		out := g.Add("Add", nil, t3.P(), t2.P())
		g.Outputs = []graph.Port{out.P()}
		return g
	}
	g1 := build()
	g2 := build()
	mustRun(t, full(), g2)
	r1 := run(t, g1, map[string]graph.Val{"x": xv}, nil)[0].(*tensor.Tensor)
	r2 := run(t, g2, map[string]graph.Val{"x": xv}, nil)[0].(*tensor.Tensor)
	if !tensor.AllClose(r1, r2, 1e-12) {
		t.Fatal("optimization changed semantics")
	}
	if len(g2.Nodes) >= len(g1.Nodes) {
		t.Fatalf("no reduction: %d -> %d", len(g1.Nodes), len(g2.Nodes))
	}
}

// --- pipeline determinism / cap ---------------------------------------------

func TestReportDeterministicOrder(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	zero := g.Const(tensor.Scalar(0))
	a := g.Add("Add", nil, x.P(), zero.P())
	out := g.Add("Tanh", nil, a.P())
	g.Outputs = []graph.Port{out.P()}
	rep := mustRun(t, full(), g)
	want := passes.Names()
	if len(rep.Passes) != len(want) {
		t.Fatalf("report has %d passes, want %d", len(rep.Passes), len(want))
	}
	for i, p := range rep.Passes {
		if p.Pass != want[i] {
			t.Fatalf("report order %v, want %v", rep.Passes, want)
		}
	}
	if rep.CapHit {
		t.Fatal("tiny graph hit the round cap")
	}
	if rep.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestDisableAll(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	zero := g.Const(tensor.Scalar(0))
	a := g.Add("Add", nil, x.P(), zero.P())
	g.Outputs = []graph.Port{a.P()}
	before := len(g.Nodes)
	rep := mustRun(t, passes.New(passes.Options{Disable: map[string]bool{"all": true}}), g)
	if rep.Total() != 0 || len(g.Nodes) != before {
		t.Fatalf("disabled pipeline still rewrote: %+v", rep)
	}
}

// --- verifier ----------------------------------------------------------------

func TestVerifyCatchesBrokenGraphs(t *testing.T) {
	// Healthy graph passes.
	g := graph.New()
	x := g.Placeholder("x")
	y := g.Add("Tanh", nil, x.P())
	g.Outputs = []graph.Port{y.P()}
	if err := passes.Verify(g); err != nil {
		t.Fatalf("healthy graph rejected: %v", err)
	}
	// Dangling reference: output node not in Nodes.
	g2 := graph.New()
	x2 := g2.Placeholder("x")
	y2 := g2.Add("Tanh", nil, x2.P())
	g2.Nodes = g2.Nodes[:1] // drop y2 but keep it as output
	g2.Outputs = []graph.Port{y2.P()}
	if err := passes.Verify(g2); err == nil {
		t.Fatal("dangling output not caught")
	}
	// Port arity: referencing out 1 of a single-output node.
	g3 := graph.New()
	x3 := g3.Placeholder("x")
	y3 := g3.Add("Tanh", nil, graph.Port{Node: x3, Out: 1})
	g3.Outputs = []graph.Port{y3.P()}
	if err := passes.Verify(g3); err == nil {
		t.Fatal("port arity violation not caught")
	}
	// Cycle.
	g4 := graph.New()
	a := g4.Add("Tanh", nil)
	b := g4.Add("Tanh", nil, a.P())
	a.Inputs = []graph.Port{b.P()}
	g4.Outputs = []graph.Port{b.P()}
	if err := passes.Verify(g4); err == nil {
		t.Fatal("cycle not caught")
	}
}

// --- elementwise fusion -------------------------------------------------------

func TestFuseElementwiseChain(t *testing.T) {
	rng := tensor.NewRNG(11)
	xv := rng.Randn(4, 5)
	yv := rng.Randn(4, 5)
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		y := g.Placeholder("y")
		r := g.Add("ReLU", nil, x.P())
		n := g.Add("Neg", nil, r.P())
		a := g.Add("Add", nil, n.P(), y.P())
		s := g.Add("ScaleByScalar", nil, a.P(), g.Const(tensor.Scalar(0.5)).P())
		g.Outputs = []graph.Port{s.P()}
		return g
	}
	g1, g2 := build(), build()
	rep := mustRun(t, only("fuse", "dce"), g2).Map()
	if rep["fuse"] != 3 {
		t.Fatalf("fuse=%d, want 3 (ReLU+Neg+Add+ScaleByScalar collapses 3 nodes)", rep["fuse"])
	}
	if got := countOp(g2, "Fused"); got != 1 {
		t.Fatalf("Fused nodes: %d", got)
	}
	// The chain ops must be gone after the DCE sweep.
	for _, op := range []string{"ReLU", "Neg", "Add", "ScaleByScalar"} {
		if countOp(g2, op) != 0 {
			t.Fatalf("%s survived fusion+dce", op)
		}
	}
	// What fusion is for: at least 15% fewer nodes to dispatch.
	if cut := 1 - float64(g2.NumNodes())/float64(g1.NumNodes()); cut < 0.15 {
		t.Fatalf("fusion cut %d nodes to %d (%.2f), want >= 0.15", g1.NumNodes(), g2.NumNodes(), cut)
	}
	var fused *graph.Node
	for _, n := range g2.Nodes {
		if n.Op == "Fused" {
			fused = n
		}
	}
	if label := fused.StrAttr("label"); label != "Fused[ReLU+Neg+Add+ScaleByScalar]" {
		t.Fatalf("label %q", label)
	}
	feeds := map[string]graph.Val{"x": xv, "y": yv}
	r1 := run(t, g1, feeds, nil)[0].(*tensor.Tensor)
	r2 := run(t, g2, feeds, nil)[0].(*tensor.Tensor)
	if !tensor.Equal(r1, r2) {
		t.Fatal("fused result differs from unfused")
	}
	// And again with the memory plan on (pool-backed replay).
	r3 := run(t, g2, feeds, tensor.NewPool())[0].(*tensor.Tensor)
	if !tensor.Equal(r1, r3) {
		t.Fatal("fused result differs under memory plan")
	}
}

func TestFuseRespectsMultipleConsumers(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	r := g.Add("ReLU", nil, x.P())
	a := g.Add("Neg", nil, r.P())
	b := g.Add("Exp", nil, r.P()) // second consumer of r: r must survive
	out := g.Add("Add", nil, a.P(), b.P())
	g.Outputs = []graph.Port{out.P()}
	mustRun(t, only("fuse", "dce"), g)
	if countOp(g, "ReLU") != 1 {
		t.Fatal("multi-consumer node was fused away")
	}
}

func TestFuseRespectsOutputs(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	r := g.Add("ReLU", nil, x.P())
	n := g.Add("Neg", nil, r.P())
	g.Outputs = []graph.Port{r.P(), n.P()} // r escapes as a graph output
	mustRun(t, only("fuse", "dce"), g)
	if countOp(g, "ReLU") != 1 {
		t.Fatal("graph output was fused away")
	}
}

func TestFuseGradChain(t *testing.T) {
	// Backward-style chain: ReLUGrad with the chain on the gradient operand,
	// then ScaleByScalar by a scalar tensor.
	rng := tensor.NewRNG(13)
	xv := rng.Randn(3, 7)
	gv := rng.Randn(3, 7)
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		gr := g.Placeholder("g")
		rg := g.Add("ReLUGrad", nil, x.P(), gr.P())
		sc := g.Const(tensor.Scalar(0.25))
		out := g.Add("ScaleByScalar", nil, rg.P(), sc.P())
		g.Outputs = []graph.Port{out.P()}
		return g
	}
	g1, g2 := build(), build()
	rep := mustRun(t, only("fuse", "dce"), g2).Map()
	if rep["fuse"] != 1 {
		t.Fatalf("fuse=%d", rep["fuse"])
	}
	feeds := map[string]graph.Val{"x": xv, "g": gv}
	r1 := run(t, g1, feeds, nil)[0].(*tensor.Tensor)
	r2 := run(t, g2, feeds, tensor.NewPool())[0].(*tensor.Tensor)
	if !tensor.Equal(r1, r2) {
		t.Fatal("fused grad chain differs")
	}
}

// --- im2col extraction --------------------------------------------------------

func convPair(stride, pad int) (*graph.Graph, map[string]graph.Val) {
	rng := tensor.NewRNG(17)
	xv := rng.Randn(2, 3, 8, 8)
	wv := rng.Randn(4, 3, 3, 3)
	_, _, oh, ow := tensor.Conv2DShape(xv.Shape(), wv.Shape(), stride, pad)
	gv := rng.Randn(2, 4, oh, ow)
	g := graph.New()
	x := g.Placeholder("x")
	w := g.Placeholder("w")
	gout := g.Placeholder("gout")
	attrs := map[string]graph.Val{"stride": stride, "pad": pad}
	fwd := g.Add("Conv2D", attrs, x.P(), w.P())
	gw := g.Add("Conv2DGradFilter", map[string]graph.Val{"stride": stride, "pad": pad}, x.P(), w.P(), gout.P())
	g.Outputs = []graph.Port{fwd.P(), gw.P()}
	return g, map[string]graph.Val{"x": xv, "w": wv, "gout": gv}
}

func TestIm2ColSharesUnroll(t *testing.T) {
	for _, c := range []struct{ stride, pad int }{{1, 1}, {1, 0}, {2, 1}} {
		g1, feeds := convPair(c.stride, c.pad)
		g2, _ := convPair(c.stride, c.pad)
		rep := mustRun(t, only("im2col", "dce"), g2).Map()
		if rep["im2col"] != 2 {
			t.Fatalf("stride=%d pad=%d: im2col=%d, want 2", c.stride, c.pad, rep["im2col"])
		}
		if countOp(g2, "Im2Col") != 1 || countOp(g2, "Conv2D") != 0 || countOp(g2, "Conv2DGradFilter") != 0 {
			t.Fatalf("stride=%d pad=%d: extraction incomplete: %v", c.stride, c.pad, g2.CountOps())
		}
		r1 := run(t, g1, feeds, nil)
		for _, pool := range []*tensor.Pool{nil, tensor.NewPool()} {
			r2 := run(t, g2, feeds, pool)
			for i := range r1 {
				a, b := r1[i].(*tensor.Tensor), r2[i].(*tensor.Tensor)
				if !tensor.Equal(a, b) {
					t.Fatalf("stride=%d pad=%d: output %d differs after extraction", c.stride, c.pad, i)
				}
			}
		}
	}
}

func TestIm2ColSkipsLoneConv(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	w := g.Placeholder("w")
	fwd := g.Add("Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, x.P(), w.P())
	g.Outputs = []graph.Port{fwd.P()}
	rep := mustRun(t, only("im2col"), g).Map()
	if rep["im2col"] != 0 || countOp(g, "Conv2D") != 1 {
		t.Fatal("lone Conv2D should not be split")
	}
}

func TestIm2ColKeysOnGeometry(t *testing.T) {
	// Same x/w but different stride: must NOT share an unroll.
	g := graph.New()
	x := g.Placeholder("x")
	w := g.Placeholder("w")
	a := g.Add("Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, x.P(), w.P())
	b := g.Add("Conv2D", map[string]graph.Val{"stride": 2, "pad": 1}, x.P(), w.P())
	g.Outputs = []graph.Port{a.P(), b.P()}
	rep := mustRun(t, only("im2col"), g).Map()
	if rep["im2col"] != 0 {
		t.Fatalf("different geometry merged: %v", rep)
	}
}

// --- property: pipeline output is bit-identical -------------------------------

// buildCases returns named graph builders covering odd shapes, control flow
// and the aliasing corner; each returns a fresh graph plus feeds.
func buildCases() map[string]func() (*graph.Graph, map[string]graph.Val) {
	return map[string]func() (*graph.Graph, map[string]graph.Val){
		"odd-shapes-broadcast": func() (*graph.Graph, map[string]graph.Val) {
			rng := tensor.NewRNG(23)
			xv := rng.Randn(3, 1, 7)
			yv := rng.Randn(5, 1)
			g := graph.New()
			x := g.Placeholder("x")
			y := g.Placeholder("y")
			one := g.Const(tensor.Scalar(1))
			m := g.Add("Mul", nil, x.P(), one.P())
			s := g.Add("Add", nil, m.P(), y.P()) // broadcast [3,1,7]+[5,1]
			tn := g.Add("Tanh", nil, s.P())
			n := g.Add("Neg", nil, tn.P())
			g.Outputs = []graph.Port{n.P()}
			return g, map[string]graph.Val{"x": xv, "y": yv}
		},
		"switch-merge": func() (*graph.Graph, map[string]graph.Val) {
			rng := tensor.NewRNG(29)
			xv := rng.Randn(4, 4)
			g := graph.New()
			x := g.Placeholder("x")
			pred := g.ConstVal(true)
			sw := g.Add("Switch", nil, x.P(), pred.P())
			two := g.Const(tensor.Scalar(2))
			zero := g.Const(tensor.Scalar(0))
			tside := g.Add("Mul", nil, sw.Out(0), two.P())
			tside2 := g.Add("Add", nil, tside.P(), zero.P()) // arith target on live side
			fside := g.Add("Add", nil, sw.Out(1), two.P())
			m := g.Add("Merge", nil, tside2.P(), fside.P())
			out := g.Add("Tanh", nil, m.P())
			g.Outputs = []graph.Port{out.P()}
			return g, map[string]graph.Val{"x": xv}
		},
		"crossentropygrad-aliased": func() (*graph.Graph, map[string]graph.Val) {
			rng := tensor.NewRNG(31)
			xv := rng.Randn(6, 9)
			g := graph.New()
			x := g.Placeholder("x")
			sm := g.Add("Softmax", nil, x.P())
			// f(y, y): both inputs are the same port — the in-place planner
			// must refuse to overwrite input 0 while input 1 still reads it.
			ce := g.Add("CrossEntropyGrad", nil, sm.P(), sm.P())
			sc := g.Const(tensor.Scalar(0.5))
			out := g.Add("ScaleByScalar", nil, ce.P(), sc.P())
			g.Outputs = []graph.Port{out.P()}
			return g, map[string]graph.Val{"x": xv}
		},
		"grad-style-chain": func() (*graph.Graph, map[string]graph.Val) {
			rng := tensor.NewRNG(37)
			xv := rng.Randn(5, 3)
			gv := rng.Randn(5, 3)
			g := graph.New()
			x := g.Placeholder("x")
			gr := g.Placeholder("g")
			sg := g.Add("Sigmoid", nil, x.P())
			sgr := g.Add("SigmoidGradFromOut", nil, sg.P(), gr.P())
			ml := g.Add("Mul", nil, sgr.P(), x.P())
			sb := g.Add("Sub", nil, ml.P(), gr.P())
			g.Outputs = []graph.Port{sb.P()}
			return g, map[string]graph.Val{"x": xv, "g": gv}
		},
	}
}

func TestPipelineBitIdentical(t *testing.T) {
	for name, build := range buildCases() {
		t.Run(name, func(t *testing.T) {
			g1, feeds := build()
			g2, _ := build()
			mustRun(t, full(), g2)
			want := run(t, g1, feeds, nil)
			for _, pool := range []*tensor.Pool{nil, tensor.NewPool()} {
				got := run(t, g2, feeds, pool)
				if len(got) != len(want) {
					t.Fatalf("output arity %d vs %d", len(got), len(want))
				}
				for i := range want {
					a, err1 := graph.AsTensor(want[i])
					b, err2 := graph.AsTensor(got[i])
					if err1 != nil || err2 != nil {
						t.Fatalf("non-tensor outputs: %v %v", err1, err2)
					}
					if !tensor.Equal(a, b) {
						t.Fatalf("output %d not bit-identical (plan=%v)", i, pool != nil)
					}
				}
			}
		})
	}
}

// TestPipelineRepeatedRunsStable: replaying an optimized graph many times
// under the memory plan (pool reuse, in-place rebinds) must keep producing
// the same bits as the first run.
func TestPipelineRepeatedRunsStable(t *testing.T) {
	for name, build := range buildCases() {
		t.Run(name, func(t *testing.T) {
			g, feeds := build()
			mustRun(t, full(), g)
			pool := tensor.NewPool()
			first := run(t, g, feeds, pool)
			for iter := 0; iter < 10; iter++ {
				again := run(t, g, feeds, pool)
				for i := range first {
					a, _ := graph.AsTensor(first[i])
					b, _ := graph.AsTensor(again[i])
					if !tensor.Equal(a, b) {
						t.Fatalf("iter %d: output %d drifted", iter, i)
					}
				}
			}
		})
	}
}

// --- report label sanity ------------------------------------------------------

func TestFusedLabelListsChainOps(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	a := g.Add("Sigmoid", nil, x.P())
	b := g.Add("Tanh", nil, a.P())
	g.Outputs = []graph.Port{b.P()}
	mustRun(t, only("fuse", "dce"), g)
	for _, n := range g.Nodes {
		if n.Op == "Fused" {
			if !strings.Contains(n.StrAttr("label"), "Sigmoid") || !strings.Contains(n.StrAttr("label"), "Tanh") {
				t.Fatalf("label %q", n.StrAttr("label"))
			}
			return
		}
	}
	t.Fatal("no Fused node")
}
