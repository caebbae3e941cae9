package graph_test

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// staleAlloc rents every buffer from a pool after leaving it full of NaNs at
// another shape: what a pooled kernel gets once the buffers have been used
// by other ops. A kernel must overwrite (or zero) all of it.
type staleAlloc struct{ p *tensor.Pool }

func (a staleAlloc) Get(shape ...int) *tensor.Tensor {
	n := tensor.NumElements(shape)
	other := []int{1, n, 1}
	if tensor.ShapeEq(other, shape) {
		other = []int{n}
	}
	t := a.p.Get(other...)
	for i := range t.Data() {
		t.Data()[i] = math.NaN()
	}
	a.p.Put(t)
	return a.p.Get(shape...)
}

func (a staleAlloc) GetZeroed(shape ...int) *tensor.Tensor {
	t := a.Get(shape...)
	clear(t.Data())
	return t
}

func (a staleAlloc) Put(t *tensor.Tensor) { a.p.Put(t) }

// emitted is one op a gradient rule emitted, with its inputs as values.
type emitted struct {
	op    string
	attrs map[string]graph.Val
	in    []graph.Val
}

// recorder is an Emitter that evaluates every emitted op on the heap and
// keeps it, so the ops a rule emits can be checked with the inputs they
// really get.
type recorder struct {
	t     *testing.T
	calls []emitted
}

func (r *recorder) Emit(op string, attrs map[string]graph.Val, args graph.Args) graph.Val {
	in := args.AppendTo(nil)
	r.calls = append(r.calls, emitted{op, attrs, in})
	out, err := graph.Lookup(op).Eval(&graph.Node{Op: op, Attrs: attrs}, in)
	if err != nil {
		r.t.Fatalf("%s: %v", op, err)
	}
	return out
}

// TestIntoKernelsOverwriteStaleBuffers runs every Into kernel on the inputs
// of the per-op gradient cases — each differentiable op, and each op its
// gradient rule emits on them — through a pool of stale NaN-filled buffers,
// and requires the bits the heap allocator gives. The tape's backprop rents
// its gradient ops' outputs from a pool, so they see such buffers too.
func TestIntoKernelsOverwriteStaleBuffers(t *testing.T) {
	rng := tensor.NewRNG(13)
	r := func(shape ...int) *tensor.Tensor { return rng.Randn(shape...) }
	var cases []emitted
	for _, c := range gradCases() {
		def := graph.Lookup(c.op)
		n := &graph.Node{Op: c.op, Attrs: c.attrs}
		out, err := def.Eval(n, c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		cases = append(cases, emitted{c.op, c.attrs, c.in})
		rec := &recorder{t: t}
		gout := rng.Randn(out.(*tensor.Tensor).Shape()...)
		if err := def.Grad(rec, n, c.in, out, gout, func(int, graph.Val) {}); err != nil {
			t.Fatalf("%s rule: %v", c.op, err)
		}
		cases = append(cases, rec.calls...)
	}
	// The ops only the passes emit.
	conv := map[string]graph.Val{"stride": 1, "pad": 1}
	x, w := r(2, 2, 5, 5), r(3, 2, 3, 3)
	col, err := graph.Lookup("Im2Col").Eval(&graph.Node{Op: "Im2Col", Attrs: conv}, []graph.Val{x, w})
	if err != nil {
		t.Fatal(err)
	}
	prog := []tensor.FusedStep{{Code: tensor.FusedTanh, Arg: -1}, {Code: tensor.FusedMul, Arg: 0}}
	cases = append(cases,
		emitted{"Im2Col", conv, []graph.Val{x, w}},
		emitted{"Conv2DFromCol", conv, []graph.Val{col, w, x}},
		emitted{"Conv2DGradFilterFromCol", conv, []graph.Val{col, r(2, 3, 5, 5), w}},
		emitted{"Fused", map[string]graph.Val{"prog": prog}, []graph.Val{r(2, 3), r(2, 3)}},
		emitted{"Fused", map[string]graph.Val{"prog": prog}, []graph.Val{r(2, 3), r(3)}},
	)

	covered := map[string]bool{}
	stale := staleAlloc{tensor.NewPool()}
	for _, c := range cases {
		def := graph.Lookup(c.op)
		if def.Into == nil {
			continue
		}
		covered[c.op] = true
		n := &graph.Node{Op: c.op, Attrs: c.attrs}
		want, err := def.Into(n, c.in, tensor.HeapAlloc)
		if err != nil {
			t.Fatalf("%s (heap): %v", c.op, err)
		}
		got, err := def.Into(n, c.in, stale)
		if err != nil {
			t.Fatalf("%s (stale pool): %v", c.op, err)
		}
		if !sameBits(got.(*tensor.Tensor), want.(*tensor.Tensor)) {
			t.Errorf("%s on %v: stale buffers give %v, the heap %v", c.op, c.in, got, want)
		}
	}
	for _, name := range graph.OpNames() {
		if graph.Lookup(name).Into != nil && !covered[name] {
			t.Errorf("op %s has an Into kernel but no case here", name)
		}
	}
}

// sameBits reports bit-for-bit equality (NaNs included).
func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
