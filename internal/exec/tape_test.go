package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// TestWarmTapeStepAllocations: once the pool holds a step's working set, a
// tape-mode step of a recursive program — the forward run and backprop —
// allocates one tape node per record plus a constant. The executor writes
// every node's outputs into its reused frames, the forward values and the
// gradients are rented from the pool, and emitting a gradient op allocates
// nothing.
func TestWarmTapeStepAllocations(t *testing.T) {
	const depth = 12 // records: one Mul per level
	store := vars.NewStore()
	store.Set("x", tensor.FromSlice([]float64{0.9, 1.1}))
	g, _ := powGraph(depth)
	tape := autodiff.NewPooledTape(tensor.NewPool())
	opts := Options{Store: store, Tape: tape, Arena: NewArena()}
	step := func() {
		tape.Reset()
		res, err := Run(g, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		tape.GradientStream(res.Outputs[0].(*autodiff.Node), nil)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if got, limit := testing.AllocsPerRun(20, step), float64(depth+16); got > limit {
		t.Errorf("tape step of %d records: %v allocations, want at most %v (one per record, plus a constant)", depth, got, limit)
	}
}

// poisonIdle overwrites every idle buffer of p (up to 1<<12 elements) with
// NaN, draining them through Get and putting them back.
func poisonIdle(p *tensor.Pool) {
	var idle []*tensor.Tensor
	for class := 64; class <= 1<<12; class <<= 1 {
		for {
			hits := p.Stats().Hits
			x := p.Get(class)
			if p.Stats().Hits == hits {
				p.Disown(x)
				break
			}
			idle = append(idle, x)
		}
	}
	for _, x := range idle {
		tensor.FillInto(x, math.NaN())
		p.Put(x)
	}
}

// TestTapeResetKeepsEscapes: Reset returns a tape step's forward rentals to
// the pool, except the ones that escape — the outputs of a successful run,
// the actual value of an assumption that failed deep inside a recursion —
// which stay intact while the pool's buffers are poisoned and rented again,
// and leave the pool's in-use count.
func TestTapeResetKeepsEscapes(t *testing.T) {
	store := vars.NewStore()
	store.Set("x", tensor.FromSlice([]float64{1.5}))
	pool := tensor.NewPool()
	tape := autodiff.NewPooledTape(pool)
	opts := Options{Store: store, Tape: tape, Arena: NewArena()}

	// f(x, n) = x * f(x, n-1) asserts that each product has shape [5]: the
	// innermost product, x*x, fails it.
	g, fg := powGraph(3)
	var prod *graph.Node
	for _, nd := range fg.Nodes {
		if nd.Op == "Mul" {
			prod = nd
		}
	}
	fg.Add("Assert", map[string]graph.Val{"kind": "shape", "shape": []int{5}, "desc": "product"}, prod.P())
	_, err := Run(g, nil, opts)
	var ae *AssertError
	if !errors.As(err, &ae) {
		t.Fatalf("want an assertion failure, got %v", err)
	}
	actual, ok := ae.Actual.(*tensor.Tensor)
	if !ok || actual.Size() != 1 || actual.Item() != 2.25 {
		t.Fatalf("actual %v, want x*x = 2.25", ae.Actual)
	}
	tape.Reset()
	if got := pool.Stats().InUseElems; got != 0 {
		t.Fatalf("%d elements still count as rented after a failed step's Reset", got)
	}

	ok3, _ := powGraph(3)
	var outs []*autodiff.Node
	for step := 0; step < 3; step++ {
		poisonIdle(pool)
		res, err := Run(ok3, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.Outputs[0].(*autodiff.Node))
		tape.GradientStream(outs[step], nil)
		tape.Reset()
		if got := pool.Stats().InUseElems; got != 0 {
			t.Fatalf("step %d: %d elements still count as rented after Reset", step, got)
		}
	}
	if actual.Size() != 1 || actual.Item() != 2.25 {
		t.Errorf("the failed assumption's actual value became %v after the pool was reused, want 2.25", actual)
	}
	for step, out := range outs {
		if out.Value.Size() != 1 || out.Value.Item() != math.Pow(1.5, 4) {
			t.Errorf("step %d: output became %v after the pool was reused, want %v", step, out.Value, math.Pow(1.5, 4))
		}
	}
}

// TestKernelPanicInsideInvokeNamesNode: a kernel that panics inside an
// Invoke'd subgraph under a tape fails the run with an error naming the
// subgraph's node and op — the one recover of that subgraph's run catches
// it — and every arena frame is back afterwards.
func TestKernelPanicInsideInvokeNamesNode(t *testing.T) {
	fg := graph.New()
	// Concat of a rank-1 and a rank-2 tensor: the shape check panics.
	bad := fg.Add("Concat", map[string]graph.Val{"axis": 0}, fg.Placeholder("arg0").P(), fg.Placeholder("arg1").P())
	fg.Outputs = []graph.Port{bad.P()}
	g := graph.New()
	call := g.Add("Invoke", map[string]graph.Val{"func": fg},
		g.Const(tensor.FromSlice([]float64{1, 2})).P(), g.Const(tensor.Zeros(2, 2)).P())
	g.Outputs = []graph.Port{call.P()}
	arena := NewArena()
	_, err := Run(g, nil, Options{Tape: autodiff.NewTape(), Arena: arena})
	if want := fmt.Sprintf("node %d (Concat)", bad.ID); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one naming %s", err, want)
	}
	for gr, ga := range arena.per {
		if !ga.idle() {
			t.Errorf("graph with %d nodes: a frame is still in use after the panic", len(gr.Nodes))
		}
	}
}
