package autodiff

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// pooledStep records one training step onto tp: every kind of gradient
// traffic the tape accounts for — a node read twice by one op and nowhere
// else (its second contribution replaces the first within the rule), fan-out
// summed in place, broadcasting, Concat and Gather, a variable the loss does
// not reach, and a node left over from an earlier tape — on ops whose
// gradient ops all have Into kernels, so every gradient handed out is
// rented.
func pooledStep(tp *Tape, stale *Node) *Node {
	rng := tensor.NewRNG(21)
	w := tp.Watch("w", rng.Randn(3, 3))
	b := tp.Watch("b", rng.Randn(3))
	emb := tp.Watch("emb", rng.Randn(5, 3))
	tp.Watch("unused", rng.Randn(2))
	x := Const(rng.Randn(2, 3))
	h := op(tp, "Tanh", nil, op(tp, "Add", nil, op(tp, "MatMul", nil, x, w), b))
	sq := op(tp, "Mul", nil, h, h)
	e := op(tp, "Gather", nil, emb, []int{4, 0, 4})
	c := op(tp, "Concat", map[string]graph.Val{"axis": 0}, sq, e, h)
	y := op(tp, "Add", nil, op(tp, "Mul", nil, c, c), op(tp, "MatMul", nil, c, w))
	if stale != nil {
		y = op(tp, "Add", nil, y, stale)
	}
	z := op(tp, "Tanh", nil, e)
	return op(tp, "Add", nil, op(tp, "Sum", nil, y), op(tp, "Sum", nil, op(tp, "Mul", nil, z, z)))
}

// TestGradientStreamReturnsEveryRentalButTheGradients: after backprop the
// only buffers not returned to the tape's pool are the gradients handed
// out, and those have left the pool's in-use count. A leak leaves more; a
// buffer returned twice leaves fewer.
func TestGradientStreamReturnsEveryRentalButTheGradients(t *testing.T) {
	pool := tensor.NewPool()
	prev := NewTape()
	stale := op(prev, "Neg", nil, prev.Watch("s", tensor.Zeros(7, 3)))

	tp := NewPooledTape(pool)
	for step := 0; step < 2; step++ {
		tp.Reset()
		before := pool.Stats()
		loss := pooledStep(tp, stale)
		handed := map[*tensor.Tensor]bool{}
		out := tp.GradientStream(loss, func(name string, g *tensor.Tensor) { handed[g] = true })
		if len(out) != 4 || len(handed) == 0 {
			t.Fatalf("step %d: %d gradients returned, %d distinct emitted", step, len(out), len(handed))
		}
		after := pool.Stats()
		if got := after.InUseElems - before.InUseElems; got != 0 {
			t.Errorf("step %d: %d elements still count as rented, want 0", step, got)
		}
		if got := (after.Gets - after.Puts) - (before.Gets - before.Puts); got != int64(len(handed)) {
			t.Errorf("step %d: %d buffers still rented, want the %d gradients handed out", step, got, len(handed))
		}
	}
}

// TestHandedOutGradientsOutliveTheTape: the next step on the same tape and
// pool never writes a gradient the last one handed out.
func TestHandedOutGradientsOutliveTheTape(t *testing.T) {
	tp := NewPooledTape(tensor.NewPool())
	first := tp.Gradient(pooledStep(tp, nil))
	kept := map[string]*tensor.Tensor{}
	for name, g := range first {
		kept[name] = g.Clone()
	}
	tp.Reset()
	tp.Gradient(pooledStep(tp, nil))
	for name, g := range first {
		if !tensor.Equal(g, kept[name]) {
			t.Errorf("%s: gradient changed to %v after the next step, was %v", name, g, kept[name])
		}
	}
}

// TestReusedTapeBackwardAllocatesNoTensors: on a reused tape, backprop over
// a recursive program rents every gradient buffer from the pool, no rule
// builds an attrs map, and Emit takes its inputs by value, so an emitted op
// allocates nothing. What is left is a constant: the returned map and the
// emission bookkeeping.
func TestReusedTapeBackwardAllocatesNoTensors(t *testing.T) {
	const depth = 6
	rng := tensor.NewRNG(3)
	wv, leaf := rng.Randn(4), rng.Randn(4)
	tp := NewTape()
	var tree func(d int) *Node
	tree = func(d int) *Node {
		if d == 0 {
			return op(tp, "Mul", nil, Const(leaf), tp.Watch("w", wv))
		}
		return op(tp, "Tanh", nil, op(tp, "Add", nil, tree(d-1), tree(d-1)))
	}
	var loss *Node
	for step := 0; step < 2; step++ {
		tp.Reset()
		loss = op(tp, "Sum", nil, tree(depth))
		tp.Gradient(loss)
	}
	// Mul's rule emits 4 ops, Add's 2, Tanh's 1, Sum's 1.
	leaves := 1 << depth
	emits := 4*leaves + 3*(leaves-1) + 1
	allocs := testing.AllocsPerRun(10, func() { tp.Gradient(loss) })
	if limit := 8.0; allocs > limit {
		t.Errorf("backprop over %d records (%d emitted ops) made %v allocations, want at most %v",
			len(tp.ops), emits, allocs, limit)
	}
}
