package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randT fills a tensor with non-zero values in [-1, 1); avoiding exact zeros
// keeps the naive kernels' zero-skip fast path from introducing ±0
// accumulator differences, so blocked-vs-naive comparisons can be bit-exact.
func randT(rng *rand.Rand, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.data {
		v := rng.Float64()*2 - 1
		if v == 0 {
			v = 0.5
		}
		t.data[i] = v
	}
	return t
}

// MatMulNaive is the scalar reference kernel ([m,k] x [k,n] -> [m,n], ikj
// loop order), kept as the oracle that pins MatMulInto bit-for-bit. Note its
// zero-skip makes it non-IEEE for non-finite operands: it yields a finite
// result where 0*±Inf would correctly contribute NaN; MatMulInto follows
// IEEE.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := matmulDims(a, b)
	out := Zeros(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// TestMatMulBlockedMatchesNaive pins the row-kernel matmul (serial and
// split across kernel threads) to the original scalar-loop kernel
// bit-for-bit across odd, non-square shapes: every column-chunk remainder
// of the row kernel (n = 1, 2, 3, 5, 9, 17, 33), an empty inner dimension,
// and Inf/NaN operands. a never holds a zero there, so the naive kernel's
// zero-skip never fires and it follows IEEE too.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {5, 1, 9}, {3, 129, 2}, {17, 31, 13},
		{8, 4, 32}, {33, 130, 7}, {2, 300, 5}, {64, 64, 64}, {65, 257, 19},
		{3, 0, 5}, {1, 0, 1},
	}
	for _, n := range []int{1, 2, 3, 5, 9, 17, 33} {
		shapes = append(shapes, [3]int{4, 7, n}, [3]int{70, 130, n})
	}
	for _, nonFinite := range []bool{false, true} {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randT(rng, m, k)
			b := randT(rng, k, n)
			if nonFinite {
				for i := range a.data {
					if rng.Intn(11) == 0 {
						a.data[i] = specials[rng.Intn(3)] // ±Inf or NaN, never zero
					}
				}
				for i := range b.data {
					if rng.Intn(11) == 0 {
						b.data[i] = specials[rng.Intn(len(specials))]
					}
				}
			}
			want := MatMulNaive(a, b)
			for _, workers := range []int{1, 4} {
				prev := SetKernelParallelism(workers)
				got := MatMulInto(Full(7, m, n), a, b)
				SetKernelParallelism(prev)
				if i := mismatch(got.data, want.data); i >= 0 {
					t.Fatalf("MatMulInto(%dx%dx%d, workers=%d, non-finite %v) differs from naive at %d: %v, want %v",
						m, k, n, workers, nonFinite, i, got.data[i], want.data[i])
				}
			}
			if i := mismatch(MatMul(a, b).data, want.data); i >= 0 {
				t.Fatalf("MatMul wrapper (%dx%dx%d, non-finite %v) differs from naive at %d", m, k, n, nonFinite, i)
			}
		}
	}
}

// TestReLUGradIntoMatchesBranch pins the mask-select ReLU gradient to the
// branch it replaced, bit for bit: g where x > 0, else +0, for NaN and
// signed-zero x and g too.
func TestReLUGradIntoMatchesBranch(t *testing.T) {
	vals := append([]float64{-2, -1e-300, 1e-300, 3}, specials...)
	var xs, gs []float64
	for _, x := range vals {
		for _, g := range vals {
			xs, gs = append(xs, x), append(gs, g)
		}
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			want[i] = gs[i]
		}
	}
	got := ReLUGradInto(Full(5, len(xs)), FromSlice(xs), FromSlice(gs))
	for i := range want {
		if math.Float64bits(got.data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x=%v g=%v: got %v (%#x), want %v (%#x)", xs[i], gs[i],
				got.data[i], math.Float64bits(got.data[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConv2DIntoMatchesNaive covers stride/padding corner cases, including
// kernels larger than the stride and pad that creates all-zero windows.
func TestConv2DIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, c, h, w, oc, kh, kw, stride, pad int }{
		{1, 1, 3, 3, 1, 1, 1, 1, 0},
		{2, 1, 8, 8, 4, 3, 3, 1, 1},
		{1, 3, 7, 5, 2, 3, 3, 2, 1},
		{2, 2, 9, 9, 3, 5, 5, 2, 2},
		{1, 4, 6, 11, 5, 3, 1, 1, 0},
		{3, 1, 5, 5, 2, 2, 2, 3, 0},
		{1, 2, 4, 4, 2, 3, 3, 1, 2},
	}
	for _, cse := range cases {
		name := fmt.Sprintf("%+v", cse)
		x := randT(rng, cse.n, cse.c, cse.h, cse.w)
		w := randT(rng, cse.oc, cse.c, cse.kh, cse.kw)
		want := naiveConv2D(x, w, cse.stride, cse.pad)
		pool := NewPool()
		got := Conv2DInto(pool.Get(want.Shape()...), x, w, cse.stride, cse.pad, pool)
		if !Equal(got, want) {
			t.Fatalf("Conv2DInto %s differs from naive conv", name)
		}
		// Gradient kernels: pooled vs heap must agree exactly with each
		// other and with themselves across scratch reuse (second run hits
		// the pool's free lists).
		gout := randT(rng, want.Shape()...)
		gin1 := Conv2DGradInputInto(Zeros(x.Shape()...), x, w, gout, cse.stride, cse.pad, nil)
		gin2 := Conv2DGradInputInto(pool.Get(x.Shape()...), x, w, gout, cse.stride, cse.pad, pool)
		if !Equal(gin1, gin2) {
			t.Fatalf("Conv2DGradInputInto %s: pooled differs from heap", name)
		}
		if !Equal(gin1, naiveConv2DGradInput(x, w, gout, cse.stride, cse.pad)) {
			t.Fatalf("Conv2DGradInputInto %s differs from the direct-loop oracle", name)
		}
		gw1 := Conv2DGradFilterInto(Zeros(w.Shape()...), x, w, gout, cse.stride, cse.pad, nil)
		gw2 := Conv2DGradFilterInto(pool.Get(w.Shape()...), x, w, gout, cse.stride, cse.pad, pool)
		if !Equal(gw1, gw2) {
			t.Fatalf("Conv2DGradFilterInto %s: pooled differs from heap", name)
		}
		if !Equal(gw1, naiveConv2DGradFilter(x, w, gout, cse.stride, cse.pad)) {
			t.Fatalf("Conv2DGradFilterInto %s differs from the direct-loop oracle", name)
		}
	}
}

// TestElementwiseIntoMatchesAndAliases checks the Into elementwise kernels
// against their per-element expressions, including the in-place (dst
// aliases input) mode the executor's memory plan uses.
func TestElementwiseIntoMatchesAndAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := [][]int{{}, {1}, {7}, {3, 5}, {2, 3, 4}, {1, 65}}
	for _, sh := range shapes {
		a := randT(rng, sh...)
		b := randT(rng, sh...)
		checks := []struct {
			name string
			ref  func(x, y float64) float64
			into func(dst *Tensor) *Tensor
		}{
			{"Add", func(x, y float64) float64 { return x + y }, func(d *Tensor) *Tensor { return AddInto(d, a, b) }},
			{"Sub", func(x, y float64) float64 { return x - y }, func(d *Tensor) *Tensor { return SubInto(d, a, b) }},
			{"Mul", func(x, y float64) float64 { return x * y }, func(d *Tensor) *Tensor { return MulInto(d, a, b) }},
			{"Div", func(x, y float64) float64 { return x / y }, func(d *Tensor) *Tensor { return DivInto(d, a, b) }},
			{"Maximum", math.Max, func(d *Tensor) *Tensor { return MaximumInto(d, a, b) }},
			{"ReLU", func(x, _ float64) float64 { return math.Max(x, 0) }, func(d *Tensor) *Tensor { return ReLUInto(d, a) }},
			{"Neg", func(x, _ float64) float64 { return -x }, func(d *Tensor) *Tensor { return NegInto(d, a) }},
			{"Exp", func(x, _ float64) float64 { return math.Exp(x) }, func(d *Tensor) *Tensor { return ExpInto(d, a) }},
			{"Tanh", func(x, _ float64) float64 { return math.Tanh(x) }, func(d *Tensor) *Tensor { return TanhInto(d, a) }},
			{"Sigmoid", func(x, _ float64) float64 { return 1 / (1 + math.Exp(-x)) }, func(d *Tensor) *Tensor { return SigmoidInto(d, a) }},
			{"ReLUGrad", func(x, y float64) float64 {
				if x > 0 {
					return y
				}
				return 0
			}, func(d *Tensor) *Tensor { return ReLUGradInto(d, a, b) }},
		}
		for _, c := range checks {
			want := Zeros(sh...)
			for i := range want.data {
				want.data[i] = c.ref(a.data[i], b.data[i])
			}
			if got := c.into(Zeros(sh...)); !Equal(got, want) {
				t.Fatalf("%sInto%v differs from its expression", c.name, sh)
			}
			// In-place: dst aliases the first input.
			ac := a.Clone()
			aSave := a
			a = ac
			got := c.into(ac)
			a = aSave
			if got != ac || !Equal(got, want) {
				t.Fatalf("%sInto%v in-place differs from its expression", c.name, sh)
			}
		}
	}
}

// TestBroadcastZipInto checks the broadcast path of ZipInto (through
// AddInto) against indexing each operand through its own shape.
func TestBroadcastZipInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pairs := [][2][]int{
		{{3, 4}, {4}}, {{2, 1, 5}, {3, 5}}, {{4, 1}, {1, 6}}, {{5}, {}},
	}
	// at reads t at the trailing-aligned index idx, a size-1 dim reading 0.
	at := func(t *Tensor, idx []int) float64 {
		off := 0
		for d, n := range t.shape {
			if i := idx[len(idx)-len(t.shape)+d]; n > 1 {
				off = off*n + i
			}
		}
		return t.data[off]
	}
	for _, p := range pairs {
		a, b := randT(rng, p[0]...), randT(rng, p[1]...)
		shape, err := BroadcastShapes(a.shape, b.shape)
		if err != nil {
			t.Fatal(err)
		}
		got := AddInto(Zeros(shape...), a, b)
		idx := make([]int, len(shape))
		for i := range got.data {
			if want := at(a, idx) + at(b, idx); got.data[i] != want {
				t.Fatalf("broadcast AddInto %v+%v at %v: %v, want %v", p[0], p[1], idx, got.data[i], want)
			}
			for d := len(idx) - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < shape[d] {
					break
				}
				idx[d] = 0
			}
		}
	}
}

// TestSoftmaxLossInto checks the softmax/loss Into kernels, including
// aliased destinations.
func TestSoftmaxLossInto(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	logits := randT(rng, 6, 5)
	labels := OneHot([]int{0, 2, 4, 1, 3, 2}, 5)
	sm := SoftmaxInto(Zeros(6, 5), logits)
	if got := SoftmaxInto(logits.Clone(), logits.Clone()); !Equal(got, sm) {
		t.Fatal("SoftmaxInto differs") // fresh dst, fresh src
	}
	lc := logits.Clone()
	if got := SoftmaxInto(lc, lc); !Equal(got, sm) {
		t.Fatal("SoftmaxInto in-place differs")
	}
	lsm := LogSoftmaxInto(Zeros(6, 5), logits)
	lc = logits.Clone()
	if got := LogSoftmaxInto(lc, lc); !Equal(got, lsm) {
		t.Fatal("LogSoftmaxInto in-place differs")
	}
	// Pooled scratch and the heap agree.
	pool := NewPool()
	if got := CrossEntropyInto(Scalar(0), logits, labels, pool); !Equal(got, CrossEntropyInto(Scalar(0), logits, labels, nil)) {
		t.Fatal("CrossEntropyInto differs")
	}
	lc = logits.Clone()
	if got := CrossEntropyGradInto(lc, lc, labels); !Equal(got, CrossEntropyGradInto(Zeros(6, 5), logits, labels)) {
		t.Fatal("CrossEntropyGradInto in-place differs")
	}
	pred, tgt := randT(rng, 4, 3), randT(rng, 4, 3)
	if got := MSEInto(Scalar(0), pred, tgt, pool); !Equal(got, MSEInto(Scalar(0), pred, tgt, nil)) {
		t.Fatal("MSEInto differs")
	}

	// A broadcast second operand: the loss kernels equal the composition of
	// primitive ops, may still write over their first operand, and return
	// their scratch.
	row := randT(rng, 5)
	nll := SumInto(Scalar(0), Mul(row, lsm)).Item()
	if got := CrossEntropyInto(Scalar(0), logits, row, pool); !AllClose(got, Scalar(-nll/6), 1e-12) {
		t.Fatalf("CrossEntropyInto broadcast: %v, want %v", got, -nll/6)
	}
	lc = logits.Clone()
	if got := CrossEntropyGradInto(lc, lc, row); !Equal(got, MulScalar(SubInto(Zeros(6, 5), sm, row), 1.0/6)) {
		t.Fatal("CrossEntropyGradInto broadcast in-place differs")
	}
	col := randT(rng, 4, 1)
	d := SubInto(Zeros(4, 5), col, row)
	mse := MeanInto(Scalar(0), Mul(d, d))
	if got := MSEInto(Scalar(0), col, row, pool); !AllClose(got, mse, 1e-12) {
		t.Fatalf("MSEInto broadcast: %v, want %v", got, mse)
	}
	if got := MSEGradInto(Zeros(4, 5), col, row, 0.5); !Equal(got, MulScalar(d, 2.0/20*0.5)) {
		t.Fatal("MSEGradInto broadcast differs")
	}
	if st := pool.Stats(); st.InUseElems != 0 {
		t.Fatalf("loss kernels leaked scratch: %+v", st)
	}
}

// TestPoolReuse checks the size-class free lists: a returned buffer serves
// the next compatible rental without allocating, shapes are rewritten, and
// stats add up.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 5)
	if got := p.Stats(); got.Gets != 1 || got.Hits != 0 {
		t.Fatalf("stats after first Get: %+v", got)
	}
	FillInto(a, 3)
	p.Put(a)
	b := p.Get(20) // same size class (<= 64)
	if got := p.Stats(); got.Hits != 1 {
		t.Fatalf("expected pool hit, stats %+v", got)
	}
	if !ShapeEq(b.Shape(), []int{20}) || b.Size() != 20 {
		t.Fatalf("reused tensor has shape %v size %d", b.Shape(), b.Size())
	}
	// Different class: no false sharing.
	big := p.Get(100, 100)
	if big.Size() != 10000 {
		t.Fatal("big rental wrong size")
	}
	p.Put(big)
	if c := p.Get(70); c == big {
		t.Fatal("small rental must not reuse a same-bin... different class buffer")
	}
	z := p.GetZeroed(4, 5)
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
	}
}

// TestPoolForeignBuffer: a non-pool tensor too small for any bin is dropped,
// never handed back out over-sliced.
func TestPoolForeignBuffer(t *testing.T) {
	p := NewPool()
	p.Put(FromSlice([]float64{1, 2, 3})) // cap 3 < minPoolClass: dropped
	got := p.Get(50)
	if got.Size() != 50 {
		t.Fatalf("Get(50) returned size %d", got.Size())
	}
	if s := p.Stats(); s.Hits != 0 {
		t.Fatalf("tiny foreign buffer must not join a bin: %+v", s)
	}
}

// TestShapeCheckedKernelsAllocateNothing: the kernels that check a shape they
// compute (the destination of a matmul, a transpose, a convolution, a
// pooling window, an im2col matrix) allocate nothing when the destination
// fits and scratch comes from a warm pool: the checked shape stays on the
// stack, and only a failing check formats it.
func TestShapeCheckedKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := NewPool()
	a, b := randT(rng, 3, 4), randT(rng, 4, 5)
	x, w := randT(rng, 2, 3, 6, 6), randT(rng, 4, 3, 3, 3)
	mm, tr := Zeros(3, 5), Zeros(4, 3)
	conv, convPad := Zeros(2, 4, 4, 4), Zeros(2, 4, 6, 6)
	pooled, col := Zeros(2, 3, 3, 3), Zeros(2*4*4, 3*3*3)
	for name, f := range map[string]func(){
		"MatMulInto":        func() { MatMulInto(mm, a, b) },
		"TransposeInto":     func() { TransposeInto(tr, a) },
		"Conv2DInto":        func() { Conv2DInto(conv, x, w, 1, 0, pool) },
		"Conv2DInto padded": func() { Conv2DInto(convPad, x, w, 1, 1, pool) },
		"MaxPool2DInto":     func() { MaxPool2DInto(pooled, x, 2, 2) },
		"Im2ColInto":        func() { Im2ColInto(col, x, w, 1, 0, pool) },
	} {
		f() // warm the pool's scratch classes
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// idleCount drains the idle buffers of shape's class through Get, counting
// the hits, and puts them back.
func idleCount(p *Pool, shape ...int) int {
	var idle []*Tensor
	for {
		hits := p.Stats().Hits
		x := p.Get(shape...)
		if p.Stats().Hits == hits {
			p.Disown(x)
			break
		}
		idle = append(idle, x)
	}
	for _, x := range idle {
		p.Put(x)
	}
	return len(idle)
}

// TestPoolRetainsPeakWorkingSet: a size class keeps as many returned
// buffers as were ever rented from it at once — a tape step's forward
// activations all come back as hits the next step — and never fewer than
// poolBinCap, nor more than that bound.
func TestPoolRetainsPeakWorkingSet(t *testing.T) {
	p := NewPool()
	const n = 3 * poolBinCap
	held := make([]*Tensor, n)
	for step := 0; step < 2; step++ {
		before := p.Stats().Hits
		for i := range held {
			held[i] = p.Get(1, 8)
		}
		if hits := p.Stats().Hits - before; step > 0 && hits != n {
			t.Fatalf("step %d: %d of %d rentals were hits", step, hits, n)
		}
		for _, x := range held {
			p.Put(x)
		}
	}
	for i := 0; i < 10; i++ {
		p.Put(Zeros(minPoolClass)) // beyond the peak: dropped
	}
	if got := idleCount(p, 1, 8); got != n {
		t.Errorf("small class retains %d idle buffers, want its peak %d", got, n)
	}
	// A class never rented more than a few at once keeps the floor.
	p.Put(p.Get(100))
	for i := 0; i < 2*poolBinCap; i++ {
		p.Put(Zeros(128))
	}
	if got := idleCount(p, 100); got != poolBinCap {
		t.Errorf("128-element class retains %d idle buffers, want the floor %d", got, poolBinCap)
	}
}
