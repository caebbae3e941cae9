package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	a := New([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	if a.Rank() != 2 || a.Size() != 6 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("bad metadata: rank=%d size=%d", a.Rank(), a.Size())
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v want 6", a.At(1, 2))
	}
	a.Set(9, 0, 1)
	if a.At(0, 1) != 9 {
		t.Fatalf("Set failed")
	}
}

func TestNewPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]int{2, 2}, []float64{1, 2, 3})
}

func TestScalarAndItem(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Item() != 3.5 {
		t.Fatalf("scalar broken: %v", s)
	}
}

func TestReshapeInference(t *testing.T) {
	a := Zeros(2, 6)
	b := a.Reshape(3, -1)
	if !ShapeEq(b.Shape(), []int{3, 4}) {
		t.Fatalf("got %v", b.Shape())
	}
	c := a.Reshape(-1)
	if !ShapeEq(c.Shape(), []int{12}) {
		t.Fatalf("got %v", c.Shape())
	}
}

func TestReshapePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros(2, 3).Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2})
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int
		err        bool
	}{
		{[]int{2, 3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{2, 3}, []int{3}, []int{2, 3}, false},
		{[]int{2, 1}, []int{1, 3}, []int{2, 3}, false},
		{[]int{}, []int{4}, []int{4}, false},
		{[]int{2, 3}, []int{4}, nil, true},
		{[]int{5, 1, 3}, []int{4, 1}, []int{5, 4, 3}, false},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("BroadcastShapes(%v,%v) expected error", c.a, c.b)
			}
			continue
		}
		if err != nil || !ShapeEq(got, c.want) {
			t.Errorf("BroadcastShapes(%v,%v)=%v,%v want %v", c.a, c.b, got, err, c.want)
		}
	}
}

func TestAddBroadcast(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromSlice([]float64{10, 20, 30})
	got := Add(a, b)
	want := FromRows([][]float64{{11, 22, 33}, {14, 25, 36}})
	if !Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnbroadcastToInvertsBroadcast(t *testing.T) {
	// Broadcasting [3] over [2,3] then unbroadcasting must sum rows.
	g := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := UnbroadcastToInto(Zeros(3), g)
	want := FromSlice([]float64{5, 7, 9})
	if !Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Scalar case.
	s := UnbroadcastToInto(Scalar(0), g)
	if s.Item() != 21 {
		t.Fatalf("scalar unbroadcast got %v", s.Item())
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3})
	b := FromSlice([]float64{2, 2, 2})
	if !Equal(SubInto(Zeros(3), a, b), FromSlice([]float64{-1, -4, 1})) {
		t.Error("Sub wrong")
	}
	if !Equal(Mul(a, b), FromSlice([]float64{2, -4, 6})) {
		t.Error("Mul wrong")
	}
	if !Equal(Div(a, b), FromSlice([]float64{0.5, -1, 1.5})) {
		t.Error("Div wrong")
	}
	if !Equal(NegInto(Zeros(3), a), FromSlice([]float64{-1, 2, -3})) {
		t.Error("Neg wrong")
	}
	if !Equal(AbsInto(Zeros(3), a), FromSlice([]float64{1, 2, 3})) {
		t.Error("Abs wrong")
	}
	if !Equal(MaximumInto(Zeros(3), a, b), FromSlice([]float64{2, 2, 3})) {
		t.Error("Maximum wrong")
	}
	if !Equal(MinimumInto(Zeros(3), a, b), FromSlice([]float64{1, -2, 2})) {
		t.Error("Minimum wrong")
	}
	if !Equal(PowInto(Zeros(3), b, FromSlice([]float64{3, 3, 3})), FromSlice([]float64{8, 8, 8})) {
		t.Error("Pow wrong")
	}
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float64{-1, 0, 2})
	if !Equal(ReLUInto(Zeros(3), a), FromSlice([]float64{0, 0, 2})) {
		t.Error("ReLU wrong")
	}
	s := SigmoidInto(Scalar(1), Scalar(0))
	if math.Abs(s.Item()-0.5) > 1e-12 {
		t.Error("Sigmoid(0) != 0.5")
	}
	th := Tanh(Scalar(0))
	if th.Item() != 0 {
		t.Error("Tanh(0) != 0")
	}
	g := ReLUGradInto(Zeros(3), a, FromSlice([]float64{5, 5, 5}))
	if !Equal(g, FromSlice([]float64{0, 0, 5})) {
		t.Error("ReLUGrad wrong")
	}
}

func TestReductions(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if SumInto(Scalar(0), a).Item() != 21 {
		t.Error("Sum wrong")
	}
	if MeanInto(Scalar(0), a).Item() != 3.5 {
		t.Error("Mean wrong")
	}
	if !Equal(ArgmaxAxis(a, 1), FromSlice([]float64{2, 2})) {
		t.Errorf("ArgmaxAxis1 = %v", ArgmaxAxis(a, 1))
	}
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Randn(4, 4)
	eye := Zeros(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !AllClose(MatMul(a, eye), a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !AllClose(MatMul(eye, a), a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

// transpose runs TransposeInto on the heap.
func transpose(a *Tensor) *Tensor { return TransposeInto(Zeros(a.Dim(1), a.Dim(0)), a) }

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := transpose(a)
	if !ShapeEq(got.Shape(), []int{3, 2}) || got.At(2, 1) != 6 || got.At(0, 1) != 4 {
		t.Fatalf("got %v", got)
	}
	if !Equal(transpose(got), a) {
		t.Fatal("double transpose not identity")
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}})
	c := Concat(0, a, b)
	if !ShapeEq(c.Shape(), []int{3, 2}) || c.At(2, 1) != 6 {
		t.Fatalf("concat0 got %v", c)
	}
	d := Concat(1, a, a)
	if !ShapeEq(d.Shape(), []int{2, 4}) || d.At(1, 3) != 4 {
		t.Fatalf("concat1 got %v", d)
	}
	s := SliceAxis(c, 0, 1, 3)
	if !Equal(s, FromRows([][]float64{{3, 4}, {5, 6}})) {
		t.Fatalf("slice got %v", s)
	}
	s2 := SliceAxis(d, 1, 2, 4)
	if !Equal(s2, a) {
		t.Fatalf("slice axis1 got %v", s2)
	}
}

func TestPadSliceGradRoundTrip(t *testing.T) {
	g := FromRows([][]float64{{1, 2}})
	got := PadSliceGrad(g, []int{3, 2}, 0, 1)
	want := FromRows([][]float64{{0, 0}, {1, 2}, {0, 0}})
	if !Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestStack(t *testing.T) {
	a := FromSlice([]float64{1, 2})
	b := FromSlice([]float64{3, 4})
	s := Stack(a, b)
	if !ShapeEq(s.Shape(), []int{2, 2}) || s.At(1, 0) != 3 {
		t.Fatalf("got %v", s)
	}
}

func TestGatherScatter(t *testing.T) {
	table := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := Gather(table, []int{2, 0, 2})
	want := FromRows([][]float64{{3, 3}, {1, 1}, {3, 3}})
	if !Equal(g, want) {
		t.Fatalf("gather got %v", g)
	}
	grad := ScatterAddRowsInto(Full(7, 3, 2), []int{2, 0, 2}, Full(1, 3, 2))
	wantG := FromRows([][]float64{{1, 1}, {0, 0}, {2, 2}})
	if !Equal(grad, wantG) {
		t.Fatalf("scatter got %v", grad)
	}
}

func TestOneHot(t *testing.T) {
	oh := OneHot([]int{1, 0, 2}, 3)
	want := FromRows([][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}})
	if !Equal(oh, want) {
		t.Fatalf("got %v", oh)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(7)
	a := rng.Randn(5, 9)
	sm := Softmax(a)
	rows := UnbroadcastToInto(Zeros(5, 1), sm)
	for i := 0; i < 5; i++ {
		if math.Abs(rows.At(i, 0)-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, rows.At(i, 0))
		}
	}
	// Stability: huge logits must not produce NaN.
	big := Full(1e4, 2, 3)
	if math.IsNaN(SumInto(Scalar(0), Softmax(big)).Item()) {
		t.Fatal("softmax overflow")
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	rng := NewRNG(3)
	a := rng.Randn(4, 6)
	if !AllClose(LogSoftmaxInto(Zeros(4, 6), a), LogInto(Zeros(4, 6), Softmax(a)), 1e-9) {
		t.Fatal("logsoftmax mismatch")
	}
}

func TestCrossEntropyAgainstManual(t *testing.T) {
	logits := FromRows([][]float64{{2, 0, 0}})
	labels := OneHot([]int{0}, 3)
	got := CrossEntropyInto(Scalar(0), logits, labels, nil).Item()
	want := -LogSoftmaxInto(Zeros(1, 3), logits).At(0, 0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCrossEntropyGradNumerically(t *testing.T) {
	rng := NewRNG(11)
	logits := rng.Randn(2, 4)
	labels := OneHot([]int{1, 3}, 4)
	grad := CrossEntropyGradInto(Zeros(2, 4), logits, labels)
	xent := func() float64 { return CrossEntropyInto(Scalar(0), logits, labels, nil).Item() }
	const h = 1e-6
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		up := xent()
		logits.Data()[i] = orig - h
		dn := xent()
		logits.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-grad.Data()[i]) > 1e-6 {
			t.Fatalf("elem %d: numeric %v analytic %v", i, num, grad.Data()[i])
		}
	}
}

func TestMSE(t *testing.T) {
	p := FromSlice([]float64{1, 2})
	q := FromSlice([]float64{3, 2})
	if got := MSEInto(Scalar(0), p, q, nil).Item(); got != 2 {
		t.Fatalf("got %v", got)
	}
}

// --- property-based tests -------------------------------------------------

func TestPropAddCommutative(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		a := FromSlice(xs)
		b := FromSlice(reverse(xs))
		return Equal(Add(a, b), Add(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributesOverAdd(t *testing.T) {
	rng := NewRNG(99)
	for iter := 0; iter < 25; iter++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := rng.Randn(m, k)
		b := rng.Randn(k, n)
		c := rng.Randn(k, n)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		if !AllClose(lhs, rhs, 1e-9) {
			t.Fatalf("distributivity failed for %dx%dx%d", m, k, n)
		}
	}
}

func TestPropTransposeMatMul(t *testing.T) {
	// (A B)^T == B^T A^T
	rng := NewRNG(123)
	for iter := 0; iter < 25; iter++ {
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := rng.Randn(m, k)
		b := rng.Randn(k, n)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		if !AllClose(lhs, rhs, 1e-9) {
			t.Fatal("transpose identity failed")
		}
	}
}

// TestPropSumAxisConsistent: the axis sums of UnbroadcastToInto add up to
// the full sum.
func TestPropSumAxisConsistent(t *testing.T) {
	rng := NewRNG(5)
	sum := func(a *Tensor) float64 { return SumInto(Scalar(0), a).Item() }
	for iter := 0; iter < 20; iter++ {
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a := rng.Randn(m, n)
		total := sum(a)
		viaAxis0 := sum(UnbroadcastToInto(Zeros(1, n), a))
		viaAxis1 := sum(UnbroadcastToInto(Zeros(m, 1), a))
		if math.Abs(total-viaAxis0) > 1e-9 || math.Abs(total-viaAxis1) > 1e-9 {
			t.Fatal("axis sums inconsistent")
		}
	}
}

func reverse(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[len(xs)-1-i] = v
	}
	return out
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Randn(3, 3)
	b := NewRNG(42).Randn(3, 3)
	if !Equal(a, b) {
		t.Fatal("RNG not deterministic")
	}
	c := NewRNG(43).Randn(3, 3)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	rng := NewRNG(9)
	u := rng.Uniform(-2, 3, 1000)
	for _, v := range u.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("value %v out of range", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	p := NewRNG(4).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestXavierBounds(t *testing.T) {
	w := NewRNG(2).Xavier(10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range w.Data() {
		if math.Abs(v) > limit {
			t.Fatalf("value %v exceeds Xavier limit %v", v, limit)
		}
	}
}
