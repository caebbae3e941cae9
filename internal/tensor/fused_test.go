package tensor

import (
	"math"
	"testing"
)

// fused runs FusedElementwiseInto on the heap.
func fused(x *Tensor, extras []*Tensor, prog []FusedStep) *Tensor {
	sh, err := FusedShape(x, extras, prog)
	if err != nil {
		panic(err)
	}
	return FusedElementwiseInto(Zeros(sh...), x, extras, prog, nil)
}

// reference evaluates a fused program step by step with the standalone
// kernels — the semantics fusion must reproduce bit-for-bit.
func reference(x *Tensor, extras []*Tensor, prog []FusedStep) *Tensor {
	cur := x
	for _, st := range prog {
		step := st
		if fusedBinary(st.Code) {
			e := extras[st.Arg]
			sh, err := BroadcastShapes(cur.shape, e.shape)
			if err != nil {
				panic(err)
			}
			nxt := Zeros(sh...)
			ZipInto(nxt, cur, e, func(v, ev float64) float64 { return fusedApply(step, v, ev) })
			cur = nxt
		} else {
			nxt := Zeros(cur.shape...)
			MapInto(nxt, cur, func(v float64) float64 { return fusedApply(step, v, 0) })
			cur = nxt
		}
	}
	if cur == x {
		cur = CopyInto(Zeros(x.shape...), x)
	}
	return cur
}

func TestFusedApplyMatchesStandaloneKernels(t *testing.T) {
	rng := NewRNG(41)
	x := rng.Randn(3, 4)
	y := rng.Randn(3, 4)
	cases := []struct {
		name string
		prog []FusedStep
		want *Tensor
	}{
		{"add", []FusedStep{{Code: FusedAdd, Arg: 0}}, Add(x, y)},
		{"sub", []FusedStep{{Code: FusedSub, Arg: 0}}, SubInto(Zeros(3, 4), x, y)},
		{"rsub", []FusedStep{{Code: FusedRSub, Arg: 0}}, SubInto(Zeros(3, 4), y, x)},
		{"mul", []FusedStep{{Code: FusedMul, Arg: 0}}, Mul(x, y)},
		{"div", []FusedStep{{Code: FusedDiv, Arg: 0}}, Div(x, y)},
		{"max", []FusedStep{{Code: FusedMaximum, Arg: 0}}, MaximumInto(Zeros(3, 4), x, y)},
		{"min", []FusedStep{{Code: FusedMinimum, Arg: 0}}, MinimumInto(Zeros(3, 4), x, y)},
		{"relugate", []FusedStep{{Code: FusedReLUGate, Arg: 0}}, ReLUGradInto(Zeros(3, 4), y, x)},
		{"sigmoidgrad", []FusedStep{{Code: FusedSigmoidGradOut, Arg: 0}},
			// Same association as the SigmoidGradFromOut kernel: gv*(sv*(1-sv)).
			ZipInto(Zeros(3, 4), y, x, func(sv, gv float64) float64 { return gv * (sv * (1 - sv)) })},
		{"tanhgrad", []FusedStep{{Code: FusedTanhGradOut, Arg: 0}},
			ZipInto(Zeros(3, 4), y, x, func(vv, gv float64) float64 { return gv * (1 - vv*vv) })},
		{"neg", []FusedStep{{Code: FusedNeg}}, NegInto(Zeros(3, 4), x)},
		{"abs", []FusedStep{{Code: FusedAbs}}, AbsInto(Zeros(3, 4), x)},
		{"exp", []FusedStep{{Code: FusedExp}}, ExpInto(Zeros(3, 4), x)},
		{"relu", []FusedStep{{Code: FusedReLU}}, ReLUInto(Zeros(3, 4), x)},
		{"sigmoid", []FusedStep{{Code: FusedSigmoid}}, SigmoidInto(Zeros(3, 4), x)},
		{"tanh", []FusedStep{{Code: FusedTanh}}, Tanh(x)},
	}
	for _, c := range cases {
		got := fused(x, []*Tensor{y}, c.prog)
		if !Equal(got, c.want) {
			t.Fatalf("%s: fused != standalone", c.name)
		}
	}
}

func TestFusedChainBitIdenticalFastAndSlow(t *testing.T) {
	rng := NewRNG(43)
	x := rng.Randn(4, 6)
	same := rng.Randn(4, 6)
	scalar := Scalar(1.7)
	suffix := rng.Randn(6)
	general := rng.Randn(4, 1) // forces the general-broadcast slow path
	prog := []FusedStep{
		{Code: FusedTanh},
		{Code: FusedMul, Arg: 0},
		{Code: FusedAdd, Arg: 1},
		{Code: FusedMul, Arg: 1},
		{Code: FusedMaximum, Arg: 2},
	}
	for _, c := range []struct {
		name   string
		extras []*Tensor
	}{
		{"fast-same-shape", []*Tensor{same, scalar, same}},
		{"fast-suffix-broadcast", []*Tensor{suffix, scalar, same}},
		{"slow-general-broadcast", []*Tensor{general, scalar, same}},
	} {
		want := reference(x, c.extras, prog)
		got := fused(x, c.extras, prog)
		if !Equal(got, want) {
			t.Fatalf("%s: fused chain differs from stepwise", c.name)
		}
	}
}

func TestFusedIntoAllowsDstAliasX(t *testing.T) {
	rng := NewRNG(47)
	x := rng.Randn(5, 5)
	y := rng.Randn(5, 5)
	prog := []FusedStep{{Code: FusedSigmoid}, {Code: FusedSub, Arg: 0}}
	want := reference(x, []*Tensor{y}, prog)
	xcopy := CopyInto(Zeros(5, 5), x)
	got := FusedElementwiseInto(xcopy, xcopy, []*Tensor{y}, prog, nil)
	if !Equal(got, want) {
		t.Fatal("in-place fused evaluation differs")
	}
}

func TestFusedShapeErrors(t *testing.T) {
	x := Zeros(2, 3)
	if _, err := FusedShape(x, nil, []FusedStep{{Code: FusedAdd, Arg: 0}}); err == nil {
		t.Fatal("out-of-range Arg accepted")
	}
	if _, err := FusedShape(x, []*Tensor{Zeros(4)}, []FusedStep{{Code: FusedAdd, Arg: 0}}); err == nil {
		t.Fatal("unbroadcastable shapes accepted")
	}
}

func TestIm2ColMatchesConvInternals(t *testing.T) {
	rng := NewRNG(53)
	for _, c := range []struct{ stride, pad int }{{1, 0}, {1, 1}, {2, 1}} {
		x := rng.Randn(2, 3, 7, 7)
		w := rng.Randn(5, 3, 3, 3)
		rows, cols := Im2ColShape(x.Shape(), w.Shape(), c.stride, c.pad)
		col := Im2ColInto(Zeros(rows, cols), x, w, c.stride, c.pad, nil)

		n, _, oh, ow := Conv2DShape(x.Shape(), w.Shape(), c.stride, c.pad)
		got := Conv2DFromColInto(Zeros(n, 5, oh, ow), col, w, n, oh, ow, nil)
		want := Conv2DInto(Zeros(n, 5, oh, ow), x, w, c.stride, c.pad, nil)
		if !Equal(got, want) {
			t.Fatalf("stride=%d pad=%d: Im2Col+FromCol != Conv2D", c.stride, c.pad)
		}

		gout := rng.Randn(n, 5, oh, ow)
		gotG := Conv2DGradFilterFromColInto(Zeros(w.Shape()...), col, gout, nil)
		wantG := Conv2DGradFilterInto(Zeros(w.Shape()...), x, w, gout, c.stride, c.pad, nil)
		if !Equal(gotG, wantG) {
			t.Fatalf("stride=%d pad=%d: GradFilterFromCol != Conv2DGradFilter", c.stride, c.pad)
		}
	}
}

func TestFusedNaNPropagation(t *testing.T) {
	// max(v, 0) (the builtin) and math.Max agree on NaN: fused ReLU must
	// propagate NaN exactly like ReLUInto does.
	x := New([]int{3}, []float64{math.NaN(), -1, 2})
	got := fused(x, nil, []FusedStep{{Code: FusedReLU}})
	want := ReLUInto(Zeros(3), x)
	for i := range want.Data() {
		g, w := got.Data()[i], want.Data()[i]
		if math.IsNaN(w) != math.IsNaN(g) || (!math.IsNaN(w) && g != w) {
			t.Fatalf("elem %d: fused %v want %v", i, g, w)
		}
	}
}
