package tensor

import (
	"math"
	"strings"
	"testing"
)

func TestPad2DRoundTrip(t *testing.T) {
	rng := NewRNG(1)
	x := rng.Randn(2, 3, 4, 5)
	// A dirty destination: Pad2DInto must zero the border itself.
	p := Pad2DInto(Full(7, 2, 3, 8, 9), x, 2)
	if !Equal(Unpad2DInto(Zeros(2, 3, 4, 5), p, 2), x) {
		t.Fatal("unpad(pad(x)) != x")
	}
	// Border must be zero.
	if p.At(0, 0, 0, 0) != 0 || p.At(1, 2, 7, 8) != 0 {
		t.Fatal("padding not zero")
	}
}

// naiveConv2D is an independent direct implementation used as an oracle.
func naiveConv2D(x, w *Tensor, stride, pad int) *Tensor {
	x = Pad2DInto(Zeros(x.Dim(0), x.Dim(1), x.Dim(2)+2*pad, x.Dim(3)+2*pad), x, pad)
	n, c, h, wd := x.Shape()[0], x.Shape()[1], x.Shape()[2], x.Shape()[3]
	oc, _, kh, kw := w.Shape()[0], w.Shape()[1], w.Shape()[2], w.Shape()[3]
	oh := (h-kh)/stride + 1
	ow := (wd-kw)/stride + 1
	out := Zeros(n, oc, oh, ow)
	for i := 0; i < n; i++ {
		for o := 0; o < oc; o++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					s := 0.0
					for ch := 0; ch < c; ch++ {
						for dy := 0; dy < kh; dy++ {
							for dx := 0; dx < kw; dx++ {
								s += x.At(i, ch, y*stride+dy, xx*stride+dx) * w.At(o, ch, dy, dx)
							}
						}
					}
					out.Set(s, i, o, y, xx)
				}
			}
		}
	}
	return out
}

// conv2D runs Conv2DInto on the heap.
func conv2D(x, w *Tensor, stride, pad int) *Tensor {
	n, oc, oh, ow := Conv2DShape(x.Shape(), w.Shape(), stride, pad)
	return Conv2DInto(Zeros(n, oc, oh, ow), x, w, stride, pad, nil)
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := NewRNG(10)
	cases := []struct{ stride, pad int }{{1, 0}, {1, 1}, {2, 1}, {2, 0}}
	for _, cse := range cases {
		x := rng.Randn(2, 3, 6, 6)
		w := rng.Randn(4, 3, 3, 3)
		got := conv2D(x, w, cse.stride, cse.pad)
		want := naiveConv2D(x, w, cse.stride, cse.pad)
		if !AllClose(got, want, 1e-9) {
			t.Fatalf("stride=%d pad=%d mismatch", cse.stride, cse.pad)
		}
	}
}

func TestConv2DIdentityFilter(t *testing.T) {
	rng := NewRNG(3)
	x := rng.Randn(1, 1, 5, 5)
	w := Zeros(1, 1, 1, 1)
	w.Set(1, 0, 0, 0, 0)
	if !AllClose(conv2D(x, w, 1, 0), x, 1e-12) {
		t.Fatal("1x1 identity conv changed input")
	}
}

func TestConv2DGradNumerically(t *testing.T) {
	rng := NewRNG(8)
	x := rng.Randn(1, 2, 5, 5)
	w := rng.Randn(3, 2, 3, 3)
	stride, pad := 1, 1
	out := conv2D(x, w, stride, pad)
	gout := NewRNG(9).Randn(out.Shape()...)
	gx := Conv2DGradInputInto(Zeros(x.Shape()...), x, w, gout, stride, pad, nil)
	gw := Conv2DGradFilterInto(Zeros(w.Shape()...), x, w, gout, stride, pad, nil)

	loss := func() float64 {
		o := conv2D(x, w, stride, pad)
		return SumInto(Scalar(0), Mul(o, gout)).Item()
	}
	const h = 1e-6
	// Spot check a sample of gradient entries against finite differences.
	for _, i := range []int{0, 7, 13, len(x.Data()) - 1} {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		dn := loss()
		x.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-gx.Data()[i]) > 1e-5 {
			t.Fatalf("gx[%d]: numeric %v analytic %v", i, num, gx.Data()[i])
		}
	}
	for _, i := range []int{0, 5, 17, len(w.Data()) - 1} {
		orig := w.Data()[i]
		w.Data()[i] = orig + h
		up := loss()
		w.Data()[i] = orig - h
		dn := loss()
		w.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-gw.Data()[i]) > 1e-5 {
			t.Fatalf("gw[%d]: numeric %v analytic %v", i, num, gw.Data()[i])
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	x := New([]int{1, 1, 4, 4}, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out := MaxPool2DInto(Zeros(1, 1, 2, 2), x, 2, 2)
	want := New([]int{1, 1, 2, 2}, []float64{6, 8, 14, 16})
	if !Equal(out, want) {
		t.Fatalf("got %v", out)
	}
	g := MaxPool2DGradInto(Full(9, x.Shape()...), x, 2, 2, Full(1, 1, 1, 2, 2))
	// Gradient lands exactly on max positions.
	if g.At(0, 0, 1, 1) != 1 || g.At(0, 0, 3, 3) != 1 || SumInto(Scalar(0), g).Item() != 4 {
		t.Fatalf("bad pool grad %v", g)
	}
}

func TestAvgPool2DAndGrad(t *testing.T) {
	x := Full(2, 1, 1, 4, 4)
	out := AvgPool2DInto(Zeros(1, 1, 2, 2), x, 2, 2)
	if !Equal(out, Full(2, 1, 1, 2, 2)) {
		t.Fatalf("got %v", out)
	}
	g := AvgPool2DGradInto(Full(9, x.Shape()...), 2, 2, Full(4, 1, 1, 2, 2))
	if !Equal(g, Full(1, 1, 1, 4, 4)) {
		t.Fatalf("grad got %v", g)
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	rng := NewRNG(5)
	x := rng.Randn(16, 4)
	gamma := Full(1, 4)
	beta := Zeros(4)
	rm := Zeros(4)
	rv := Full(1, 4)
	out := BatchNorm(x, gamma, beta, rm, rv, true, 0.9, 1e-5)
	// Per-channel mean ~0 and variance ~1.
	colMean := func(a *Tensor) *Tensor { return MulScalar(UnbroadcastToInto(Zeros(1, 4), a), 1.0/16) }
	mean := colMean(out)
	for i := 0; i < 4; i++ {
		if math.Abs(mean.At(0, i)) > 1e-9 {
			t.Fatalf("channel %d mean %v", i, mean.At(0, i))
		}
	}
	sq := colMean(Mul(out, out))
	for i := 0; i < 4; i++ {
		if math.Abs(sq.At(0, i)-1) > 1e-3 {
			t.Fatalf("channel %d var %v", i, sq.At(0, i))
		}
	}
	// Running stats moved away from init.
	if rm.At(0) == 0 && rm.At(1) == 0 {
		t.Fatal("running mean not updated")
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	x := Full(10, 4, 2)
	gamma := Full(1, 2)
	beta := Zeros(2)
	rm := Full(10, 2)
	rv := Full(1, 2)
	out := BatchNorm(x, gamma, beta, rm, rv, false, 0.9, 0)
	// (10-10)/1 = 0 everywhere.
	if !AllClose(out, Zeros(4, 2), 1e-12) {
		t.Fatalf("got %v", out)
	}
	// Running stats untouched in inference mode.
	if rm.At(0) != 10 || rv.At(0) != 1 {
		t.Fatal("inference mutated running stats")
	}
}

func TestBatchNormTrainVsEvalDiffer(t *testing.T) {
	// This is the exact semantic distinction that trips trace-based
	// conversion in the paper's Figure 6(a).
	rng := NewRNG(21)
	x := rng.Randn(8, 3)
	gamma := Full(1, 3)
	beta := Zeros(3)
	rm := Zeros(3)
	rv := Full(1, 3)
	train := BatchNorm(x, gamma, beta, rm.Clone(), rv.Clone(), true, 0.9, 1e-5)
	eval := BatchNorm(x, gamma, beta, rm, rv, false, 0.9, 1e-5)
	if AllClose(train, eval, 1e-6) {
		t.Fatal("training and inference batch norm should differ on random input")
	}
}

// naiveConv2DGradFilter is the direct-loop oracle for the filter gradient:
// each filter cell is one running sum of gout·x over ascending (n, oh, ow),
// zero padding included, which is the order the kernel promises.
func naiveConv2DGradFilter(x, w, gout *Tensor, stride, pad int) *Tensor {
	xp := Pad2DInto(Zeros(x.Dim(0), x.Dim(1), x.Dim(2)+2*pad, x.Dim(3)+2*pad), x, pad)
	gw := Zeros(w.Shape()...)
	for o := 0; o < w.Dim(0); o++ {
		for ch := 0; ch < w.Dim(1); ch++ {
			for dy := 0; dy < w.Dim(2); dy++ {
				for dx := 0; dx < w.Dim(3); dx++ {
					s := 0.0
					for i := 0; i < gout.Dim(0); i++ {
						for y := 0; y < gout.Dim(2); y++ {
							for xx := 0; xx < gout.Dim(3); xx++ {
								s += gout.At(i, o, y, xx) * xp.At(i, ch, y*stride+dy, xx*stride+dx)
							}
						}
					}
					gw.Set(s, o, ch, dy, dx)
				}
			}
		}
	}
	return gw
}

// naiveConv2DGradInput is the direct-loop oracle for the input gradient:
// at each output position, every filter tap's share is one running sum of
// gout·w over ascending output channel, added into the padded input in
// (oh, ow) order, which is the order the kernel promises.
func naiveConv2DGradInput(x, w, gout *Tensor, stride, pad int) *Tensor {
	gxp := Zeros(x.Dim(0), x.Dim(1), x.Dim(2)+2*pad, x.Dim(3)+2*pad)
	for i := 0; i < gout.Dim(0); i++ {
		for y := 0; y < gout.Dim(2); y++ {
			for xx := 0; xx < gout.Dim(3); xx++ {
				for ch := 0; ch < w.Dim(1); ch++ {
					for dy := 0; dy < w.Dim(2); dy++ {
						for dx := 0; dx < w.Dim(3); dx++ {
							s := 0.0
							for o := 0; o < w.Dim(0); o++ {
								s += gout.At(i, o, y, xx) * w.At(o, ch, dy, dx)
							}
							sy, sx := y*stride+dy, xx*stride+dx
							gxp.Set(gxp.At(i, ch, sy, sx)+s, i, ch, sy, sx)
						}
					}
				}
			}
		}
	}
	return Unpad2DInto(Zeros(x.Shape()...), gxp, pad)
}

// Pins the split gradient kernels — the ones the static graph and the tape
// both use — to the direct-loop oracles bit for bit on a strided, padded
// case.
func TestConv2DGradSplitMatchesCombined(t *testing.T) {
	rng := NewRNG(31)
	x := rng.Randn(2, 3, 6, 6)
	w := rng.Randn(4, 3, 3, 3)
	out := conv2D(x, w, 2, 1)
	g := rng.Randn(out.Shape()...)
	if !Equal(Conv2DGradInputInto(Zeros(x.Shape()...), x, w, g, 2, 1, nil), naiveConv2DGradInput(x, w, g, 2, 1)) {
		t.Fatal("input gradient differs from the direct-loop oracle")
	}
	if !Equal(Conv2DGradFilterInto(Zeros(w.Shape()...), x, w, g, 2, 1, nil), naiveConv2DGradFilter(x, w, g, 2, 1)) {
		t.Fatal("filter gradient differs from the direct-loop oracle")
	}
}

// TestFromColKernelsRejectMismatchedCol: the FromCol kernels receive col
// from another graph node, so they must check it against the filter, the
// gradient and the destination instead of reading or writing past the
// shapes they were given.
func TestFromColKernelsRejectMismatchedCol(t *testing.T) {
	x := NewRNG(41).Randn(1, 1, 4, 4)
	w1 := NewRNG(43).Randn(4, 1, 3, 3)
	rows, cols := Im2ColShape(x.Shape(), w1.Shape(), 1, 1) // [16, 9]
	col := Im2ColInto(Zeros(rows, cols), x, w1, 1, 1, nil)
	gout := NewRNG(42).Randn(1, 4, 4, 4)
	cases := []struct {
		name, op string
		run      func()
	}{
		{"forward, 2-channel filter", "Conv2DFromColInto", func() {
			Conv2DFromColInto(Zeros(1, 4, 4, 4), col, Zeros(4, 2, 3, 3), 1, 4, 4, nil)
		}},
		{"forward, two images", "Conv2DFromColInto", func() {
			Conv2DFromColInto(Zeros(2, 4, 4, 4), col, w1, 2, 4, 4, nil)
		}},
		{"filter gradient, 2-channel filter", "Conv2DGradFilterFromColInto", func() {
			Conv2DGradFilterFromColInto(Zeros(4, 2, 3, 3), col, gout, nil)
		}},
		{"filter gradient, two images", "Conv2DGradFilterFromColInto", func() {
			Conv2DGradFilterFromColInto(Zeros(4, 1, 3, 3), col, Zeros(2, 4, 4, 4), nil)
		}},
		{"filter gradient, channel count", "Conv2DGradFilterFromColInto", func() {
			Conv2DGradFilterFromColInto(Zeros(4, 1, 3, 3), col, Zeros(1, 3, 4, 4), nil)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.op) {
					t.Fatalf("%s: got panic %q, want one naming %s", c.name, msg, c.op)
				}
			}()
			c.run()
		}()
	}
	// The well-formed calls still agree with the fused kernels.
	if !Equal(Conv2DFromColInto(Zeros(1, 4, 4, 4), col, w1, 1, 4, 4, nil), conv2D(x, w1, 1, 1)) {
		t.Fatal("Conv2DFromColInto differs from Conv2DInto")
	}
	if !Equal(Conv2DGradFilterFromColInto(Full(9, 4, 1, 3, 3), col, gout, nil), Conv2DGradFilterInto(Zeros(4, 1, 3, 3), x, w1, gout, 1, 1, nil)) {
		t.Fatal("Conv2DGradFilterFromColInto differs from Conv2DGradFilterInto")
	}
}
