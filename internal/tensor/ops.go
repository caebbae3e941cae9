package tensor

import (
	"fmt"
	"math"
)

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

// BroadcastShapes computes the NumPy-style broadcast of two shapes, or an
// error when they are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}

// broadcastIndex maps a flat index in the broadcast output shape back to a
// flat index in a tensor of the given (possibly smaller) shape.
func broadcastStrides(shape, out []int) []int {
	strides := make([]int, len(out))
	// Compute row-major strides of `shape` aligned to the right of `out`;
	// broadcast dimensions (size 1 where out > 1, or missing) get stride 0.
	s := 1
	off := len(out) - len(shape)
	for i := len(shape) - 1; i >= 0; i-- {
		if shape[i] == out[off+i] {
			strides[off+i] = s
		} else {
			strides[off+i] = 0 // broadcast dim
		}
		s *= shape[i]
	}
	return strides
}

// mustBroadcast returns the broadcast shape of a and b, panicking when they
// are incompatible.
func mustBroadcast(a, b *Tensor) []int {
	if SameShape(a, b) { // fast path
		return a.shape
	}
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		panic(err)
	}
	return shape
}

// ---------------------------------------------------------------------------
// Element-wise arithmetic
// ---------------------------------------------------------------------------

// Add returns a + b with broadcasting.
func Add(a, b *Tensor) *Tensor { return AddInto(Zeros(mustBroadcast(a, b)...), a, b) }

// Mul returns a * b (element-wise) with broadcasting.
func Mul(a, b *Tensor) *Tensor { return MulInto(Zeros(mustBroadcast(a, b)...), a, b) }

// Div returns a / b with broadcasting.
func Div(a, b *Tensor) *Tensor { return DivInto(Zeros(mustBroadcast(a, b)...), a, b) }

// Sqrt returns sqrt(a) element-wise.
func Sqrt(a *Tensor) *Tensor { return MapInto(Zeros(a.shape...), a, math.Sqrt) }

// AddScalar returns a + s.
func AddScalar(a *Tensor, s float64) *Tensor {
	return MapInto(Zeros(a.shape...), a, func(x float64) float64 { return x + s })
}

// MulScalar returns a * s.
func MulScalar(a *Tensor, s float64) *Tensor { return MulScalarInto(Zeros(a.shape...), a, s) }

// Tanh returns tanh(a).
func Tanh(a *Tensor) *Tensor { return TanhInto(Zeros(a.shape...), a) }

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

// ArgmaxAxis returns element indices of the max along axis (as float values).
func ArgmaxAxis(a *Tensor, axis int) *Tensor {
	axis = normAxis(axis, a.Rank())
	outShape := append([]int{}, a.shape[:axis]...)
	outShape = append(outShape, a.shape[axis+1:]...)
	out := Zeros(outShape...)
	best := Full(math.Inf(-1), outShape...)
	inner := 1
	for _, d := range a.shape[axis+1:] {
		inner *= d
	}
	outer := 1
	for _, d := range a.shape[:axis] {
		outer *= d
	}
	n := a.shape[axis]
	for o := 0; o < outer; o++ {
		for k := 0; k < n; k++ {
			base := (o*n + k) * inner
			obase := o * inner
			for i := 0; i < inner; i++ {
				if a.data[base+i] > best.data[obase+i] {
					best.data[obase+i] = a.data[base+i]
					out.data[obase+i] = float64(k)
				}
			}
		}
	}
	return out
}

func normAxis(axis, rank int) int {
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("tensor: axis %d out of range for rank %d", axis, rank))
	}
	return axis
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

// MatMul multiplies two rank-2 tensors: [m,k] x [k,n] -> [m,n]. It is a thin
// wrapper over the row-kernel, parallel MatMulInto (see into.go).
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matmulDims(a, b)
	return MatMulInto(Zeros(m, n), a, b)
}

// Concat joins tensors along axis. All other dimensions must agree.
func Concat(axis int, ts ...*Tensor) *Tensor {
	return ConcatInto(Zeros(ConcatShape(nil, axis, ts...)...), axis, ts...)
}

// SliceAxis extracts indices [lo, hi) along axis.
func SliceAxis(a *Tensor, axis, lo, hi int) *Tensor {
	shape := append([]int(nil), a.shape...)
	shape[normAxis(axis, a.Rank())] = hi - lo
	return SliceAxisInto(Zeros(shape...), a, axis, lo, hi)
}

// PadSliceGrad scatters upstream gradient g (shaped like the slice result)
// back into a zero tensor shaped like the slice input.
func PadSliceGrad(g *Tensor, inputShape []int, axis, lo int) *Tensor {
	axis = normAxis(axis, len(inputShape))
	out := Zeros(inputShape...)
	inner := 1
	for _, d := range inputShape[axis+1:] {
		inner *= d
	}
	outer := 1
	for _, d := range inputShape[:axis] {
		outer *= d
	}
	dstRow := inputShape[axis] * inner
	srcRow := g.shape[axis] * inner
	for o := 0; o < outer; o++ {
		copy(out.data[o*dstRow+lo*inner:o*dstRow+lo*inner+srcRow], g.data[o*srcRow:(o+1)*srcRow])
	}
	return out
}

// Stack joins rank-k tensors into a rank-(k+1) tensor along a new leading axis.
func Stack(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of nothing")
	}
	for _, t := range ts {
		if !SameShape(t, ts[0]) {
			panic("tensor: Stack shape mismatch")
		}
	}
	outShape := append([]int{len(ts)}, ts[0].shape...)
	out := Zeros(outShape...)
	n := ts[0].Size()
	for i, t := range ts {
		copy(out.data[i*n:(i+1)*n], t.data)
	}
	return out
}

// Gather selects rows of a rank-2 table by integer indices: out[i] = table[idx[i]].
func Gather(table *Tensor, idx []int) *Tensor {
	if table.Rank() != 2 {
		panic("tensor: Gather wants rank-2 table")
	}
	return GatherInto(Zeros(len(idx), table.shape[1]), table, idx)
}

// OneHot encodes integer class ids into a [len(ids), depth] tensor.
func OneHot(ids []int, depth int) *Tensor {
	out := Zeros(len(ids), depth)
	for i, id := range ids {
		if id >= 0 && id < depth {
			out.data[i*depth+id] = 1
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

// Softmax applies a numerically-stable softmax along the last axis.
func Softmax(a *Tensor) *Tensor {
	if a.Rank() == 0 {
		return Scalar(1)
	}
	return SoftmaxInto(Zeros(a.shape...), a)
}
