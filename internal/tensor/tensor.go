// Package tensor implements the dense numerical substrate used by every
// execution engine in this repository: the imperative interpreter, the
// symbolic dataflow executor and the tracing baseline all bottom out in the
// kernels defined here.
//
// Tensors are row-major, float64, arbitrary rank. The package is deliberately
// free of any framework concepts (no autodiff, no graphs); those live in
// internal/autodiff and internal/graph respectively.
package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Tensor is a dense row-major array of float64 values.
//
// The zero value is not useful; construct tensors with New, Zeros, Full,
// FromSlice or the random constructors in rand.go.
type Tensor struct {
	shape []int
	data  []float64
}

// New creates a tensor with the given shape, adopting data as its backing
// store. len(data) must equal the shape's element count.
func New(shape []int, data []float64) *Tensor {
	n := NumElements(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Zeros returns a tensor of the given shape filled with zeros.
func Zeros(shape ...int) *Tensor {
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, NumElements(shape))}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: []int{}, data: []float64{v}}
}

// FromSlice builds a rank-1 tensor from vs.
func FromSlice(vs []float64) *Tensor {
	return New([]int{len(vs)}, append([]float64(nil), vs...))
}

// FromRows builds a rank-2 tensor from equal-length rows.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	data := make([]float64, 0, len(rows)*c)
	for _, r := range rows {
		if len(r) != c {
			panic("tensor: ragged rows")
		}
		data = append(data, r...)
	}
	return New([]int{len(rows), c}, data)
}

// NumElements returns the element count implied by shape.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", slices.Clone(shape)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Item returns the sole element of a size-1 tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return New(t.shape, append([]float64(nil), t.data...))
}

// Reshape returns a view-copy with a new shape of equal element count.
// A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim reshaping %v to %v", t.shape, shape))
		}
		out[infer] = len(t.data) / known
	}
	if NumElements(out) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return New(out, append([]float64(nil), t.data...))
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool { return ShapeEq(a.shape, b.shape) }

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders a compact, shape-prefixed representation, eliding large
// tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	limit := 8
	for i, v := range t.data {
		if i > 0 {
			b.WriteString(" ")
		}
		if i == limit {
			fmt.Fprintf(&b, "... %d more", len(t.data)-limit)
			break
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteString("]")
	return b.String()
}

// Equal reports exact element-wise equality (and shape equality).
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports element-wise equality within tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
