package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the destination-passing kernels: every *Into function
// writes its result into a caller-provided tensor instead of allocating one,
// so the plan-driven graph executor can rent all intermediates from a Pool
// and replay graphs with ~zero allocations. They are the only form of the
// graph ops' kernels; the few allocating helpers left in ops.go (Add,
// MatMul, Softmax, ...) serve callers outside the op table.
//
// Aliasing contract: dst may alias an input only when the shapes are equal
// element-for-element (the executor's in-place rule); every kernel here reads
// index i of a same-shape input before writing index i of dst, which makes
// that aliasing safe. Broadcast operands are never aliased.

// kernelParallelism is the worker count for the parallel kernels; settable
// for the ablation benchmark (serial / parallel kernels).
var kernelParallelism atomic.Int32

func init() { kernelParallelism.Store(int32(runtime.NumCPU())) }

// SetKernelParallelism sets how many goroutines the parallel kernels may use
// (values < 1 mean 1, i.e. serial execution) and returns the previous
// setting. The default is runtime.NumCPU().
func SetKernelParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(kernelParallelism.Swap(int32(n)))
}

// kernelWorkers is how many goroutines parallelRanges uses to split n items
// of flops total floating-point work: 1 unless the work justifies the
// goroutine overhead.
func kernelWorkers(n, flops int) int {
	// Below ~256k flops the fork/join overhead (~µs per goroutine) eats the
	// win; a 64x64x64 matmul is ~524k flops and already benefits.
	if flops < 1<<18 {
		return 1
	}
	return max(min(int(kernelParallelism.Load()), n), 1)
}

// parallelRanges splits [0, n) across the kernel worker pool and runs f on
// each chunk, provided the per-element work justifies the goroutine overhead;
// otherwise it runs f(0, n) on the calling goroutine. flops is the estimated
// total floating-point work.
func parallelRanges(n int, flops int, f func(lo, hi int)) {
	workers := kernelWorkers(n, flops)
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// checkDst validates a destination shape.
func checkDst(dst *Tensor, shape []int, op string) {
	if !ShapeEq(dst.shape, shape) {
		badShape(op, "destination", dst.shape, shape)
	}
}

// checkOperand validates the shape of an operand whose shape is implied by
// the others.
func checkOperand(t *Tensor, shape []int, op, name string) {
	if !ShapeEq(t.shape, shape) {
		badShape(op, name, t.shape, shape)
	}
}

// badShape panics with a shape mismatch. It formats copies of the shapes and
// is never inlined, so the shapes a check is handed do not escape: a caller
// may build its wanted shape on the stack.
//
//go:noinline
func badShape(op, what string, got, want []int) {
	panic(fmt.Sprintf("tensor: %s %s shape %v, want %v", op, what, slices.Clone(got), slices.Clone(want)))
}

// ---------------------------------------------------------------------------
// Element-wise
// ---------------------------------------------------------------------------

// MapInto applies f element-wise into dst (which may alias a).
func MapInto(dst, a *Tensor, f func(float64) float64) *Tensor {
	checkDst(dst, a.shape, "MapInto")
	dd, ad := dst.data, a.data
	for i, v := range ad {
		dd[i] = f(v)
	}
	return dst
}

// ZipInto applies f element-wise over broadcast inputs into dst, whose shape
// must be the broadcast shape. dst may alias an input of exactly that shape.
func ZipInto(dst, a, b *Tensor, f func(x, y float64) float64) *Tensor {
	if SameShape(a, b) { // fast path: index-aligned, aliasing-safe
		checkDst(dst, a.shape, "ZipInto")
		dd, ad, bd := dst.data, a.data, b.data
		for i := range ad {
			dd[i] = f(ad[i], bd[i])
		}
		return dst
	}
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		panic(err)
	}
	checkDst(dst, shape, "ZipInto")
	sa := broadcastStrides(a.shape, shape)
	sb := broadcastStrides(b.shape, shape)
	idx := make([]int, len(shape))
	for i := range dst.data {
		oa, ob := 0, 0
		for d := range idx {
			oa += idx[d] * sa[d]
			ob += idx[d] * sb[d]
		}
		dst.data[i] = f(a.data[oa], b.data[ob])
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return dst
}

// AddInto computes a + b into dst. The same-shape case runs a direct loop:
// a per-element closure call costs more than the add itself.
func AddInto(dst, a, b *Tensor) *Tensor {
	if SameShape(a, b) {
		checkDst(dst, a.shape, "AddInto")
		dd, ad, bd := dst.data, a.data, b.data
		for i := range ad {
			dd[i] = ad[i] + bd[i]
		}
		return dst
	}
	return ZipInto(dst, a, b, func(x, y float64) float64 { return x + y })
}

// SubInto computes a - b into dst.
func SubInto(dst, a, b *Tensor) *Tensor {
	if SameShape(a, b) {
		checkDst(dst, a.shape, "SubInto")
		dd, ad, bd := dst.data, a.data, b.data
		for i := range ad {
			dd[i] = ad[i] - bd[i]
		}
		return dst
	}
	return ZipInto(dst, a, b, func(x, y float64) float64 { return x - y })
}

// MulInto computes a * b into dst.
func MulInto(dst, a, b *Tensor) *Tensor {
	if SameShape(a, b) {
		checkDst(dst, a.shape, "MulInto")
		dd, ad, bd := dst.data, a.data, b.data
		for i := range ad {
			dd[i] = ad[i] * bd[i]
		}
		return dst
	}
	return ZipInto(dst, a, b, func(x, y float64) float64 { return x * y })
}

// DivInto computes a / b into dst.
func DivInto(dst, a, b *Tensor) *Tensor {
	if SameShape(a, b) {
		checkDst(dst, a.shape, "DivInto")
		dd, ad, bd := dst.data, a.data, b.data
		for i := range ad {
			dd[i] = ad[i] / bd[i]
		}
		return dst
	}
	return ZipInto(dst, a, b, func(x, y float64) float64 { return x / y })
}

// PowInto computes a ** b into dst.
func PowInto(dst, a, b *Tensor) *Tensor { return ZipInto(dst, a, b, math.Pow) }

// MaximumInto computes element-wise max into dst.
func MaximumInto(dst, a, b *Tensor) *Tensor { return ZipInto(dst, a, b, math.Max) }

// MinimumInto computes element-wise min into dst.
func MinimumInto(dst, a, b *Tensor) *Tensor { return ZipInto(dst, a, b, math.Min) }

// NegInto computes -a into dst.
func NegInto(dst, a *Tensor) *Tensor {
	return MapInto(dst, a, func(x float64) float64 { return -x })
}

// ExpInto computes e**a into dst.
func ExpInto(dst, a *Tensor) *Tensor { return MapInto(dst, a, math.Exp) }

// LogInto computes ln(a) into dst.
func LogInto(dst, a *Tensor) *Tensor { return MapInto(dst, a, math.Log) }

// AbsInto computes |a| into dst.
func AbsInto(dst, a *Tensor) *Tensor { return MapInto(dst, a, math.Abs) }

// ReLUInto computes max(a, 0) into dst. The builtin max compiles branch-
// free and keeps math.Max's NaN/-0 semantics.
func ReLUInto(dst, a *Tensor) *Tensor {
	checkDst(dst, a.shape, "ReLUInto")
	dd, ad := dst.data, a.data
	for i, v := range ad {
		dd[i] = max(v, 0)
	}
	return dst
}

// SigmoidInto computes 1/(1+e^-a) into dst.
func SigmoidInto(dst, a *Tensor) *Tensor {
	return MapInto(dst, a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// TanhInto computes tanh(a) into dst.
func TanhInto(dst, a *Tensor) *Tensor { return MapInto(dst, a, math.Tanh) }

// MulScalarInto computes a * s into dst.
func MulScalarInto(dst, a *Tensor, s float64) *Tensor {
	return MapInto(dst, a, func(x float64) float64 { return x * s })
}

// ReLUGradInto computes the ReLU gradient mask of x applied to g into dst:
// g where x > 0, else +0 (NaN x included). The same-shape loop selects with
// a bit mask instead of a branch, which real activations mispredict; the
// result is bit-identical to the branch.
func ReLUGradInto(dst, x, g *Tensor) *Tensor {
	if SameShape(x, g) {
		checkDst(dst, x.shape, "ReLUGradInto")
		dd, xd, gd := dst.data, x.data, g.data[:len(x.data)]
		for i, xv := range xd {
			var m uint64
			if xv > 0 {
				m = math.MaxUint64
			}
			dd[i] = math.Float64frombits(math.Float64bits(gd[i]) & m)
		}
		return dst
	}
	return ZipInto(dst, x, g, func(xv, gv float64) float64 {
		if xv > 0 {
			return gv
		}
		return 0
	})
}

// CopyInto copies a into dst (shapes must have equal element counts; dst
// keeps its own shape). Used by Reshape-style ops.
func CopyInto(dst, a *Tensor) *Tensor {
	if len(dst.data) != len(a.data) {
		panic(fmt.Sprintf("tensor: CopyInto size mismatch: %v vs %v", dst.shape, a.shape))
	}
	copy(dst.data, a.data)
	return dst
}

// SliceAxisInto copies indices [lo, hi) along axis of a into dst, whose
// shape is a's with that dim hi-lo.
func SliceAxisInto(dst, a *Tensor, axis, lo, hi int) *Tensor {
	axis = normAxis(axis, a.Rank())
	if lo < 0 || hi > a.shape[axis] || lo > hi {
		panic(fmt.Sprintf("tensor: slice [%d:%d) out of range for dim %d of %v", lo, hi, axis, a.shape))
	}
	if len(dst.shape) != len(a.shape) {
		panic(fmt.Sprintf("tensor: SliceAxisInto destination shape %v for a slice of %v", dst.shape, a.shape))
	}
	for d, n := range dst.shape {
		if want := a.shape[d]; d == axis && n != hi-lo || d != axis && n != want {
			panic(fmt.Sprintf("tensor: SliceAxisInto destination shape %v for [%d:%d) along dim %d of %v", dst.shape, lo, hi, axis, a.shape))
		}
	}
	inner := 1
	for _, d := range a.shape[axis+1:] {
		inner *= d
	}
	outer := 1
	for _, d := range a.shape[:axis] {
		outer *= d
	}
	srcRow := a.shape[axis] * inner
	dstRow := (hi - lo) * inner
	for o := 0; o < outer; o++ {
		copy(dst.data[o*dstRow:(o+1)*dstRow], a.data[o*srcRow+lo*inner:o*srcRow+hi*inner])
	}
	return dst
}

// ScatterAddRowsInto zeroes the rank-2 dst and adds row i of g into row
// idx[i], in order: the gradient of Gather.
func ScatterAddRowsInto(dst *Tensor, idx []int, g *Tensor) *Tensor {
	if dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ScatterAddRowsInto wants a rank-2 destination, got %v", dst.shape))
	}
	n := dst.shape[1]
	if g.Rank() != 2 || g.shape[0] != len(idx) || g.shape[1] != n {
		panic(fmt.Sprintf("tensor: ScatterAddRowsInto gradient %v for %d rows of %v", g.shape, len(idx), dst.shape))
	}
	clear(dst.data)
	for i, id := range idx {
		if id < 0 || id >= dst.shape[0] {
			panic(fmt.Sprintf("tensor: ScatterAddRowsInto index %d out of range [0,%d)", id, dst.shape[0]))
		}
		row, src := dst.data[id*n:(id+1)*n], g.data[i*n:(i+1)*n]
		for j := range row {
			row[j] += src[j]
		}
	}
	return dst
}

// ConcatShape appends to dst the shape of ts joined along axis: the first
// tensor's shape with the axis summed. It panics when the ranks or the
// dimensions off the axis disagree.
func ConcatShape(dst []int, axis int, ts ...*Tensor) []int {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	rank := ts[0].Rank()
	axis = normAxis(axis, rank)
	dst = append(dst, ts[0].shape...)
	shape := dst[len(dst)-rank:]
	shape[axis] = 0
	for _, t := range ts {
		if t.Rank() != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != ts[0].shape[d] {
				panic(fmt.Sprintf("tensor: Concat dim %d mismatch: %v vs %v", d, slices.Clone(t.shape), slices.Clone(ts[0].shape)))
			}
		}
		shape[axis] += t.shape[axis]
	}
	return dst
}

// ConcatInto joins ts along axis into dst, whose shape must be their
// ConcatShape. dst must not alias an input.
func ConcatInto(dst *Tensor, axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	axis = normAxis(axis, ts[0].Rank())
	var buf [8]int
	checkDst(dst, ConcatShape(buf[:0], axis, ts...), "ConcatInto")
	outer := 1
	for _, d := range dst.shape[:axis] {
		outer *= d
	}
	inner := 1
	for _, d := range dst.shape[axis+1:] {
		inner *= d
	}
	rowLen := dst.shape[axis] * inner
	off := 0
	for _, t := range ts {
		tlen := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(dst.data[o*rowLen+off:o*rowLen+off+tlen], t.data[o*tlen:(o+1)*tlen])
		}
		off += tlen
	}
	return dst
}

// GatherInto writes rows idx of the rank-2 table into dst [len(idx), n]:
// dst[i] = table[idx[i]].
func GatherInto(dst, table *Tensor, idx []int) *Tensor {
	if table.Rank() != 2 {
		panic("tensor: Gather wants rank-2 table")
	}
	n := table.shape[1]
	checkDst(dst, []int{len(idx), n}, "GatherInto")
	for i, id := range idx {
		if id < 0 || id >= table.shape[0] {
			panic(fmt.Sprintf("tensor: Gather index %d out of range [0,%d)", id, table.shape[0]))
		}
		copy(dst.data[i*n:(i+1)*n], table.data[id*n:(id+1)*n])
	}
	return dst
}

// FillInto sets every element of dst to v.
func FillInto(dst *Tensor, v float64) *Tensor {
	for i := range dst.data {
		dst.data[i] = v
	}
	return dst
}

// ---------------------------------------------------------------------------
// Reductions / softmax / losses
// ---------------------------------------------------------------------------

// SumInto reduces a to a scalar into dst (shape []).
func SumInto(dst, a *Tensor) *Tensor {
	checkDst(dst, nil, "SumInto")
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	dst.data[0] = s
	return dst
}

// MeanInto reduces a to its scalar mean into dst.
func MeanInto(dst, a *Tensor) *Tensor {
	SumInto(dst, a)
	if len(a.data) > 0 {
		dst.data[0] /= float64(len(a.data))
	}
	return dst
}

// SoftmaxInto applies a numerically-stable softmax along the last axis into
// dst (may alias a).
func SoftmaxInto(dst, a *Tensor) *Tensor {
	checkDst(dst, a.shape, "SoftmaxInto")
	if a.Rank() == 0 {
		dst.data[0] = 1
		return dst
	}
	n := a.shape[a.Rank()-1]
	for base := 0; base < len(a.data); base += n {
		maxv := math.Inf(-1)
		for i := 0; i < n; i++ {
			if a.data[base+i] > maxv {
				maxv = a.data[base+i]
			}
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			e := math.Exp(a.data[base+i] - maxv)
			dst.data[base+i] = e
			sum += e
		}
		for i := 0; i < n; i++ {
			dst.data[base+i] /= sum
		}
	}
	return dst
}

// LogSoftmaxInto applies log-softmax along the last axis into dst (may alias
// a).
func LogSoftmaxInto(dst, a *Tensor) *Tensor {
	checkDst(dst, a.shape, "LogSoftmaxInto")
	n := a.shape[a.Rank()-1]
	for base := 0; base < len(a.data); base += n {
		maxv := math.Inf(-1)
		for i := 0; i < n; i++ {
			if a.data[base+i] > maxv {
				maxv = a.data[base+i]
			}
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += math.Exp(a.data[base+i] - maxv)
		}
		lse := maxv + math.Log(sum)
		for i := 0; i < n; i++ {
			dst.data[base+i] = a.data[base+i] - lse
		}
	}
	return dst
}

// CrossEntropyInto computes mean softmax cross-entropy into scalar dst,
// renting scratch from alloc. Labels broadcast against logits.
func CrossEntropyInto(dst, logits, labels *Tensor, alloc Allocator) *Tensor {
	checkDst(dst, nil, "CrossEntropyInto")
	alloc = orHeap(alloc)
	ls := alloc.Get(logits.shape...)
	LogSoftmaxInto(ls, logits)
	s := 0.0
	if SameShape(logits, labels) {
		for i := range ls.data {
			s += labels.data[i] * ls.data[i]
		}
	} else {
		prod := alloc.Get(mustBroadcast(labels, ls)...)
		for _, v := range MulInto(prod, labels, ls).data {
			s += v
		}
		alloc.Put(prod)
	}
	alloc.Put(ls)
	dst.data[0] = -s / float64(logits.shape[0])
	return dst
}

// CrossEntropyGradInto computes (softmax(logits) - labels)/batch into dst,
// shaped like the broadcast of logits and labels. dst may alias logits when
// it has that shape, and only labels wider than logits cost scratch.
func CrossEntropyGradInto(dst, logits, labels *Tensor) *Tensor {
	inv := 1 / float64(logits.shape[0])
	if SameShape(logits, labels) {
		SoftmaxInto(dst, logits)
		for i := range dst.data {
			dst.data[i] = (dst.data[i] - labels.data[i]) * inv
		}
		return dst
	}
	sm := dst
	if ShapeEq(dst.shape, logits.shape) {
		SoftmaxInto(dst, logits)
	} else {
		sm = Softmax(logits)
	}
	return MulScalarInto(dst, SubInto(dst, sm, labels), inv)
}

// MSEInto computes mean squared error (broadcast) into scalar dst; only
// differing shapes rent scratch from alloc.
func MSEInto(dst, pred, target *Tensor, alloc Allocator) *Tensor {
	checkDst(dst, nil, "MSEInto")
	s, n := 0.0, len(pred.data)
	if SameShape(pred, target) {
		for i := range pred.data {
			d := pred.data[i] - target.data[i]
			s += d * d
		}
	} else {
		alloc = orHeap(alloc)
		diff := alloc.Get(mustBroadcast(pred, target)...)
		for _, d := range SubInto(diff, pred, target).data {
			s += d * d
		}
		n = len(diff.data)
		alloc.Put(diff)
	}
	if n > 0 {
		s /= float64(n)
	}
	dst.data[0] = s
	return dst
}

// MSEGradInto computes the gradient of the mean squared error with respect to
// the broadcast difference pred - target, times g, into dst: shaped like that
// broadcast, which is what the mean runs over (may alias pred when it has
// that shape).
func MSEGradInto(dst, pred, target *Tensor, g float64) *Tensor {
	scale := 2 / float64(dst.Size()) * g
	if !SameShape(pred, target) {
		return MulScalarInto(dst, SubInto(dst, pred, target), scale)
	}
	checkDst(dst, pred.shape, "MSEGradInto")
	for i := range pred.data {
		dst.data[i] = (pred.data[i] - target.data[i]) * scale
	}
	return dst
}

// UnbroadcastToInto sums t over broadcast dimensions into dst (shaped like
// the pre-broadcast operand). dst must not alias t.
func UnbroadcastToInto(dst, t *Tensor) *Tensor {
	if ShapeEq(t.shape, dst.shape) {
		return CopyInto(dst, t)
	}
	clear(dst.data)
	strides := broadcastStrides(dst.shape, t.shape)
	idx := make([]int, len(t.shape))
	for i := range t.data {
		off := 0
		for d := range idx {
			off += idx[d] * strides[d]
		}
		dst.data[off] += t.data[i]
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < t.shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------------

func matmulDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 tensors, got %v x %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch: %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

// MatMulInto computes a x b into dst with the row kernel (rowkernel.go),
// split across the kernel worker pool for large problems. Each cell sums in
// ascending k, exactly like the naive triple loop (which, unlike this
// kernel, skips zero operands and so departs from IEEE for Inf/NaN). dst
// must not alias a or b; its prior contents are discarded.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matmulDims(a, b)
	checkDst(dst, []int{m, n}, "MatMulInto")
	matmulRows(dst.data, a.data, b.data, m, k, n)
	return dst
}

// TransposeInto writes the transpose of rank-2 a into dst ([n,m] for a
// [m,n]). dst must not alias a. Tiled for cache locality on large matrices.
func TransposeInto(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose wants rank 2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	checkDst(dst, []int{n, m}, "TransposeInto")
	const tile = 32
	for i0 := 0; i0 < m; i0 += tile {
		i1 := i0 + tile
		if i1 > m {
			i1 = m
		}
		for j0 := 0; j0 < n; j0 += tile {
			j1 := j0 + tile
			if j1 > n {
				j1 = n
			}
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					dst.data[j*m+i] = a.data[i*n+j]
				}
			}
		}
	}
	return dst
}
