package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// IntoKernel is the destination-passing form of a pure single-output kernel:
// instead of allocating its result it rents the output tensor (and any
// scratch) from alloc. The plan-driven executor (internal/exec) installs a
// pool-backed — and, for planned in-place nodes, input-rebinding — allocator;
// the tape (internal/autodiff) passes its pool, in backprop and for the
// executor's tape-mode forward ops; every other caller passes
// tensor.HeapAlloc through OpDef.Eval.
//
// Contract: the returned tensor must have been obtained from alloc; scratch
// rentals must be returned with alloc.Put before the kernel returns; inputs
// are only read during the call and never aliased into the output; a shape or
// rank the kernel does not cover is an error naming the op, never a second
// code path.
type IntoKernel func(n *Node, in []Val, alloc tensor.Allocator) (Val, error)

// Kernel computes a pure op's one output from its inputs on the Go heap.
type Kernel func(n *Node, in []Val) (Val, error)

// Emitter receives the ops a gradient rule emits and hands back a handle to
// each result. A *Graph adds them as nodes (Gradients); the eager tape in
// internal/autodiff evaluates each at once. Handles belong to the emitter —
// Ports for a graph, values for the tape — and rules only pass them on.
// Emitted attrs maps are never written, so a rule may share one across
// calls.
type Emitter interface {
	Emit(op string, attrs map[string]Val, in Args) Val
}

// Args holds the inputs of one emitted op by value: a call through the
// Emitter interface then allocates nothing, where a variadic slice would
// escape to the heap on every emission. In builds it.
type Args struct {
	n    int
	inl  [3]Val
	more []Val // the inputs, when there are more than fit inline
}

// In packs vs as the inputs of an emitted op. It keeps no reference to vs.
func In(vs ...Val) Args {
	a := Args{n: len(vs)}
	if len(vs) <= len(a.inl) {
		copy(a.inl[:], vs)
	} else {
		a.more = append([]Val(nil), vs...)
	}
	return a
}

// Len is the number of inputs.
func (a *Args) Len() int { return a.n }

// At is input i.
func (a *Args) At(i int) Val {
	if a.more != nil {
		return a.more[i]
	}
	return a.inl[:a.n][i]
}

// AppendTo appends the inputs to dst.
func (a *Args) AppendTo(dst []Val) []Val {
	if a.more != nil {
		return append(dst, a.more...)
	}
	return append(dst, a.inl[:a.n]...)
}

// GradFunc is an op's gradient rule, written once for both engines. It reads
// only n.Op and n.Attrs of the forward op; in, out and gout are the emitter's
// handles for the forward inputs, the forward output and the gradient
// reaching that output. Input i's contribution is reported as add(i, g).
type GradFunc func(e Emitter, n *Node, in []Val, out, gout Val, add func(i int, g Val)) error

// OpDef is the single definition of an op: its kernel, its gradient rule,
// and the facts the memory planner and the optimizer passes need. Every
// consumer — the executor's fast and generic paths, constant folding, CSE,
// DCE, fusion, BuildMemoryPlan, Gradients, the eager tape — reads this
// table, so an op is added by registering one OpDef (DESIGN.md "Adding an
// op").
type OpDef struct {
	Name string
	// Into is the op's destination-passing kernel.
	Into IntoKernel
	// Kernel is the allocating kernel of a pure op that has no Into form
	// (non-tensor results, variadic inputs, value forwarding). An op with
	// neither kernel is implemented by the executor (internal/exec/nodes.go).
	Kernel Kernel
	// Grad is the op's gradient rule, run by Gradients and by the tape. An
	// op with neither Grad nor StopGrad makes Gradients fail with "no
	// gradient registered", and the tape does not record it.
	Grad GradFunc
	// StopGrad marks leaves and non-differentiable ops: a gradient reaching
	// the op is dropped silently.
	StopGrad bool
	// ReadsOnly states that the op only reads its tensor inputs during its
	// own execution: it neither retains a reference afterwards nor aliases
	// an input into an output (Identity/Assert/Switch/Merge alias by class
	// union instead). Without it the memory plan pins the op's inputs, which
	// costs buffer reuse, never correctness.
	ReadsOnly bool
	// InPlace states that Into may overwrite input 0 when it dies at this
	// node: the kernel calls alloc.Get exactly once before any scratch
	// rental, with input 0's shape whenever in-place is legal, and reads
	// index i of every same-shape input before writing index i.
	InPlace bool
	// Fresh states that an op without an Into kernel still yields a freshly
	// allocated, execution-private tensor the pool may adopt. Into kernels
	// are fresh by contract.
	Fresh bool
	// SideEffect keeps the op alive regardless of liveness and out of
	// folding, CSE and fusion (state mutation, assertion, output).
	SideEffect bool
	// Fuse makes the op a link of fused elementwise chains. It has one
	// entry per input: the tensor.FusedOpCode, plus one, that applies the op
	// to a chain value arriving at that input, the other input (if any)
	// becoming the step's extra operand; zero means the op has no pointwise
	// form in that orientation. Nil keeps the op out of fusion.
	Fuse []uint8
	// Shape is the output shape rule of an op a builtin signature emits:
	// in[i] is input i's shape (an index list's is its length), nil when
	// unknown; a rank-0 shape is empty, not nil. ok is false when the known
	// shapes do not fix the output's. The converter records the result so
	// that len(), .shape and tensor indexing fold at build time.
	Shape func(attrs map[string]Val, in [][]int) (shape []int, ok bool)
}

var ops = map[string]*OpDef{}

// register adds defs to the op table; registering a name twice is a
// programming error caught at start-up. The flag invariants (in-place needs
// an Into kernel, one kernel per op, ...) are pinned by opdef_test.go.
func register(defs ...OpDef) {
	for i := range defs {
		d := &defs[i]
		if ops[d.Name] != nil {
			panic("graph: op " + d.Name + " registered twice")
		}
		ops[d.Name] = d
	}
}

// Lookup returns op's definition, or nil for an unregistered op.
func Lookup(op string) *OpDef { return ops[op] }

// Foldable reports whether the op is pure — it has a kernel here rather
// than an implementation in the executor — and may therefore be evaluated at
// graph-optimization time and merged by CSE. An unregistered op (nil) is
// not.
func (d *OpDef) Foldable() bool { return d != nil && (d.Into != nil || d.Kernel != nil) }

// fuseAs encodes a step code as an OpDef.Fuse entry.
func fuseAs(c tensor.FusedOpCode) uint8 { return uint8(c) + 1 }

// FusedCode returns the step code that applies the op to a chain value
// arriving at input pos of a node with arity inputs; ok is false when the op,
// that arity or that orientation does not fuse.
func (d *OpDef) FusedCode(arity, pos int) (code tensor.FusedOpCode, ok bool) {
	if d == nil || len(d.Fuse) != arity || pos >= arity || d.Fuse[pos] == 0 {
		return 0, false
	}
	return tensor.FusedOpCode(d.Fuse[pos] - 1), true
}

// Eval runs a pure op on the Go heap: the executor's generic path without a
// tape, the interpreter's tape and the constant folder all come through
// here.
func (d *OpDef) Eval(n *Node, in []Val) (Val, error) {
	if d.Into != nil {
		return d.Into(n, in, tensor.HeapAlloc)
	}
	if d.Kernel == nil {
		return nil, fmt.Errorf("%s: op has no kernel", d.Name)
	}
	return d.Kernel(n, in)
}

// --- shape rules ---------------------------------------------------------------

// sameShape is the Shape rule of an op whose output has its input's shape.
func sameShape(_ map[string]Val, in [][]int) ([]int, bool) { return in[0], in[0] != nil }

// scalarShape is the Shape rule of a reduction to a scalar, whatever its
// inputs' shapes.
func scalarShape(map[string]Val, [][]int) ([]int, bool) { return []int{}, true }

// --- kernel adapters and input coercion --------------------------------------

// t1, t2 and t3 coerce exactly one, two or three tensor inputs, naming the
// op in the error.
func t1(n *Node, in []Val) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("%s: want 1 input, got %d", n.Op, len(in))
	}
	a, err := AsTensor(in[0])
	if err != nil {
		return nil, fmt.Errorf("%s: %v", n.Op, err)
	}
	return a, nil
}

func t2(n *Node, in []Val) (a, b *tensor.Tensor, err error) {
	if len(in) != 2 {
		return nil, nil, fmt.Errorf("%s: want 2 inputs, got %d", n.Op, len(in))
	}
	if a, err = AsTensor(in[0]); err == nil {
		b, err = AsTensor(in[1])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", n.Op, err)
	}
	return a, b, nil
}

func t3(n *Node, in []Val) (a, b, c *tensor.Tensor, err error) {
	if len(in) != 3 {
		return nil, nil, nil, fmt.Errorf("%s: want 3 inputs, got %d", n.Op, len(in))
	}
	if a, err = AsTensor(in[0]); err == nil {
		if b, err = AsTensor(in[1]); err == nil {
			c, err = AsTensor(in[2])
		}
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %v", n.Op, err)
	}
	return a, b, c, nil
}

// mapInto adapts a same-shape unary tensor kernel.
func mapInto(f func(dst, a *tensor.Tensor) *tensor.Tensor) IntoKernel {
	return func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
		a, err := t1(n, in)
		if err != nil {
			return nil, err
		}
		return f(alloc.Get(a.Shape()...), a), nil
	}
}

// zipInto adapts a broadcasting binary tensor kernel.
func zipInto(f func(dst, a, b *tensor.Tensor) *tensor.Tensor) IntoKernel {
	return func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
		a, b, err := t2(n, in)
		if err != nil {
			return nil, err
		}
		shape, err := broadcastShape(n, a, b)
		if err != nil {
			return nil, err
		}
		return f(alloc.Get(shape...), a, b), nil
	}
}

// broadcastShape returns the broadcast of a's and b's shapes, naming the op
// when they are incompatible.
func broadcastShape(n *Node, a, b *tensor.Tensor) ([]int, error) {
	if tensor.SameShape(a, b) {
		return a.Shape(), nil
	}
	shape, err := tensor.BroadcastShapes(a.Shape(), b.Shape())
	if err != nil {
		return nil, fmt.Errorf("%s: %v", n.Op, err)
	}
	return shape, nil
}

// reduceInto adapts a full reduction to a rank-0 destination.
func reduceInto(f func(dst, a *tensor.Tensor) *tensor.Tensor) IntoKernel {
	return func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
		a, err := t1(n, in)
		if err != nil {
			return nil, err
		}
		return f(alloc.Get(), a), nil
	}
}

// appendTensors appends every element of vs, coerced, to dst (variadic
// joins, Fused operands). A caller passing a stack buffer keeps the common
// short lists off the heap.
func appendTensors(dst []*tensor.Tensor, n *Node, vs []Val) ([]*tensor.Tensor, error) {
	for _, v := range vs {
		t, err := AsTensor(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", n.Op, err)
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// appendInts appends the index list v — ints, a list of ints, or a tensor of
// them — to dst.
func appendInts(dst []int, v Val, n *Node) ([]int, error) {
	switch x := v.(type) {
	case []int:
		return append(dst, x...), nil
	case *tensor.Tensor:
		for _, f := range x.Data() {
			dst = append(dst, int(f))
		}
		return dst, nil
	case []Val:
		for _, e := range x {
			iv, err := AsInt(e)
			if err != nil {
				return nil, err
			}
			dst = append(dst, iv)
		}
		return dst, nil
	case int:
		return append(dst, x), nil
	}
	return nil, fmt.Errorf("%s: cannot use %T as index list", n.Op, v)
}
