package graph

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Constants, shape manipulation, joins and slices, embedding lookups, and the
// scalar / list helpers the converter emits around control flow.

// resolveReshape resolves a reshape target (a single -1 dim is inferred)
// against an element count.
func resolveReshape(size int, shape []int) ([]int, error) {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				return nil, fmt.Errorf("multiple -1 dims in reshape %v", shape)
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || size%known != 0 {
			return nil, fmt.Errorf("cannot infer dim reshaping %d elements to %v", size, shape)
		}
		out[infer] = size / known
	}
	if tensor.NumElements(out) != size {
		return nil, fmt.Errorf("cannot reshape %d elements to %v", size, shape)
	}
	return out, nil
}

// reshapeShape is Reshape's Shape rule: the target with its -1 dim
// resolved against the input's element count, or the target as it stands
// when the input has a dim known only at run time or no dim can be inferred.
func reshapeShape(attrs map[string]Val, in [][]int) ([]int, bool) {
	target, ok := attrs["shape"].([]int)
	if !ok || in[0] == nil {
		return nil, false
	}
	n := 1
	for _, d := range in[0] {
		if d < 0 {
			return target, true
		}
		n *= d
	}
	out := append([]int(nil), target...)
	known, infer := 1, -1
	for i, d := range out {
		if d == -1 {
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 && known > 0 && n%known == 0 {
		out[infer] = n / known
	}
	return out, true
}

// concatShape is Concat's Shape rule: every input's width along the axis
// must be known.
func concatShape(attrs map[string]Val, in [][]int) ([]int, bool) {
	if len(in) == 0 || in[0] == nil {
		return nil, false
	}
	axis := intAttr(attrs, "axis", 0)
	total := 0
	for _, sh := range in {
		ax := axis
		if ax < 0 {
			ax += len(sh)
		}
		if sh == nil || ax < 0 || ax >= len(sh) || sh[ax] < 0 {
			return nil, false
		}
		total += sh[ax]
	}
	out := append([]int(nil), in[0]...)
	if axis < 0 {
		axis += len(out)
	}
	out[axis] = total
	return out, true
}

// gradReshapeLike restores the input's shape on the way back (Reshape,
// ReshapeLike, ExpandDims). ReshapeLike's shape input gets no gradient.
func gradReshapeLike(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
	add(0, e.Emit("ReshapeLike", nil, In(gout, in[0])))
	return nil
}

// gradIdentity passes the gradient through unchanged (Identity, and
// BatchNorm's approximation).
func gradIdentity(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
	add(0, gout)
	return nil
}

// listIndex resolves a possibly negative index into a list of length size.
func listIndex(n *Node, i, size int) (int, error) {
	if i < 0 {
		i += size
	}
	if i < 0 || i >= size {
		return 0, fmt.Errorf("%s: index %d out of range (%d elems)", n.Op, i, size)
	}
	return i, nil
}

// checkRows reports an error unless table is rank 2 and every index in idx
// names one of its rows.
func checkRows(n *Node, table *tensor.Tensor, idx []int) error {
	if table.Rank() != 2 {
		return fmt.Errorf("%s: want a rank-2 table, got %v", n.Op, table.Shape())
	}
	for _, id := range idx {
		if id < 0 || id >= table.Dim(0) {
			return fmt.Errorf("%s: index %d out of range [0,%d)", n.Op, id, table.Dim(0))
		}
	}
	return nil
}

// sliceAttrs returns the attrs {"axis", "lo", "hi"} of a Slice, or, with hi
// < 0, {"axis", "lo"} of a SliceGrad: the maps the Slice and Stack rules
// emit. Each distinct map is built once, up to sliceAttrsCap of them, and
// shared; no one writes an emitted attrs map.
func sliceAttrs(axis, lo, hi int) map[string]Val {
	k := [3]int{axis, lo, hi}
	sliceMemo.Lock()
	defer sliceMemo.Unlock()
	if m, ok := sliceMemo.m[k]; ok {
		return m
	}
	m := map[string]Val{"axis": axis, "lo": lo}
	if hi >= 0 {
		m["hi"] = hi
	}
	if len(sliceMemo.m) < sliceAttrsCap {
		sliceMemo.m[k] = m
	}
	return m
}

// sliceAttrsCap bounds the memo of sliceAttrs: slices of a few tensors'
// rows, however many steps run.
const sliceAttrsCap = 1024

var sliceMemo = struct {
	sync.Mutex
	m map[[3]int]map[string]Val
}{m: make(map[[3]int]map[string]Val)}

func init() {
	register(
		OpDef{Name: "Const", StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				return n.Attr("value"), nil
			}},
		OpDef{Name: "Identity", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				if len(in) != 1 {
					return nil, fmt.Errorf("Identity: want 1 input")
				}
				return in[0], nil
			},
			Grad: gradIdentity},

		OpDef{Name: "Reshape", ReadsOnly: true, Grad: gradReshapeLike, Shape: reshapeShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				shape, ok := n.Attr("shape").([]int)
				if !ok {
					return nil, fmt.Errorf("Reshape: missing shape attr")
				}
				resolved, err := resolveReshape(a.Size(), shape)
				if err != nil {
					return nil, fmt.Errorf("Reshape: %v", err)
				}
				return tensor.CopyInto(alloc.Get(resolved...), a), nil
			}},
		// ReshapeLike reshapes input 0 to the shape of input 1 at run time.
		OpDef{Name: "ReshapeLike", ReadsOnly: true, Grad: gradReshapeLike,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, ref, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if a.Size() != ref.Size() {
					return nil, fmt.Errorf("%s: cannot reshape %v to %v", n.Op, a.Shape(), ref.Shape())
				}
				return tensor.CopyInto(alloc.Get(ref.Shape()...), a), nil
			}},
		OpDef{Name: "Concat", ReadsOnly: true, Shape: concatShape,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				var tb [8]*tensor.Tensor
				ts, err := appendTensors(tb[:0], n, in)
				if err != nil {
					return nil, err
				}
				axis := n.IntAttr("axis", 0)
				var sb [8]int
				shape := tensor.ConcatShape(sb[:0], axis, ts...)
				return tensor.ConcatInto(tensor.Rent(alloc, shape...), axis, ts...), nil
			},
			// Each input gets its own slice of gout, located from the
			// widths of the inputs up to it at run time. ConcatGradSlice
			// reads the axis from the forward node's own attrs.
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				var buf [4]Val
				args := append(buf[:0], gout)
				for i := range in {
					args = append(args, in[i])
					add(i, e.Emit("ConcatGradSlice", n.Attrs, In(args...)))
				}
				return nil
			}},
		// ConcatGradSlice(g, x0, ..., xi) cuts xi's share out of the
		// gradient g of a Concat along "axis" whose first inputs are x0..xi.
		OpDef{Name: "ConcatGradSlice", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				if len(in) < 2 {
					return nil, fmt.Errorf("%s: want a gradient and at least 1 input, got %d values", n.Op, len(in))
				}
				g, err := AsTensor(in[0])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", n.Op, err)
				}
				axis := n.IntAttr("axis", 0)
				if axis < 0 {
					axis += g.Rank()
				}
				if axis < 0 || axis >= g.Rank() {
					return nil, fmt.Errorf("%s: axis %d out of range for %v", n.Op, n.IntAttr("axis", 0), g.Shape())
				}
				// xi's share has xi's shape: Concat inputs agree with the
				// result off the axis.
				lo := 0
				var x *tensor.Tensor
				for _, v := range in[1:] {
					if x != nil {
						lo += x.Dim(axis)
					}
					if x, err = AsTensor(v); err != nil {
						return nil, fmt.Errorf("%s: %v", n.Op, err)
					}
					if x.Rank() != g.Rank() {
						return nil, fmt.Errorf("%s: input %v is not a part of the gradient %v", n.Op, x.Shape(), g.Shape())
					}
				}
				for d, w := range x.Shape() {
					if d == axis && lo+w > g.Dim(d) || d != axis && w != g.Dim(d) {
						return nil, fmt.Errorf("%s: input %v at offset %d along axis %d is not a part of the gradient %v", n.Op, x.Shape(), lo, axis, g.Shape())
					}
				}
				return tensor.SliceAxisInto(alloc.Get(x.Shape()...), g, axis, lo, lo+x.Dim(axis)), nil
			}},
		OpDef{Name: "Slice", ReadsOnly: true, Fresh: true,
			Shape: func(attrs map[string]Val, in [][]int) ([]int, bool) {
				axis := intAttr(attrs, "axis", 0)
				if axis < 0 || axis >= len(in[0]) {
					return nil, false
				}
				out := append([]int(nil), in[0]...)
				out[axis] = intAttr(attrs, "hi", 0) - intAttr(attrs, "lo", 0)
				return out, true
			},
			Kernel: func(n *Node, in []Val) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.SliceAxis(a, n.IntAttr("axis", 0), n.IntAttr("lo", 0), n.IntAttr("hi", 0)), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("SliceGrad", sliceAttrs(n.IntAttr("axis", 0), n.IntAttr("lo", 0), -1), In(gout, in[0])))
				return nil
			}},
		// SliceGrad(g, x) places g at [lo, lo+len) along axis of a zero
		// tensor shaped like x.
		OpDef{Name: "SliceGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				g, x, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.PadSliceGrad(g, x.Shape(), n.IntAttr("axis", 0), n.IntAttr("lo", 0)), nil
			}},
		OpDef{Name: "Stack", ReadsOnly: true, Fresh: true,
			Shape: func(_ map[string]Val, in [][]int) ([]int, bool) {
				if len(in) == 0 || in[0] == nil {
					return nil, false
				}
				return append([]int{len(in)}, in[0]...), true
			},
			Kernel: func(n *Node, in []Val) (Val, error) {
				ts, err := appendTensors(nil, n, in)
				if err != nil {
					return nil, err
				}
				return tensor.Stack(ts...), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				for i := range in {
					sl := e.Emit("Slice", sliceAttrs(0, i, i+1), In(gout))
					add(i, e.Emit("ReshapeLike", nil, In(sl, in[i])))
				}
				return nil
			}},
		// StackList stacks a runtime []Val of tensors (produced by a Loop
		// accumulator) into one tensor along a new leading axis. Its list
		// input gets a list gradient.
		OpDef{Name: "StackList", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				xs, ok := in[0].([]Val)
				if !ok {
					return nil, fmt.Errorf("StackList: input is %T, want []Val", in[0])
				}
				ts, err := appendTensors(nil, n, xs)
				if err != nil {
					return nil, err
				}
				return tensor.Stack(ts...), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("Unstack", nil, In(gout)))
				return nil
			}},
		// Unstack splits a tensor along its leading axis into a []Val list.
		OpDef{Name: "Unstack", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				if x.Rank() == 0 {
					return nil, fmt.Errorf("%s: rank-0 tensor", n.Op)
				}
				rows := make([]Val, x.Dim(0))
				for i := range rows {
					rows[i] = tensor.SliceAxis(x, 0, i, i+1).Reshape(x.Shape()[1:]...)
				}
				return rows, nil
			}},

		OpDef{Name: "Gather", ReadsOnly: true,
			Shape: func(_ map[string]Val, in [][]int) ([]int, bool) {
				if len(in[0]) != 2 || len(in[1]) != 1 || in[1][0] < 0 {
					return nil, false
				}
				return []int{in[1][0], in[0][1]}, true
			},
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				if len(in) != 2 {
					return nil, fmt.Errorf("%s: want 2 inputs, got %d", n.Op, len(in))
				}
				table, err := AsTensor(in[0])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", n.Op, err)
				}
				var ib [8]int
				idx, err := appendInts(ib[:0], in[1], n)
				if err != nil {
					return nil, err
				}
				if err := checkRows(n, table, idx); err != nil {
					return nil, err
				}
				return tensor.GatherInto(tensor.Rent(alloc, len(idx), table.Dim(1)), table, idx), nil
			},
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("GatherGrad", nil, In(in[0], in[1], gout)))
				return nil
			}},
		// GatherGrad(table, ids, gout) scatters gout's rows back into a
		// table-shaped gradient.
		OpDef{Name: "GatherGrad", ReadsOnly: true, StopGrad: true,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				if len(in) != 3 {
					return nil, fmt.Errorf("%s: want 3 inputs, got %d", n.Op, len(in))
				}
				table, err := AsTensor(in[0])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", n.Op, err)
				}
				var ib [8]int
				idx, err := appendInts(ib[:0], in[1], n)
				if err != nil {
					return nil, err
				}
				g, err := AsTensor(in[2])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", n.Op, err)
				}
				if err := checkRows(n, table, idx); err != nil {
					return nil, err
				}
				if g.Rank() != 2 || g.Dim(0) != len(idx) || g.Dim(1) != table.Dim(1) {
					return nil, fmt.Errorf("%s: gradient %v for %d rows of a %v table", n.Op, g.Shape(), len(idx), table.Shape())
				}
				return tensor.ScatterAddRowsInto(alloc.Get(table.Shape()...), idx, g), nil
			}},
		OpDef{Name: "OneHot", ReadsOnly: true, Fresh: true, StopGrad: true,
			Shape: func(attrs map[string]Val, in [][]int) ([]int, bool) {
				if len(in[0]) != 1 || in[0][0] < 0 {
					return nil, false
				}
				return []int{in[0][0], intAttr(attrs, "depth", 0)}, true
			},
			Kernel: func(n *Node, in []Val) (Val, error) {
				idx, err := appendInts(nil, in[0], n)
				if err != nil {
					return nil, err
				}
				return tensor.OneHot(idx, n.IntAttr("depth", 0)), nil
			}},
		OpDef{Name: "Argmax", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				return tensor.ArgmaxAxis(x, n.IntAttr("axis", -1)), nil
			}},

		OpDef{Name: "Len", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				switch x := in[0].(type) {
				case *tensor.Tensor:
					if x.Rank() == 0 {
						return nil, fmt.Errorf("Len of rank-0 tensor")
					}
					return x.Dim(0), nil
				case []Val:
					return len(x), nil
				}
				return nil, fmt.Errorf("Len: unsupported %T", in[0])
			}},
		// Cmp compares two scalars into a bool; used for specialized branch
		// predicates and loop conditions.
		OpDef{Name: "Cmp", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				a, b, err := t2(n, in)
				if err != nil {
					return nil, err
				}
				if a.Size() != 1 || b.Size() != 1 {
					return nil, fmt.Errorf("Cmp wants scalars")
				}
				av, bv := a.Item(), b.Item()
				var r bool
				switch n.StrAttr("op") {
				case "==":
					r = av == bv
				case "!=":
					r = av != bv
				case "<":
					r = av < bv
				case "<=":
					r = av <= bv
				case ">":
					r = av > bv
				case ">=":
					r = av >= bv
				default:
					return nil, fmt.Errorf("Cmp: bad op %q", n.StrAttr("op"))
				}
				return r, nil
			}},
		OpDef{Name: "Not", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				b, err := AsBool(in[0])
				if err != nil {
					return nil, err
				}
				return !b, nil
			}},

		// Pack boxes its inputs into a []Val tuple (multi-value results). The
		// tuple retains them, so Pack is not ReadsOnly.
		OpDef{Name: "Pack",
			Kernel: func(n *Node, in []Val) (Val, error) {
				return append([]Val(nil), in...), nil
			}},
		// IndexAny is the generic subscript: runtime []Val lists index by
		// element; tensors slice their leading axis. Only the tensor case
		// computes a value, so only it is differentiated: a list element is
		// forwarded as it is.
		OpDef{Name: "IndexAny", ReadsOnly: true,
			Grad: func(e Emitter, n *Node, in []Val, out, gout Val, add func(int, Val)) error {
				add(0, e.Emit("IndexAnyGrad", nil, In(gout, in[0], in[1])))
				return nil
			},
			Kernel: func(n *Node, in []Val) (Val, error) {
				i, err := AsInt(in[1])
				if err != nil {
					return nil, err
				}
				switch x := in[0].(type) {
				case []Val:
					if i, err = listIndex(n, i, len(x)); err != nil {
						return nil, err
					}
					return x[i], nil
				case *tensor.Tensor:
					if x.Rank() == 0 {
						return nil, fmt.Errorf("IndexAny: rank-0 tensor")
					}
					if i < 0 {
						i += x.Dim(0)
					}
					sl := tensor.SliceAxis(x, 0, i, i+1)
					return sl.Reshape(x.Shape()[1:]...), nil
				}
				return nil, fmt.Errorf("IndexAny: unsupported %T", in[0])
			}},
		// IndexAnyGrad(g, x, i) places g at row i of a zero tensor shaped
		// like x.
		OpDef{Name: "IndexAnyGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				if len(in) != 3 {
					return nil, fmt.Errorf("%s: want 3 inputs, got %d", n.Op, len(in))
				}
				g, x, err := t2(n, in[:2])
				if err != nil {
					return nil, err
				}
				i, err := AsInt(in[2])
				if err != nil {
					return nil, err
				}
				if x.Rank() == 0 || g.Size()*x.Dim(0) != x.Size() {
					return nil, fmt.Errorf("%s: gradient %v is not a row of %v", n.Op, g.Shape(), x.Shape())
				}
				if i, err = listIndex(n, i, x.Dim(0)); err != nil {
					return nil, err
				}
				out := tensor.Zeros(x.Shape()...)
				copy(out.Data()[i*g.Size():], g.Data())
				return out, nil
			}},
		OpDef{Name: "IndexList", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) (Val, error) {
				xs, ok := in[0].([]Val)
				if !ok {
					return nil, fmt.Errorf("IndexList: input is %T", in[0])
				}
				i, err := AsInt(in[1])
				if err != nil {
					return nil, err
				}
				if i, err = listIndex(n, i, len(xs)); err != nil {
					return nil, err
				}
				return xs[i], nil
			}},
	)
}
