package graph

import (
	"fmt"

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

// gradReshapeLike restores the input's shape on the way back (Reshape,
// ExpandDims).
func gradReshapeLike(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
	addGrad(n.Inputs[0], g.Add("ReshapeLike", nil, gout, n.Inputs[0]).P())
	return nil
}

// sliceKernel cuts [lo, hi) along axis out of input 0 (Slice, and
// ConcatGradSlice on the upstream gradient of one concat input).
func sliceKernel(n *Node, in []Val) ([]Val, error) {
	a, err := t1(n, in)
	if err != nil {
		return nil, err
	}
	return one(tensor.SliceAxis(a, n.IntAttr("axis", 0), n.IntAttr("lo", 0), n.IntAttr("hi", 0))), nil
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

func init() {
	register(
		OpDef{Name: "Const", StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				return one(n.Attr("value")), nil
			}},
		OpDef{Name: "Identity", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				if len(in) != 1 {
					return nil, fmt.Errorf("Identity: want 1 input")
				}
				return one(in[0]), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], gout)
				return nil
			}},

		OpDef{Name: "Reshape", ReadsOnly: true, Grad: gradReshapeLike,
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
		OpDef{Name: "ReshapeLike", ReadsOnly: true, StopGrad: true,
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
		OpDef{Name: "ExpandDims", ReadsOnly: true, Grad: gradReshapeLike,
			Into: func(n *Node, in []Val, alloc tensor.Allocator) (Val, error) {
				a, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				sh := append([]int{1}, a.Shape()...)
				return tensor.CopyInto(alloc.Get(sh...), a), nil
			}},

		OpDef{Name: "Concat", ReadsOnly: true, Fresh: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				ts, err := allTensors(n, in)
				if err != nil {
					return nil, err
				}
				return one(tensor.Concat(n.IntAttr("axis", 0), ts...)), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				axis := n.IntAttr("axis", 0)
				// Each input gets the matching slice of gout; the converter
				// always knows the static widths.
				widths, ok := n.Attr("widths").([]int)
				if !ok {
					return fmt.Errorf("graph: Concat gradient needs widths attr")
				}
				off := 0
				for i, p := range n.Inputs {
					sl := g.Add("ConcatGradSlice", map[string]Val{"axis": axis, "lo": off, "hi": off + widths[i]}, gout)
					addGrad(p, sl.P())
					off += widths[i]
				}
				return nil
			}},
		OpDef{Name: "ConcatGradSlice", Kernel: sliceKernel, ReadsOnly: true, Fresh: true, StopGrad: true},
		OpDef{Name: "Slice", Kernel: sliceKernel, ReadsOnly: true, Fresh: true,
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				shape, ok := n.Attr("inShape").([]int)
				if !ok {
					return fmt.Errorf("graph: Slice gradient needs inShape attr")
				}
				sg := g.Add("SliceGrad", map[string]Val{
					"axis": n.IntAttr("axis", 0), "lo": n.IntAttr("lo", 0), "shape": shape,
				}, gout)
				addGrad(n.Inputs[0], sg.P())
				return nil
			}},
		OpDef{Name: "SliceGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				g, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				shape := n.Attr("shape").([]int)
				return one(tensor.PadSliceGrad(g, shape, n.IntAttr("axis", 0), n.IntAttr("lo", 0))), nil
			}},
		OpDef{Name: "Stack", ReadsOnly: true, Fresh: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				ts, err := allTensors(n, in)
				if err != nil {
					return nil, err
				}
				return one(tensor.Stack(ts...)), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				for i, p := range n.Inputs {
					sl := g.Add("Slice", map[string]Val{"axis": 0, "lo": i, "hi": i + 1}, gout)
					rs := g.Add("ReshapeLike", nil, sl.P(), p)
					addGrad(p, rs.P())
				}
				return nil
			}},
		// StackList stacks a runtime []Val of tensors (produced by a Loop
		// accumulator) into one tensor along a new leading axis.
		OpDef{Name: "StackList", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				xs, ok := in[0].([]Val)
				if !ok {
					return nil, fmt.Errorf("StackList: input is %T, want []Val", in[0])
				}
				ts, err := allTensors(n, xs)
				if err != nil {
					return nil, err
				}
				return one(tensor.Stack(ts...)), nil
			}},

		OpDef{Name: "Gather", ReadsOnly: true, Fresh: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				table, err := AsTensor(in[0])
				if err != nil {
					return nil, err
				}
				idx, err := asIntSlice(in[1], n)
				if err != nil {
					return nil, err
				}
				return one(tensor.Gather(table, idx)), nil
			},
			Grad: func(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
				addGrad(n.Inputs[0], g.Add("GatherGrad", nil, n.Inputs[0], n.Inputs[1], gout).P())
				return nil
			}},
		// GatherGrad(table, ids, gout) scatters gout's rows back into a
		// table-shaped gradient.
		OpDef{Name: "GatherGrad", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				table, err := AsTensor(in[0])
				if err != nil {
					return nil, err
				}
				idx, err := asIntSlice(in[1], n)
				if err != nil {
					return nil, err
				}
				g, err := AsTensor(in[2])
				if err != nil {
					return nil, err
				}
				return one(tensor.ScatterAddRows(table.Shape(), idx, g)), nil
			}},
		OpDef{Name: "OneHot", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				idx, err := asIntSlice(in[0], n)
				if err != nil {
					return nil, err
				}
				return one(tensor.OneHot(idx, n.IntAttr("depth", 0))), nil
			}},
		OpDef{Name: "Argmax", ReadsOnly: true, Fresh: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				x, err := t1(n, in)
				if err != nil {
					return nil, err
				}
				return one(tensor.ArgmaxAxis(x, n.IntAttr("axis", -1))), nil
			}},

		OpDef{Name: "Len", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				switch x := in[0].(type) {
				case *tensor.Tensor:
					if x.Rank() == 0 {
						return nil, fmt.Errorf("Len of rank-0 tensor")
					}
					return one(x.Dim(0)), nil
				case []Val:
					return one(len(x)), nil
				}
				return nil, fmt.Errorf("Len: unsupported %T", in[0])
			}},
		// Cmp compares two scalars into a bool; used for specialized branch
		// predicates and loop conditions.
		OpDef{Name: "Cmp", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
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
				return one(r), nil
			}},
		OpDef{Name: "Not", ReadsOnly: true, StopGrad: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				b, err := AsBool(in[0])
				if err != nil {
					return nil, err
				}
				return one(!b), nil
			}},

		// Pack boxes its inputs into a []Val tuple (multi-value results). The
		// tuple retains them, so Pack is not ReadsOnly.
		OpDef{Name: "Pack",
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				return one(append([]Val(nil), in...)), nil
			}},
		OpDef{Name: "Unpack", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				xs, ok := in[0].([]Val)
				if !ok {
					return nil, fmt.Errorf("Unpack: input is %T", in[0])
				}
				i := n.IntAttr("index", 0)
				if i < 0 || i >= len(xs) {
					return nil, fmt.Errorf("Unpack: index %d out of range (%d elems)", i, len(xs))
				}
				return one(xs[i]), nil
			}},
		// IndexAny is the generic subscript: runtime []Val lists index by
		// element; tensors slice their leading axis.
		OpDef{Name: "IndexAny", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
				i, err := AsInt(in[1])
				if err != nil {
					return nil, err
				}
				switch x := in[0].(type) {
				case []Val:
					if i, err = listIndex(n, i, len(x)); err != nil {
						return nil, err
					}
					return one(x[i]), nil
				case *tensor.Tensor:
					if x.Rank() == 0 {
						return nil, fmt.Errorf("IndexAny: rank-0 tensor")
					}
					if i < 0 {
						i += x.Dim(0)
					}
					sl := tensor.SliceAxis(x, 0, i, i+1)
					return one(sl.Reshape(x.Shape()[1:]...)), nil
				}
				return nil, fmt.Errorf("IndexAny: unsupported %T", in[0])
			}},
		OpDef{Name: "IndexList", ReadsOnly: true,
			Kernel: func(n *Node, in []Val) ([]Val, error) {
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
				return one(xs[i]), nil
			}},
	)
}
