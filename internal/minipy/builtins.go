package minipy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// Builtin is one external function exposed to minipy programs. The registry
// is the paper's whitelist (§4.3.1): GraphOp tells the speculative graph
// generator which symbolic operation represents the call; builtins with an
// empty GraphOp have no graph representation, so a call to one marks the
// function imperative-only.
type Builtin struct {
	Name string
	Fn   func(it *Interp, args []Value, kwargs map[string]Value) (Value, error)
	// GraphOp is the symbolic op emitted for this call ("" = not convertible).
	GraphOp string
	// Stateful builtins mutate external state; in graph mode their execution
	// is deferred until all assumptions validate (§4.3.1).
	Stateful bool
}

// Registry maps builtin names to implementations.
type Registry struct {
	byName map[string]*Builtin
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*Builtin)} }

// Register adds (or replaces) a builtin.
func (r *Registry) Register(b *Builtin) { r.byName[b.Name] = b }

// Get returns the builtin or nil.
func (r *Registry) Get(name string) *Builtin { return r.byName[name] }

// Names returns registered names sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for k := range r.byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clone copies the registry so engines can add private builtins.
func (r *Registry) Clone() *Registry {
	out := NewRegistry()
	for k, v := range r.byName {
		out.byName[k] = v
	}
	return out
}

// Store gives builtins access to the shared parameter store. Engines must
// set it on the Interp before running programs that call variable().
// It lives here (not on Registry) because each engine instance owns a store.
func (it *Interp) SetStore(s *vars.Store) { it.store = s }

// --- argument helpers -------------------------------------------------------

func wantArgs(args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("want %d arguments, got %d", n, len(args))
	}
	return nil
}

func argTensor(args []Value, i int) (*autodiff.Node, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("missing argument %d", i)
	}
	switch v := args[i].(type) {
	case *TensorVal:
		return v.Node, nil
	case IntVal:
		return autodiff.Const(tensor.Scalar(float64(v))), nil
	case FloatVal:
		return autodiff.Const(tensor.Scalar(float64(v))), nil
	}
	return nil, fmt.Errorf("argument %d: want tensor, got %s", i, args[i].TypeName())
}

func argInt(args []Value, i int) (int, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing argument %d", i)
	}
	n, ok := AsInt(args[i])
	if !ok {
		return 0, fmt.Errorf("argument %d: want int, got %s", i, args[i].TypeName())
	}
	return int(n), nil
}

func argShape(args []Value, i int) ([]int, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("missing shape argument %d", i)
	}
	items, err := unpack(args[i])
	if err != nil {
		return nil, fmt.Errorf("argument %d: want shape list, got %s", i, args[i].TypeName())
	}
	out := make([]int, len(items))
	for j, v := range items {
		n, ok := AsInt(v)
		if !ok {
			return nil, fmt.Errorf("shape element %d is not an int", j)
		}
		out[j] = int(n)
	}
	return out, nil
}

func kwInt(kwargs map[string]Value, name string, def int) (int, error) {
	v, ok := kwargs[name]
	if !ok {
		return def, nil
	}
	n, ok := AsInt(v)
	if !ok {
		return 0, fmt.Errorf("keyword %s: want int", name)
	}
	return int(n), nil
}

// applyOp runs graph op on the interpreter's tape — recorded for backprop
// when a tape is active and an input is tracked, only evaluated otherwise —
// with the executor's kernel, and wraps the tensor result.
func (it *Interp) applyOp(op string, attrs map[string]graph.Val, in ...graph.Val) (Value, error) {
	v, err := it.Tape.Apply(graph.Lookup(op), &graph.Node{Op: op, Attrs: attrs}, in, false)
	if err != nil {
		return nil, err
	}
	return tensorResult(v)
}

// tensorResult wraps a tape result (a node, or a plain tensor) as a value.
func tensorResult(v graph.Val) (Value, error) {
	switch x := v.(type) {
	case *autodiff.Node:
		return &TensorVal{Node: x}, nil
	case *tensor.Tensor:
		return NewTensor(x), nil
	}
	return nil, fmt.Errorf("tensor op returned %T", v)
}

// unaryBuiltin registers a one-tensor-in, one-tensor-out builtin that runs
// its graph op.
func unaryBuiltin(name, graphOp string) *Builtin {
	return &Builtin{
		Name:    name,
		GraphOp: graphOp,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			return it.applyOp(graphOp, nil, x)
		},
	}
}

// tensorArgs returns the tape nodes of the tensor elements of a list.
func tensorArgs(name string, items []Value) ([]graph.Val, error) {
	in := make([]graph.Val, len(items))
	for i := range items {
		tv, ok := items[i].(*TensorVal)
		if !ok {
			return nil, fmt.Errorf("%s element %d is %s, not tensor", name, i, items[i].TypeName())
		}
		in[i] = tv.Node
	}
	return in, nil
}

// DefaultRegistry builds the standard builtin set shared by all engines:
// Python-style builtins (print, len, range, ...) plus the DL framework
// functions (matmul, conv2d, ...) that the paper's whitelist covers.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	// ---- Python builtins -------------------------------------------------
	r.Register(&Builtin{Name: "print", GraphOp: "Print", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			for i, a := range args {
				if i > 0 {
					it.Out.WriteString(" ")
				}
				it.Out.WriteString(toDisplay(a))
			}
			it.Out.WriteString("\n")
			return None, nil
		}})
	r.Register(&Builtin{Name: "len", GraphOp: "Len",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			switch v := args[0].(type) {
			case *ListVal:
				return IntVal(len(v.Items)), nil
			case *TupleVal:
				return IntVal(len(v.Items)), nil
			case *DictVal:
				return IntVal(len(v.Entries)), nil
			case StrVal:
				return IntVal(len(v)), nil
			case RangeVal:
				return IntVal(v.Len()), nil
			case *TensorVal:
				if v.T().Rank() == 0 {
					return nil, errors.New("len() of rank-0 tensor")
				}
				return IntVal(v.T().Dim(0)), nil
			}
			return nil, fmt.Errorf("object of type %s has no len()", args[0].TypeName())
		}})
	r.Register(&Builtin{Name: "range", GraphOp: "Range",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			switch len(args) {
			case 1:
				n, ok := AsInt(args[0])
				if !ok {
					return nil, errors.New("range() wants int")
				}
				return RangeVal{Stop: n, Step: 1}, nil
			case 2:
				a, ok1 := AsInt(args[0])
				b, ok2 := AsInt(args[1])
				if !ok1 || !ok2 {
					return nil, errors.New("range() wants ints")
				}
				return RangeVal{Start: a, Stop: b, Step: 1}, nil
			case 3:
				a, ok1 := AsInt(args[0])
				b, ok2 := AsInt(args[1])
				c, ok3 := AsInt(args[2])
				if !ok1 || !ok2 || !ok3 || c == 0 {
					return nil, errors.New("range() wants non-zero step ints")
				}
				return RangeVal{Start: a, Stop: b, Step: c}, nil
			}
			return nil, errors.New("range() wants 1-3 arguments")
		}})
	r.Register(&Builtin{Name: "int", GraphOp: "Cast",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			f, ok := AsFloat(args[0])
			if !ok {
				return nil, fmt.Errorf("int() cannot convert %s", args[0].TypeName())
			}
			if f < 0 {
				return IntVal(-int64(-f)), nil
			}
			return IntVal(int64(f)), nil
		}})
	r.Register(&Builtin{Name: "float", GraphOp: "Cast",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			f, ok := AsFloat(args[0])
			if !ok {
				return nil, fmt.Errorf("float() cannot convert %s", args[0].TypeName())
			}
			return FloatVal(f), nil
		}})
	r.Register(&Builtin{Name: "abs", GraphOp: "Abs",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			switch v := args[0].(type) {
			case IntVal:
				if v < 0 {
					return -v, nil
				}
				return v, nil
			case FloatVal:
				if v < 0 {
					return -v, nil
				}
				return v, nil
			case *TensorVal:
				return it.applyOp("Abs", nil, v.Node)
			}
			return nil, fmt.Errorf("abs() cannot handle %s", args[0].TypeName())
		}})
	r.Register(&Builtin{Name: "min", GraphOp: "Min",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if v, ok, err := tensorExtremum(it, args, false); ok {
				return v, err
			}
			return minMax(args, true)
		}})
	r.Register(&Builtin{Name: "max", GraphOp: "Max",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if v, ok, err := tensorExtremum(it, args, true); ok {
				return v, err
			}
			return minMax(args, false)
		}})

	// ---- container methods -----------------------------------------------
	r.Register(&Builtin{Name: "list.append", GraphOp: "ListAppend", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			l := args[0].(*ListVal)
			l.Items = append(l.Items, args[1])
			return None, nil
		}})
	r.Register(&Builtin{Name: "list.pop", GraphOp: "", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			l := args[0].(*ListVal)
			if len(l.Items) == 0 {
				return nil, errors.New("pop from empty list")
			}
			idx := len(l.Items) - 1
			if len(args) == 2 {
				n, ok := AsInt(args[1])
				if !ok {
					return nil, errors.New("pop index must be int")
				}
				idx = int(n)
				if idx < 0 {
					idx += len(l.Items)
				}
				if idx < 0 || idx >= len(l.Items) {
					return nil, errors.New("pop index out of range")
				}
			}
			v := l.Items[idx]
			l.Items = append(l.Items[:idx], l.Items[idx+1:]...)
			return v, nil
		}})
	r.Register(&Builtin{Name: "list.extend", GraphOp: "", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			l := args[0].(*ListVal)
			items, err := unpack(args[1])
			if err != nil {
				return nil, err
			}
			l.Items = append(l.Items, items...)
			return None, nil
		}})
	r.Register(&Builtin{Name: "list.reverse", GraphOp: "", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			l := args[0].(*ListVal)
			for i, j := 0, len(l.Items)-1; i < j; i, j = i+1, j-1 {
				l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
			}
			return None, nil
		}})
	r.Register(&Builtin{Name: "dict.get", GraphOp: "",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			d := args[0].(*DictVal)
			if len(args) < 2 {
				return nil, errors.New("get() wants a key")
			}
			k, err := DictKey(args[1])
			if err != nil {
				return nil, err
			}
			if v, ok := d.Entries[k]; ok {
				return v, nil
			}
			if len(args) == 3 {
				return args[2], nil
			}
			return None, nil
		}})
	r.Register(&Builtin{Name: "dict.keys", GraphOp: "",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			d := args[0].(*DictVal)
			keys := make([]string, 0, len(d.Entries))
			for k := range d.Entries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			items := make([]Value, len(keys))
			for i, k := range keys {
				items[i] = dictKeyToValue(k)
			}
			return &ListVal{Items: items}, nil
		}})
	r.Register(&Builtin{Name: "dict.values", GraphOp: "",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			d := args[0].(*DictVal)
			keys := make([]string, 0, len(d.Entries))
			for k := range d.Entries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			items := make([]Value, len(keys))
			for i, k := range keys {
				items[i] = d.Entries[k]
			}
			return &ListVal{Items: items}, nil
		}})

	// ---- tensor constructors ----------------------------------------------
	r.Register(&Builtin{Name: "zeros", GraphOp: "Zeros",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(tensor.Zeros(sh...)), nil
		}})
	r.Register(&Builtin{Name: "ones", GraphOp: "Ones",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(tensor.Full(1, sh...)), nil
		}})
	r.Register(&Builtin{Name: "constant", GraphOp: "Const",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			t, err := ValueToTensor(args[0])
			if err != nil {
				return nil, err
			}
			return NewTensor(t), nil
		}})
	r.Register(&Builtin{Name: "randn", GraphOp: "", Stateful: true, // consumes RNG state
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(it.rng().Randn(sh...)), nil
		}})
	r.Register(&Builtin{Name: "variable", GraphOp: "Variable",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			// variable(name, shape) — Xavier-initialized trainable parameter
			// fetched from (or created in) the shared store.
			if len(args) != 2 {
				return nil, errors.New("variable(name, shape) wants 2 arguments")
			}
			name, ok := args[0].(StrVal)
			if !ok {
				return nil, errors.New("variable name must be a string")
			}
			if it.store == nil {
				return nil, errors.New("no parameter store attached to interpreter")
			}
			sh, err := argShape(args, 1)
			if err != nil {
				return nil, err
			}
			t := it.store.GetOrCreate(string(name), func() *tensor.Tensor {
				return it.rng().Xavier(sh...)
			})
			if !tensor.ShapeEq(t.Shape(), sh) {
				return nil, fmt.Errorf("variable %q exists with shape %v, requested %v", name, t.Shape(), sh)
			}
			return &TensorVal{Node: it.Tape.Watch(string(name), t)}, nil
		}})

	// ---- tensor math (whitelisted framework functions) ---------------------
	// Each runs its GraphOp through applyOp: the executor's kernel forward,
	// the op's OpDef.Grad rule backward.
	r.Register(&Builtin{Name: "matmul", GraphOp: "MatMul",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			a, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			b, err := argTensor(args, 1)
			if err != nil {
				return nil, err
			}
			return it.applyOp("MatMul", nil, a, b)
		}})
	for _, u := range [][2]string{
		{"relu", "ReLU"}, {"sigmoid", "Sigmoid"}, {"tanh", "Tanh"}, {"exp", "Exp"}, {"log", "Log"},
		{"softmax", "Softmax"}, {"reduce_sum", "Sum"}, {"reduce_mean", "Mean"}, {"transpose", "Transpose"},
	} {
		r.Register(unaryBuiltin(u[0], u[1]))
	}
	r.Register(&Builtin{Name: "reshape", GraphOp: "Reshape",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			sh, err := argShape(args, 1)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Reshape", map[string]graph.Val{"shape": sh}, x)
		}})
	r.Register(&Builtin{Name: "concat", GraphOp: "Concat",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			// concat(list_of_tensors, axis)
			if len(args) != 2 {
				return nil, errors.New("concat(tensors, axis) wants 2 arguments")
			}
			items, err := unpack(args[0])
			if err != nil {
				return nil, err
			}
			axis, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			in, err := tensorArgs("concat", items)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Concat", map[string]graph.Val{"axis": axis}, in...)
		}})
	r.Register(&Builtin{Name: "stack", GraphOp: "Stack",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			items, err := unpack(args[0])
			if err != nil {
				return nil, err
			}
			if len(items) == 0 {
				return nil, errors.New("stack of empty list")
			}
			in, err := tensorArgs("stack", items)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Stack", nil, in...)
		}})
	r.Register(&Builtin{Name: "conv2d", GraphOp: "Conv2D",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if len(args) != 2 {
				return nil, errors.New("conv2d(x, w, stride=1, pad=0)")
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			w, err := argTensor(args, 1)
			if err != nil {
				return nil, err
			}
			stride, err := kwInt(kwargs, "stride", 1)
			if err != nil {
				return nil, err
			}
			pad, err := kwInt(kwargs, "pad", 0)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Conv2D", map[string]graph.Val{"stride": stride, "pad": pad}, x, w)
		}})
	r.Register(poolBuiltin("max_pool", "MaxPool"))
	r.Register(poolBuiltin("avg_pool", "AvgPool"))
	r.Register(&Builtin{Name: "embedding", GraphOp: "Gather",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			// embedding(table, ids): ids is a list of ints or an int tensor.
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			table, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			ids, err := valueToIntSlice(args[1])
			if err != nil {
				return nil, err
			}
			return it.applyOp("Gather", nil, table, ids)
		}})
	r.Register(lossBuiltin("cross_entropy", "CrossEntropy"))
	r.Register(lossBuiltin("mse", "MSE"))
	r.Register(&Builtin{Name: "batch_norm", GraphOp: "BatchNorm", Stateful: true,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			// batch_norm(x, name, training): gamma/beta/running stats are
			// store-managed by name. The train/eval branch lives in the
			// *calling program* (models check self.training), but the running
			// statistics update here is the state mutation that must be
			// deferred in graph mode.
			if len(args) != 3 {
				return nil, errors.New("batch_norm(x, name, training)")
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			name, ok := args[1].(StrVal)
			if !ok {
				return nil, errors.New("batch_norm name must be string")
			}
			training, err := Truthy(args[2])
			if err != nil {
				return nil, err
			}
			if it.store == nil {
				return nil, errors.New("no parameter store attached")
			}
			ch := x.Value.Shape()[1]
			gamma := it.store.GetOrCreate(string(name)+"/gamma", func() *tensor.Tensor { return tensor.Full(1, ch) })
			beta := it.store.GetOrCreate(string(name)+"/beta", func() *tensor.Tensor { return tensor.Zeros(ch) })
			rm := it.store.GetOrCreate(string(name)+"/mean", func() *tensor.Tensor { return tensor.Zeros(ch) })
			rv := it.store.GetOrCreate(string(name)+"/var", func() *tensor.Tensor { return tensor.Full(1, ch) })
			out := tensor.BatchNorm(x.Value, gamma, beta, rm, rv, training, 0.9, 1e-5)
			// The op's gradient rule passes the gradient straight through
			// (no flow into gamma/beta): normalization statistics dominate
			// the train/eval divergence the experiments exercise.
			return tensorResult(it.Tape.Record(graph.Lookup("BatchNorm"), batchNormNode, []graph.Val{x}, out))
		}})
	r.Register(&Builtin{Name: "argmax", GraphOp: "Argmax",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			axis, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Argmax", map[string]graph.Val{"axis": axis}, x)
		}})
	r.Register(sliceBuiltin("slice_rows", 0))
	r.Register(sliceBuiltin("slice_cols", 1))
	r.Register(&Builtin{Name: "one_hot", GraphOp: "OneHot",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			ids, err := valueToIntSlice(args[0])
			if err != nil {
				return nil, err
			}
			depth, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			return it.applyOp("OneHot", map[string]graph.Val{"depth": depth}, ids)
		}})
	return r
}

// batchNormNode carries BatchNorm's (empty) attrs for the tape.
var batchNormNode = &graph.Node{Op: "BatchNorm"}

// poolBuiltin registers name(x, k, stride) running pooling op graphOp.
func poolBuiltin(name, graphOp string) *Builtin {
	return &Builtin{Name: name, GraphOp: graphOp,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("%s(x, k, stride)", name)
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			k, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			stride, err := argInt(args, 2)
			if err != nil {
				return nil, err
			}
			return it.applyOp(graphOp, map[string]graph.Val{"k": k, "stride": stride}, x)
		}}
}

// lossBuiltin registers name(pred, target) running loss op graphOp.
func lossBuiltin(name, graphOp string) *Builtin {
	return &Builtin{Name: name, GraphOp: graphOp,
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			pred, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			target, err := argTensor(args, 1)
			if err != nil {
				return nil, err
			}
			return it.applyOp(graphOp, nil, pred, target)
		}}
}

// sliceBuiltin registers name(x, lo, hi), a Slice of [lo, hi) along axis.
func sliceBuiltin(name string, axis int) *Builtin {
	return &Builtin{Name: name, GraphOp: "Slice",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("%s(x, lo, hi)", name)
			}
			x, err := argTensor(args, 0)
			if err != nil {
				return nil, err
			}
			lo, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			hi, err := argInt(args, 2)
			if err != nil {
				return nil, err
			}
			return it.applyOp("Slice", map[string]graph.Val{"axis": axis, "lo": lo, "hi": hi}, x)
		}}
}

// tensorExtremum handles two-argument element-wise min/max when either
// operand is a (possibly multi-element) tensor.
func tensorExtremum(it *Interp, args []Value, isMax bool) (Value, bool, error) {
	if len(args) != 2 {
		return nil, false, nil
	}
	_, t0 := args[0].(*TensorVal)
	_, t1 := args[1].(*TensorVal)
	if !t0 && !t1 {
		return nil, false, nil
	}
	a, err := argTensor(args, 0)
	if err != nil {
		return nil, true, err
	}
	b, err := argTensor(args, 1)
	if err != nil {
		return nil, true, err
	}
	op := "Minimum"
	if isMax {
		op = "Maximum"
	}
	v, err := it.applyOp(op, nil, a, b)
	return v, true, err
}

func minMax(args []Value, isMin bool) (Value, error) {
	vals := args
	if len(args) == 1 {
		items, err := unpack(args[0])
		if err != nil {
			return nil, err
		}
		vals = items
	}
	if len(vals) == 0 {
		return nil, errors.New("min/max of empty sequence")
	}
	best := vals[0]
	bf, ok := AsFloat(best)
	if !ok {
		return nil, fmt.Errorf("min/max cannot order %s", best.TypeName())
	}
	for _, v := range vals[1:] {
		f, ok := AsFloat(v)
		if !ok {
			return nil, fmt.Errorf("min/max cannot order %s", v.TypeName())
		}
		if (isMin && f < bf) || (!isMin && f > bf) {
			best, bf = v, f
		}
	}
	return best, nil
}

// ValueToTensor converts a literal minipy value (number or nested list of
// numbers) into a tensor.
func ValueToTensor(v Value) (*tensor.Tensor, error) {
	if t, ok := v.(*TensorVal); ok {
		return t.T(), nil
	}
	if f, ok := AsFloat(v); ok {
		return tensor.Scalar(f), nil
	}
	items, err := unpack(v)
	if err != nil {
		return nil, fmt.Errorf("constant() cannot convert %s", v.TypeName())
	}
	if len(items) == 0 {
		return tensor.Zeros(0), nil
	}
	// Nested list -> tensor via recursion.
	if _, isNum := AsFloat(items[0]); isNum {
		data := make([]float64, len(items))
		for i, it := range items {
			f, ok := AsFloat(it)
			if !ok {
				return nil, errors.New("ragged constant")
			}
			data[i] = f
		}
		return tensor.FromSlice(data), nil
	}
	subs := make([]*tensor.Tensor, len(items))
	for i, it := range items {
		s, err := ValueToTensor(it)
		if err != nil {
			return nil, err
		}
		subs[i] = s
	}
	return tensor.Stack(subs...), nil
}

// valueToIntSlice converts a minipy list/tuple of ints or a numeric tensor to
// []int.
func valueToIntSlice(v Value) ([]int, error) {
	if t, ok := v.(*TensorVal); ok {
		out := make([]int, t.T().Size())
		for i, f := range t.T().Data() {
			out[i] = int(f)
		}
		return out, nil
	}
	items, err := unpack(v)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(items))
	for i, it := range items {
		n, ok := AsInt(it)
		if !ok {
			return nil, fmt.Errorf("element %d is not an int", i)
		}
		out[i] = int(n)
	}
	return out, nil
}
