package minipy

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// Builtin is one external function exposed to minipy programs. The registry
// is the paper's whitelist (§4.3.1): a builtin converts into a graph when it
// has a signature (the one op it is) or the converter has a case for it;
// every other builtin has no graph representation, so a call to one keeps
// the function imperative.
type Builtin struct {
	Name string
	Fn   func(it *Interp, args []Value, kwargs map[string]Value) (Value, error)
	// Sig declares a builtin that is exactly one graph op. Fn then runs Sig
	// (callOp), and the converter emits the op from the same Sig. Nil for
	// the builtins written by hand.
	Sig *Signature
}

// ParamKind says how one argument of a signature builtin reaches its op.
type ParamKind uint8

const (
	// ParamTensor is one op input: a tensor, or a number as a rank-0 tensor.
	ParamTensor ParamKind = iota
	// ParamTensorList is a non-empty list of tensors, one op input each.
	ParamTensorList
	// ParamIndices is one op input: a list of ints or an int tensor.
	ParamIndices
	// ParamInt is a build-time int: the attr named after the param.
	ParamInt
	// ParamShape is a build-time list of ints: the attr named after the
	// param.
	ParamShape
)

// BuildTime reports whether an argument of kind k becomes an attr, so a
// graph needs its value when it is built.
func (k ParamKind) BuildTime() bool { return k >= ParamInt }

// Param is one parameter of a Signature.
type Param struct {
	// Name is the keyword, and a build-time param's attr key.
	Name string
	Kind ParamKind
	// Default is a keyword param's value when the call leaves it out.
	Default int
}

// Signature is the single definition of a builtin that is one graph op:
// the interpreter parses a call with it and runs Op on its tape, and the
// converter parses the same call with it and emits Op (DESIGN.md "Adding a
// builtin"). The op's OpDef.Shape gives the converter the output's shape.
type Signature struct {
	Op string
	// Attrs are the op's fixed attrs (slice_rows' axis).
	Attrs map[string]graph.Val
	// Args are the positional params, all required.
	Args []Param
	// Kw are the keyword-only params: build-time ints with a default.
	Kw []Param
}

// BuildAttrs checks a call's arity and keywords against s and parses its
// build-time arguments into the op's attrs (nil when there are none).
// args[i] is positional argument i; only the build-time ones are read, so
// the converter passes nil for the others.
func (s *Signature) BuildAttrs(name string, args []Value, kwargs map[string]Value) (map[string]graph.Val, error) {
	if len(args) != len(s.Args) {
		return nil, fmt.Errorf("%s takes %d arguments, got %d", s.usage(name), len(s.Args), len(args))
	}
	for k := range kwargs {
		if !slices.ContainsFunc(s.Kw, func(p Param) bool { return p.Name == k }) {
			return nil, fmt.Errorf("%s got an unexpected keyword %s", s.usage(name), k)
		}
	}
	attrs := maps.Clone(s.Attrs)
	set := func(p Param, v Value) error {
		var a graph.Val
		if p.Kind == ParamShape {
			sh, err := intList(v)
			if err != nil {
				return fmt.Errorf("%s: %s: %v", s.usage(name), p.Name, err)
			}
			a = sh
		} else {
			n, ok := AsInt(v)
			if !ok {
				return fmt.Errorf("%s: %s wants an int, got %s", s.usage(name), p.Name, v.TypeName())
			}
			a = int(n)
		}
		if attrs == nil {
			attrs = map[string]graph.Val{}
		}
		attrs[p.Name] = a
		return nil
	}
	for i, p := range s.Args {
		if p.Kind.BuildTime() {
			if err := set(p, args[i]); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range s.Kw {
		v, ok := kwargs[p.Name]
		if !ok {
			v = IntVal(p.Default)
		}
		if err := set(p, v); err != nil {
			return nil, err
		}
	}
	return attrs, nil
}

// usage renders s as a call, e.g. conv2d(x, w, stride=1, pad=0).
func (s *Signature) usage(name string) string {
	parts := make([]string, 0, len(s.Args)+len(s.Kw))
	for _, p := range s.Args {
		parts = append(parts, p.Name)
	}
	for _, p := range s.Kw {
		parts = append(parts, fmt.Sprintf("%s=%d", p.Name, p.Default))
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}

// callOp is the interpreter side of a signature builtin: it parses the call
// and runs the op through applyOp.
func (it *Interp) callOp(name string, s *Signature, args []Value, kwargs map[string]Value) (Value, error) {
	attrs, err := s.BuildAttrs(name, args, kwargs)
	if err != nil {
		return nil, err
	}
	in := make([]graph.Val, 0, len(args))
	for i, p := range s.Args {
		switch p.Kind {
		case ParamTensor:
			x, err := argTensor(args, i)
			if err != nil {
				return nil, err
			}
			in = append(in, x)
		case ParamTensorList:
			items, err := unpack(args[i])
			if err != nil {
				return nil, fmt.Errorf("%s: want a list of tensors, got %s", p.Name, args[i].TypeName())
			}
			if len(items) == 0 {
				return nil, fmt.Errorf("%s of an empty list", name)
			}
			for j, v := range items {
				tv, ok := v.(*TensorVal)
				if !ok {
					return nil, fmt.Errorf("%s element %d is %s, not tensor", name, j, v.TypeName())
				}
				in = append(in, tv.Node)
			}
		case ParamIndices:
			ids, err := valueToIntSlice(args[i])
			if err != nil {
				return nil, err
			}
			in = append(in, ids)
		}
	}
	return it.applyOp(s.Op, attrs, in...)
}

// opBuiltins declares the builtins that are one graph op each.
func opBuiltins() map[string]*Signature {
	param := func(name string, kind ParamKind) Param { return Param{Name: name, Kind: kind} }
	x := param("x", ParamTensor)
	unary := func(op string) *Signature { return &Signature{Op: op, Args: []Param{x}} }
	binary := func(op, a, b string) *Signature {
		return &Signature{Op: op, Args: []Param{param(a, ParamTensor), param(b, ParamTensor)}}
	}
	pool := func(op string) *Signature {
		return &Signature{Op: op, Args: []Param{x, param("k", ParamInt), param("stride", ParamInt)}}
	}
	slice := func(axis int) *Signature {
		return &Signature{Op: "Slice", Attrs: map[string]graph.Val{"axis": axis},
			Args: []Param{x, param("lo", ParamInt), param("hi", ParamInt)}}
	}
	tensors := param("tensors", ParamTensorList)
	return map[string]*Signature{
		"matmul":        binary("MatMul", "a", "b"),
		"relu":          unary("ReLU"),
		"sigmoid":       unary("Sigmoid"),
		"tanh":          unary("Tanh"),
		"exp":           unary("Exp"),
		"log":           unary("Log"),
		"softmax":       unary("Softmax"),
		"reduce_sum":    unary("Sum"),
		"reduce_mean":   unary("Mean"),
		"transpose":     unary("Transpose"),
		"reshape":       {Op: "Reshape", Args: []Param{x, param("shape", ParamShape)}},
		"concat":        {Op: "Concat", Args: []Param{tensors, param("axis", ParamInt)}},
		"stack":         {Op: "Stack", Args: []Param{tensors}},
		"conv2d":        {Op: "Conv2D", Args: []Param{x, param("w", ParamTensor)}, Kw: []Param{{Name: "stride", Kind: ParamInt, Default: 1}, {Name: "pad", Kind: ParamInt}}},
		"max_pool":      pool("MaxPool"),
		"avg_pool":      pool("AvgPool"),
		"embedding":     {Op: "Gather", Args: []Param{param("table", ParamTensor), param("ids", ParamIndices)}},
		"one_hot":       {Op: "OneHot", Args: []Param{param("ids", ParamIndices), param("depth", ParamInt)}},
		"cross_entropy": binary("CrossEntropy", "pred", "target"),
		"mse":           binary("MSE", "pred", "target"),
		"argmax":        {Op: "Argmax", Args: []Param{x, param("axis", ParamInt)}},
		"slice_rows":    slice(0),
		"slice_cols":    slice(1),
	}
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

func argShape(args []Value, i int) ([]int, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("missing shape argument %d", i)
	}
	sh, err := intList(args[i])
	if err != nil {
		return nil, fmt.Errorf("argument %d: %v", i, err)
	}
	return sh, nil
}

// intList reads a shape: a list or tuple of ints.
func intList(v Value) ([]int, error) {
	items, err := unpack(v)
	if err != nil {
		return nil, fmt.Errorf("want shape list, got %s", v.TypeName())
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

// DefaultRegistry builds the standard builtin set shared by all engines:
// Python-style builtins (print, len, range, ...) plus the DL framework
// functions (matmul, conv2d, ...) that the paper's whitelist covers.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	// ---- Python builtins -------------------------------------------------
	r.Register(&Builtin{Name: "print",
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
	r.Register(&Builtin{Name: "len",
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
	r.Register(&Builtin{Name: "range",
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
	r.Register(&Builtin{Name: "int",
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
	r.Register(&Builtin{Name: "float",
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
	r.Register(&Builtin{Name: "abs",
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
	r.Register(&Builtin{Name: "min",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if v, ok, err := tensorExtremum(it, args, false); ok {
				return v, err
			}
			return minMax(args, true)
		}})
	r.Register(&Builtin{Name: "max",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if v, ok, err := tensorExtremum(it, args, true); ok {
				return v, err
			}
			return minMax(args, false)
		}})

	// ---- container methods -----------------------------------------------
	r.Register(&Builtin{Name: "list.append",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(args, 2); err != nil {
				return nil, err
			}
			l := args[0].(*ListVal)
			l.Items = append(l.Items, args[1])
			return None, nil
		}})
	r.Register(&Builtin{Name: "list.pop",
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
	r.Register(&Builtin{Name: "list.extend",
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
	r.Register(&Builtin{Name: "list.reverse",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			l := args[0].(*ListVal)
			for i, j := 0, len(l.Items)-1; i < j; i, j = i+1, j-1 {
				l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
			}
			return None, nil
		}})
	r.Register(&Builtin{Name: "dict.get",
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
	r.Register(&Builtin{Name: "dict.keys",
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
	r.Register(&Builtin{Name: "dict.values",
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
	r.Register(&Builtin{Name: "zeros",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(tensor.Zeros(sh...)), nil
		}})
	r.Register(&Builtin{Name: "ones",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(tensor.Full(1, sh...)), nil
		}})
	r.Register(&Builtin{Name: "constant",
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
	r.Register(&Builtin{Name: "randn",
		Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sh, err := argShape(args, 0)
			if err != nil {
				return nil, err
			}
			return NewTensor(it.rng().Randn(sh...)), nil
		}})
	r.Register(&Builtin{Name: "variable",
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
	// Each is one op: the executor's kernel forward, the op's OpDef.Grad
	// rule backward.
	for name, sig := range opBuiltins() {
		r.Register(&Builtin{Name: name, Sig: sig,
			Fn: func(it *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				return it.callOp(name, sig, args, kwargs)
			}})
	}
	r.Register(&Builtin{Name: "batch_norm",
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
	return r
}

// batchNormNode carries BatchNorm's (empty) attrs for the tape.
var batchNormNode = &graph.Node{Op: "BatchNorm"}

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
