package minipy

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autodiff"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// RuntimeError is a minipy-level runtime failure (the analogue of a Python
// exception).
type RuntimeError struct {
	Msg  string
	Line int
	// Cause, when non-nil, is the underlying error (a builtin's failure).
	// It is exposed through Unwrap so sentinel identities — a canceled
	// context inside optimize(), a staleness rejection inside a gradient
	// push — survive interpreter wrapping and errors.Is keeps working.
	Cause error
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("minipy: runtime error at line %d: %s", e.Line, e.Msg)
	}
	return "minipy: runtime error: " + e.Msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RuntimeError) Unwrap() error { return e.Cause }

// Profiler receives per-AST-node observations during imperative execution.
// internal/profile implements it; the zero-overhead default is nil.
type Profiler interface {
	// Branch records the direction a conditional took.
	Branch(nodeID int, taken bool)
	// Loop records the trip count of one complete loop execution.
	Loop(nodeID int, trips int)
	// Call records the callee bound at a call site. The identity is the
	// callee's defining node ID for user functions, or ^builtinIndex for
	// builtins.
	Call(nodeID int, callee CalleeID)
	// Value records the dynamic type/shape/value of profiled expressions
	// (function arguments, attribute reads).
	Value(nodeID int, v Value)
}

// CalleeID identifies a callee for profiling: either a user-defined function
// (by defining node ID) or a builtin (by name).
type CalleeID struct {
	UserNode int    // -1 when builtin
	Builtin  string // "" when user function
}

// ctrl is the statement-level control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// Interp is the imperative executor: a tree-walking evaluator over minipy
// ASTs. One Interp runs one program; it owns the module environment and the
// (optional) active gradient tape.
type Interp struct {
	Globals *Env
	// Tape, when non-nil, records tensor operations for autodiff. The
	// `optimize` builtin installs a tape around the loss function call.
	Tape *autodiff.Tape
	// Prof receives profiling callbacks when non-nil.
	Prof Profiler
	// Builtins is the external-function registry (the paper's whitelist).
	Builtins *Registry
	// Out collects print() output.
	Out strings.Builder
	// Steps counts interpreter dispatches; a crude instruction counter used
	// in tests and to bound runaway loops.
	Steps int64
	// MaxSteps aborts execution when exceeded (0 = unlimited).
	MaxSteps int64
	// Interrupt, when non-nil, is polled between statements (throttled to
	// every few dispatches): a non-nil return aborts execution with that
	// error. Engines wire context cancellation through it, so a deadline or
	// cancel stops a running training loop between steps without leaving a
	// step half-applied.
	Interrupt func() error

	retVal Value // value carried by ctrlReturn

	// OpDelay simulates host-language runtime overhead per framework-op
	// dispatch (builtin tensor calls and tensor operators). This Go
	// tree-walker is ~50x faster than CPython relative to kernel cost, so
	// without calibration the interpreter-overhead-vs-kernel-time ratio the
	// paper's evaluation hinges on would be absent; a few microseconds per
	// op restores the TF-Eager regime (see DESIGN.md §5). Zero disables.
	OpDelay time.Duration

	// store is the shared parameter store used by variable()/batch_norm();
	// engines attach it with SetStore.
	store *vars.Store
	// rngState backs the randn() builtin; lazily seeded for determinism.
	rngState *tensor.RNG
}

// rng returns the interpreter's deterministic random source.
func (it *Interp) rng() *tensor.RNG {
	if it.rngState == nil {
		it.rngState = tensor.NewRNG(12345)
	}
	return it.rngState
}

// SeedRNG reseeds the interpreter's random source.
func (it *Interp) SeedRNG(seed uint64) { it.rngState = tensor.NewRNG(seed) }

// NewInterp creates an interpreter with the given builtin registry (nil means
// DefaultRegistry).
func NewInterp(reg *Registry) *Interp {
	if reg == nil {
		reg = DefaultRegistry()
	}
	it := &Interp{Globals: NewEnv(nil), Builtins: reg}
	for _, name := range reg.Names() {
		b := reg.Get(name)
		it.Globals.vars[name] = &BuiltinVal{Name: name, Fn: b.Fn}
	}
	return it
}

// Run executes a whole program in the module scope.
func (it *Interp) Run(prog *Program) error {
	_, err := it.execBlock(prog.Body, it.Globals)
	return err
}

// RunIn executes a whole program with env as its innermost module scope.
// Name lookups fall through env's parent chain (typically the interpreter's
// globals), while top-level assignments and definitions land in env — the
// mechanism behind session-affine serving state.
func (it *Interp) RunIn(prog *Program, env *Env) error {
	_, err := it.execBlock(prog.Body, env)
	return err
}

// CallFunction invokes a minipy callable with the given arguments; the public
// entry used by engines to run a model's step function.
func (it *Interp) CallFunction(fn Value, args []Value) (Value, error) {
	return it.call(0, fn, args, nil)
}

func (it *Interp) rte(n Node, format string, args ...any) error {
	line := 0
	if n != nil {
		line, _ = n.Pos()
	}
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Line: line}
}

func (it *Interp) step(n Node) error {
	it.Steps++
	if it.MaxSteps > 0 && it.Steps > it.MaxSteps {
		return it.rte(n, "step limit exceeded (%d)", it.MaxSteps)
	}
	if it.Interrupt != nil && it.Steps&15 == 0 {
		if err := it.Interrupt(); err != nil {
			return err
		}
	}
	return nil
}

// --- statements --------------------------------------------------------------

func (it *Interp) execBlock(stmts []Stmt, env *Env) (ctrl, error) {
	for _, s := range stmts {
		c, err := it.exec(s, env)
		if err != nil {
			return ctrlNone, err
		}
		if c != ctrlNone {
			return c, nil
		}
	}
	return ctrlNone, nil
}

func (it *Interp) exec(s Stmt, env *Env) (ctrl, error) {
	if err := it.step(s); err != nil {
		return ctrlNone, err
	}
	switch st := s.(type) {
	case *ExprStmt:
		_, err := it.eval(st.X, env)
		return ctrlNone, err
	case *AssignStmt:
		v, err := it.eval(st.Value, env)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, it.assign(st.Target, v, env)
	case *AugAssignStmt:
		cur, err := it.eval(st.Target, env)
		if err != nil {
			return ctrlNone, err
		}
		rhs, err := it.eval(st.Value, env)
		if err != nil {
			return ctrlNone, err
		}
		v, err := it.binop(st, st.Op, cur, rhs)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, it.assign(st.Target, v, env)
	case *IfStmt:
		cv, err := it.eval(st.Cond, env)
		if err != nil {
			return ctrlNone, err
		}
		taken, err := Truthy(cv)
		if err != nil {
			return ctrlNone, it.rte(st, "%v", err)
		}
		if it.Prof != nil {
			it.Prof.Branch(st.ID(), taken)
		}
		if taken {
			return it.execBlock(st.Then, env)
		}
		if st.Else != nil {
			return it.execBlock(st.Else, env)
		}
		return ctrlNone, nil
	case *WhileStmt:
		trips := 0
		for {
			cv, err := it.eval(st.Cond, env)
			if err != nil {
				return ctrlNone, err
			}
			ok, err := Truthy(cv)
			if err != nil {
				return ctrlNone, it.rte(st, "%v", err)
			}
			if !ok {
				break
			}
			trips++
			c, err := it.execBlock(st.Body, env)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				if it.Prof != nil {
					it.Prof.Loop(st.ID(), trips)
				}
				return c, nil
			}
			if err := it.step(st); err != nil {
				return ctrlNone, err
			}
		}
		if it.Prof != nil {
			it.Prof.Loop(st.ID(), trips)
		}
		return ctrlNone, nil
	case *ForStmt:
		iter, err := it.eval(st.Iter, env)
		if err != nil {
			return ctrlNone, err
		}
		items, err := it.iterate(st, iter)
		if err != nil {
			return ctrlNone, err
		}
		trips := 0
		for _, item := range items {
			if err := it.assign(st.Target, item, env); err != nil {
				return ctrlNone, err
			}
			trips++
			c, err := it.execBlock(st.Body, env)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				if it.Prof != nil {
					it.Prof.Loop(st.ID(), trips)
				}
				return c, nil
			}
			if err := it.step(st); err != nil {
				return ctrlNone, err
			}
		}
		if it.Prof != nil {
			it.Prof.Loop(st.ID(), trips)
		}
		return ctrlNone, nil
	case *FuncDef:
		fn := &FuncVal{Name: st.Name, Params: st.Params, Defaults: st.Defaults, Body: st.Body, Env: env, Def: st}
		return ctrlNone, env.Define(st.Name, fn)
	case *ClassDef:
		cls := &ClassVal{Name: st.Name, Methods: make(map[string]*FuncVal)}
		for _, m := range st.Methods {
			cls.Methods[m.Name] = &FuncVal{Name: st.Name + "." + m.Name, Params: m.Params, Defaults: m.Defaults, Body: m.Body, Env: env, Def: m}
		}
		return ctrlNone, env.Define(st.Name, cls)
	case *ReturnStmt:
		if st.Value == nil {
			it.retVal = None
			return ctrlReturn, nil
		}
		v, err := it.eval(st.Value, env)
		if err != nil {
			return ctrlNone, err
		}
		it.retVal = v
		return ctrlReturn, nil
	case *BreakStmt:
		return ctrlBreak, nil
	case *ContinueStmt:
		return ctrlContinue, nil
	case *PassStmt:
		return ctrlNone, nil
	case *GlobalStmt:
		env.DeclareGlobal(st.Names)
		return ctrlNone, nil
	case *NonlocalStmt:
		env.DeclareNonlocal(st.Names)
		return ctrlNone, nil
	case *DelStmt:
		return ctrlNone, it.delete(st.Target, env)
	case *AssertStmt:
		cv, err := it.eval(st.Cond, env)
		if err != nil {
			return ctrlNone, err
		}
		ok, err := Truthy(cv)
		if err != nil {
			return ctrlNone, it.rte(st, "%v", err)
		}
		if !ok {
			msg := "assertion failed"
			if st.Msg != nil {
				if mv, err := it.eval(st.Msg, env); err == nil {
					msg = toDisplay(mv)
				}
			}
			return ctrlNone, it.rte(st, "%s", msg)
		}
		return ctrlNone, nil
	case *RaiseStmt:
		msg := "exception"
		if st.Value != nil {
			if v, err := it.eval(st.Value, env); err == nil {
				msg = toDisplay(v)
			}
		}
		return ctrlNone, it.rte(st, "%s", msg)
	}
	return ctrlNone, it.rte(s, "unhandled statement %T", s)
}

func (it *Interp) assign(target Expr, v Value, env *Env) error {
	switch t := target.(type) {
	case *NameExpr:
		return env.Define(t.Name, v)
	case *AttrExpr:
		obj, err := it.eval(t.X, env)
		if err != nil {
			return err
		}
		o, ok := obj.(*ObjectVal)
		if !ok {
			return it.rte(t, "cannot set attribute %q on %s", t.Name, obj.TypeName())
		}
		o.Attrs[t.Name] = v
		return nil
	case *IndexExpr:
		obj, err := it.eval(t.X, env)
		if err != nil {
			return err
		}
		key, err := it.eval(t.Key, env)
		if err != nil {
			return err
		}
		return it.setIndex(t, obj, key, v)
	case *TupleLit:
		items, err := unpack(v)
		if err != nil {
			return it.rte(t, "%v", err)
		}
		if len(items) != len(t.Elems) {
			return it.rte(t, "cannot unpack %d values into %d targets", len(items), len(t.Elems))
		}
		for i, el := range t.Elems {
			if err := it.assign(el, items[i], env); err != nil {
				return err
			}
		}
		return nil
	}
	return it.rte(target, "invalid assignment target %T", target)
}

func unpack(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *ListVal:
		return x.Items, nil
	case *TupleVal:
		return x.Items, nil
	default:
		return nil, fmt.Errorf("cannot unpack %s", v.TypeName())
	}
}

func (it *Interp) setIndex(n Node, obj, key, v Value) error {
	switch c := obj.(type) {
	case *ListVal:
		i, ok := AsInt(key)
		if !ok {
			return it.rte(n, "list index must be int, got %s", key.TypeName())
		}
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return it.rte(n, "list index %d out of range (len %d)", i, len(c.Items))
		}
		c.Items[i] = v
		return nil
	case *DictVal:
		k, err := DictKey(key)
		if err != nil {
			return it.rte(n, "%v", err)
		}
		c.Entries[k] = v
		return nil
	}
	return it.rte(n, "%s does not support item assignment", obj.TypeName())
}

func (it *Interp) delete(target Expr, env *Env) error {
	switch t := target.(type) {
	case *NameExpr:
		return env.Delete(t.Name)
	case *AttrExpr:
		obj, err := it.eval(t.X, env)
		if err != nil {
			return err
		}
		if o, ok := obj.(*ObjectVal); ok {
			delete(o.Attrs, t.Name)
			return nil
		}
		return it.rte(t, "cannot delete attribute on %s", obj.TypeName())
	case *IndexExpr:
		obj, err := it.eval(t.X, env)
		if err != nil {
			return err
		}
		key, err := it.eval(t.Key, env)
		if err != nil {
			return err
		}
		if d, ok := obj.(*DictVal); ok {
			k, err := DictKey(key)
			if err != nil {
				return it.rte(t, "%v", err)
			}
			delete(d.Entries, k)
			return nil
		}
		return it.rte(t, "cannot delete item on %s", obj.TypeName())
	}
	return it.rte(target, "cannot delete %T", target)
}

func (it *Interp) iterate(n Node, v Value) ([]Value, error) {
	switch x := v.(type) {
	case *ListVal:
		return append([]Value(nil), x.Items...), nil
	case *TupleVal:
		return x.Items, nil
	case RangeVal:
		out := make([]Value, 0, x.Len())
		if x.Step > 0 {
			for i := x.Start; i < x.Stop; i += x.Step {
				out = append(out, IntVal(i))
			}
		} else if x.Step < 0 {
			for i := x.Start; i > x.Stop; i += x.Step {
				out = append(out, IntVal(i))
			}
		}
		return out, nil
	case *DictVal:
		keys := make([]string, 0, len(x.Entries))
		for k := range x.Entries {
			keys = append(keys, k)
		}
		// Deterministic iteration order: sorted keys.
		sortStrings(keys)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = dictKeyToValue(k)
		}
		return out, nil
	case StrVal:
		out := make([]Value, 0, len(x))
		for _, ch := range string(x) {
			out = append(out, StrVal(string(ch)))
		}
		return out, nil
	}
	return nil, it.rte(n, "%s is not iterable", v.TypeName())
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func dictKeyToValue(k string) Value {
	if strings.HasPrefix(k, "s:") {
		return StrVal(k[2:])
	}
	if strings.HasPrefix(k, "i:") {
		var n int64
		fmt.Sscanf(k[2:], "%d", &n)
		return IntVal(n)
	}
	if k == "b:true" {
		return BoolVal(true)
	}
	if k == "b:false" {
		return BoolVal(false)
	}
	return StrVal(k)
}

// --- expressions ----------------------------------------------------------------

func (it *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := it.step(e); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *NameExpr:
		v, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, it.rte(ex, "name %q is not defined", ex.Name)
		}
		return v, nil
	case *IntLit:
		return IntVal(ex.Value), nil
	case *FloatLit:
		return FloatVal(ex.Value), nil
	case *StrLit:
		return StrVal(ex.Value), nil
	case *BoolLit:
		return BoolVal(ex.Value), nil
	case *NoneLit:
		return None, nil
	case *ListLit:
		items := make([]Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := it.eval(el, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &ListVal{Items: items}, nil
	case *TupleLit:
		items := make([]Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := it.eval(el, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &TupleVal{Items: items}, nil
	case *DictLit:
		d := NewDict()
		for i := range ex.Keys {
			kv, err := it.eval(ex.Keys[i], env)
			if err != nil {
				return nil, err
			}
			vv, err := it.eval(ex.Values[i], env)
			if err != nil {
				return nil, err
			}
			k, err := DictKey(kv)
			if err != nil {
				return nil, it.rte(ex, "%v", err)
			}
			d.Entries[k] = vv
		}
		return d, nil
	case *UnaryExpr:
		x, err := it.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		return it.unary(ex, ex.Op, x)
	case *BinExpr:
		l, err := it.eval(ex.L, env)
		if err != nil {
			return nil, err
		}
		r, err := it.eval(ex.R, env)
		if err != nil {
			return nil, err
		}
		return it.binop(ex, ex.Op, l, r)
	case *BoolOpExpr:
		l, err := it.eval(ex.L, env)
		if err != nil {
			return nil, err
		}
		lt, err := Truthy(l)
		if err != nil {
			return nil, it.rte(ex, "%v", err)
		}
		if ex.Op == "and" {
			if !lt {
				return l, nil
			}
			return it.eval(ex.R, env)
		}
		if lt {
			return l, nil
		}
		return it.eval(ex.R, env)
	case *CondExpr:
		cv, err := it.eval(ex.Cond, env)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(cv)
		if err != nil {
			return nil, it.rte(ex, "%v", err)
		}
		if it.Prof != nil {
			it.Prof.Branch(ex.ID(), ok)
		}
		if ok {
			return it.eval(ex.A, env)
		}
		return it.eval(ex.B, env)
	case *AttrExpr:
		obj, err := it.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		v, err := it.getAttr(ex, obj, ex.Name)
		if err != nil {
			return nil, err
		}
		if it.Prof != nil {
			it.Prof.Value(ex.ID(), v)
		}
		return v, nil
	case *IndexExpr:
		obj, err := it.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		key, err := it.eval(ex.Key, env)
		if err != nil {
			return nil, err
		}
		return it.getIndex(ex, obj, key)
	case *LambdaExpr:
		return &FuncVal{Name: "<lambda>", Params: ex.Params, LambdaBody: ex.Body, Env: env, Def: ex}, nil
	case *CallExpr:
		fn, err := it.eval(ex.Fn, env)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := it.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		var kwargs map[string]Value
		if len(ex.KwNames) > 0 {
			kwargs = make(map[string]Value, len(ex.KwNames))
			for i, n := range ex.KwNames {
				v, err := it.eval(ex.KwValues[i], env)
				if err != nil {
					return nil, err
				}
				kwargs[n] = v
			}
		}
		return it.call(ex.ID(), fn, args, kwargs)
	}
	return nil, it.rte(e, "unhandled expression %T", e)
}

func (it *Interp) getAttr(n Node, obj Value, name string) (Value, error) {
	switch o := obj.(type) {
	case *ObjectVal:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
		if m, ok := o.Class.Methods[name]; ok {
			return m.Bind(o), nil
		}
		return nil, it.rte(n, "%s object has no attribute %q", o.Class.Name, name)
	case *ListVal:
		switch name {
		case "append", "pop", "extend", "reverse":
			b := it.Builtins.Get("list." + name)
			if b != nil {
				return &BuiltinVal{Name: "list." + name, Fn: b.Fn, Self: o}, nil
			}
		}
		return nil, it.rte(n, "list has no attribute %q", name)
	case *DictVal:
		switch name {
		case "get", "keys", "values":
			b := it.Builtins.Get("dict." + name)
			if b != nil {
				return &BuiltinVal{Name: "dict." + name, Fn: b.Fn, Self: o}, nil
			}
		}
		return nil, it.rte(n, "dict has no attribute %q", name)
	case *TensorVal:
		switch name {
		case "shape":
			sh := o.T().Shape()
			items := make([]Value, len(sh))
			for i, d := range sh {
				items[i] = IntVal(d)
			}
			return &TupleVal{Items: items}, nil
		case "size":
			return IntVal(o.T().Size()), nil
		}
		return nil, it.rte(n, "tensor has no attribute %q", name)
	}
	return nil, it.rte(n, "%s has no attributes", obj.TypeName())
}

func (it *Interp) getIndex(n Node, obj, key Value) (Value, error) {
	switch c := obj.(type) {
	case *ListVal:
		i, ok := AsInt(key)
		if !ok {
			return nil, it.rte(n, "list index must be int, got %s", key.TypeName())
		}
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return nil, it.rte(n, "list index %d out of range (len %d)", i, len(c.Items))
		}
		return c.Items[i], nil
	case *TupleVal:
		i, ok := AsInt(key)
		if !ok {
			return nil, it.rte(n, "tuple index must be int")
		}
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return nil, it.rte(n, "tuple index %d out of range", i)
		}
		return c.Items[i], nil
	case *DictVal:
		k, err := DictKey(key)
		if err != nil {
			return nil, it.rte(n, "%v", err)
		}
		v, ok := c.Entries[k]
		if !ok {
			return nil, it.rte(n, "key %s not found", key.Repr())
		}
		return v, nil
	case StrVal:
		i, ok := AsInt(key)
		if !ok {
			return nil, it.rte(n, "string index must be int")
		}
		s := string(c)
		if i < 0 {
			i += int64(len(s))
		}
		if i < 0 || i >= int64(len(s)) {
			return nil, it.rte(n, "string index out of range")
		}
		return StrVal(s[i : i+1]), nil
	case *TensorVal:
		// Row indexing: t[i] slices the leading axis.
		i, ok := AsInt(key)
		if !ok {
			return nil, it.rte(n, "tensor index must be int")
		}
		t := c.T()
		if t.Rank() == 0 {
			return nil, it.rte(n, "cannot index rank-0 tensor")
		}
		if i < 0 {
			i += int64(t.Dim(0))
		}
		if i < 0 || i >= int64(t.Dim(0)) {
			return nil, it.rte(n, "tensor index %d out of range", i)
		}
		return it.applyOp("IndexAny", nil, c.Node, int(i))
	}
	return nil, it.rte(n, "%s is not subscriptable", obj.TypeName())
}

// call dispatches a call expression. callSiteID is the CallExpr node ID (0
// for engine-initiated calls).
func (it *Interp) call(callSiteID int, fn Value, args []Value, kwargs map[string]Value) (Value, error) {
	switch f := fn.(type) {
	case *BuiltinVal:
		if it.Prof != nil && callSiteID != 0 {
			it.Prof.Call(callSiteID, CalleeID{UserNode: -1, Builtin: f.Name})
		}
		it.dispatchDelay()
		if f.Self != nil {
			args = append([]Value{f.Self}, args...)
		}
		v, err := f.Fn(it, args, kwargs)
		if err != nil {
			return nil, &RuntimeError{Msg: f.Name + ": " + err.Error(), Cause: err}
		}
		return v, nil
	case *FuncVal:
		if it.Prof != nil && callSiteID != 0 && f.Def != nil {
			it.Prof.Call(callSiteID, CalleeID{UserNode: f.Def.ID()})
		}
		return it.callUser(f, args, kwargs)
	case *ClassVal:
		// Instantiation: allocate, run __init__ if present.
		obj := &ObjectVal{Class: f, Attrs: make(map[string]Value)}
		if init, ok := f.Methods["__init__"]; ok {
			if _, err := it.callUser(init.Bind(obj), args, kwargs); err != nil {
				return nil, err
			}
		} else if len(args) > 0 {
			return nil, &RuntimeError{Msg: f.Name + "() takes no arguments"}
		}
		if it.Prof != nil && callSiteID != 0 {
			it.Prof.Call(callSiteID, CalleeID{UserNode: -1, Builtin: "class:" + f.Name})
		}
		return obj, nil
	case *ObjectVal:
		// Callable object: dispatch to __call__.
		if m, ok := f.Class.Methods["__call__"]; ok {
			if it.Prof != nil && callSiteID != 0 && m.Def != nil {
				it.Prof.Call(callSiteID, CalleeID{UserNode: m.Def.ID()})
			}
			return it.callUser(m.Bind(f), args, kwargs)
		}
		return nil, &RuntimeError{Msg: f.Class.Name + " object is not callable"}
	}
	return nil, &RuntimeError{Msg: fn.TypeName() + " is not callable"}
}

func (it *Interp) callUser(f *FuncVal, args []Value, kwargs map[string]Value) (Value, error) {
	frame := NewEnv(f.Env)
	params := f.Params
	if f.Self != nil {
		if len(params) == 0 {
			return nil, &RuntimeError{Msg: f.Name + " is a method but has no self parameter"}
		}
		if err := frame.Define(params[0], f.Self); err != nil {
			return nil, err
		}
		params = params[1:]
	}
	if len(args) > len(params) {
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s() takes %d arguments, got %d", f.Name, len(params), len(args))}
	}
	bound := make(map[string]bool, len(params))
	for i, a := range args {
		if err := frame.Define(params[i], a); err != nil {
			return nil, err
		}
		bound[params[i]] = true
		if it.Prof != nil && f.Def != nil {
			// Argument values are profiled per defining node for type
			// specialization (paper §4.2.2).
			it.Prof.Value(f.Def.ID()*1000+i, a)
		}
	}
	for name, v := range kwargs {
		found := false
		for _, pn := range params {
			if pn == name {
				found = true
				break
			}
		}
		if !found {
			return nil, &RuntimeError{Msg: fmt.Sprintf("%s() got unexpected keyword argument %q", f.Name, name)}
		}
		if bound[name] {
			return nil, &RuntimeError{Msg: fmt.Sprintf("%s() got multiple values for %q", f.Name, name)}
		}
		if err := frame.Define(name, v); err != nil {
			return nil, err
		}
		bound[name] = true
	}
	// Fill defaults; Defaults is aligned with the full Params list.
	defOffset := 0
	if f.Self != nil {
		defOffset = 1
	}
	for i, pn := range params {
		if bound[pn] {
			continue
		}
		var d Expr
		if i+defOffset < len(f.Defaults) {
			d = f.Defaults[i+defOffset]
		}
		if d == nil {
			return nil, &RuntimeError{Msg: fmt.Sprintf("%s() missing argument %q", f.Name, pn)}
		}
		dv, err := it.eval(d, f.Env)
		if err != nil {
			return nil, err
		}
		if err := frame.Define(pn, dv); err != nil {
			return nil, err
		}
	}
	if f.LambdaBody != nil {
		return it.eval(f.LambdaBody, frame)
	}
	c, err := it.execBlock(f.Body, frame)
	if err != nil {
		return nil, err
	}
	if c == ctrlReturn {
		v := it.retVal
		it.retVal = nil
		return v, nil
	}
	return None, nil
}

// dispatchDelay burns OpDelay of wall-clock per framework-op dispatch; a
// busy spin because sleep granularity exceeds microseconds.
func (it *Interp) dispatchDelay() {
	if it.OpDelay <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < it.OpDelay; {
	}
}

// toDisplay renders a value for print(): strings unquoted, others via Repr.
func toDisplay(v Value) string {
	if s, ok := v.(StrVal); ok {
		return string(s)
	}
	return v.Repr()
}
