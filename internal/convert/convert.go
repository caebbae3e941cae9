// Package convert implements the paper's primary contribution: the
// Speculative Graph Generator. Given an imperative minipy function, an
// exemplar invocation (the live argument values of a recent call), and the
// runtime profile gathered by internal/profile, it partially evaluates the
// function's AST into a symbolic dataflow graph (internal/graph):
//
//   - tensor-valued inputs become Placeholders; scalar inputs are specialized
//     to constants (and are part of the graph-cache signature, so a changed
//     scalar is a cache miss, not a wrong answer);
//   - stable conditional branches are pruned with an AssertOp guarding the
//     assumed direction; unstable branches become Switch/Merge dataflow
//     (§4.2.1);
//   - loops with profile-stable trip counts are either fully unrolled
//     (+UNRL) or emitted as a structured Loop op over a once-converted body
//     subgraph (BASE);
//   - user function calls are inlined; recursion becomes an InvokeOp over
//     the function's own subgraph (following [20]);
//   - object attribute and subscript accesses become PyGetAttr/PySetAttr/
//     PyGetSubscr/PySetSubscr heap ops with deferred write-back (§4.2.3);
//     profile-stable scalar attributes are specialized to constants guarded
//     by an equality AssertOp (§4.2.2);
//   - programs using features without a graph representation return
//     ErrNotConvertible, leaving the function on the imperative executor
//     (§4.3).
//
// The same machinery with Trace=true reproduces the defun-style tracing
// baseline: no assertions are emitted, attribute state is baked as constants,
// and recursion or state writes are conversion errors — exactly the failure
// modes Table 1 and Figure 6 of the paper attribute to tracing converters.
package convert

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// Options selects the speculation level; the flags map 1:1 onto the paper's
// Figure 7 ablation (+UNRL, +SPCN; +PARL is tensor kernel parallelism).
type Options struct {
	// Unroll enables control-flow unrolling and branch pruning (+UNRL).
	Unroll bool
	// Specialize enables shape/value specialization and marks the graph
	// eligible for the optimizer passes (+SPCN).
	Specialize bool
	// Trace switches to unsafe defun-style conversion (no guards).
	Trace bool
	// Distrust lists AST node IDs whose speculative assumptions failed
	// before; the converter will not re-speculate on them.
	Distrust map[int]bool
	// MaxInlineDepth bounds recursive inlining before switching to InvokeOp.
	MaxInlineDepth int
}

// ErrNotConvertible wraps reasons a function must stay imperative.
var ErrNotConvertible = errors.New("not convertible")

// notConvertible builds a classified conversion failure.
func notConvertible(n minipy.Node, format string, args ...any) error {
	line := 0
	if n != nil {
		line, _ = n.Pos()
	}
	return fmt.Errorf("%w: line %d: %s", ErrNotConvertible, line, fmt.Sprintf(format, args...))
}

// Result is a successfully generated graph plus everything the runtime needs
// to execute and cache it.
type Result struct {
	Graph *graph.Graph
	// Loss is the port holding the function's return value.
	Loss graph.Port
	// Dynamic marks a graph that trains on the executor's trace tape. Only
	// the engine sets it, when FinalizeTraining fails; ConvertCall never does.
	Dynamic bool
	// Asserts lists the embedded assumption checks.
	Asserts []*graph.Node
	// VarNames are the model parameters read by the graph, sorted, so that
	// one program always builds the same training graph.
	VarNames []string
	// Signature is the cache-key pattern for the exemplar invocation.
	Signature []string
	// NumFeeds is the number of runtime-fed placeholders (f0..fN-1).
	NumFeeds int
}

// Converter holds conversion state. One Converter produces one Result.
type Converter struct {
	opts Options
	prof *profile.Profile
	reg  *minipy.Registry

	g        *graph.Graph
	asserts  []*graph.Node
	varNames map[string]bool
	feeds    int

	// shapes tracks statically-known tensor shapes per port for shape
	// assertions, reshape resolution and row indexing.
	shapes map[graph.Port][]int

	// funcGraphs maps function definition nodes to their (possibly still
	// under construction) subgraphs, enabling recursion via InvokeOp.
	funcGraphs map[minipy.Node]*graph.Graph
	onStack    map[minipy.Node]int

	// scratch interpreter evaluates static (build-time) arithmetic with
	// exact minipy semantics.
	scratch *minipy.Interp

	// lastState chains heap-mutation ops in program order via control deps.
	lastState *graph.Node
}

// ConvertCall generates a graph for calling fn with the given exemplar
// arguments. The returned Result's placeholders f0..fN-1 correspond to the
// leaves discovered by Flatten on (args ++ captures); captures are the live
// values of fn's free variables.
func ConvertCall(fn *minipy.FuncVal, args []minipy.Value, prof *profile.Profile, reg *minipy.Registry, opts Options) (*Result, error) {
	if opts.MaxInlineDepth == 0 {
		opts.MaxInlineDepth = 64
	}
	c := &Converter{
		opts:       opts,
		prof:       prof,
		reg:        reg,
		g:          graph.New(),
		varNames:   make(map[string]bool),
		shapes:     make(map[graph.Port][]int),
		funcGraphs: make(map[minipy.Node]*graph.Graph),
		onStack:    make(map[minipy.Node]int),
		scratch:    minipy.NewInterp(reg),
	}
	sig, _ := Flatten(fn, args)

	// Bind arguments (and the bound self, if any) symbolically.
	env := newEnv(nil)
	env.conv = c
	params := fn.Params
	allArgs := args
	if fn.Self != nil {
		allArgs = append([]minipy.Value{fn.Self}, args...)
	}
	if len(allArgs) > len(params) {
		return nil, notConvertible(fn.Def, "%s() takes %d arguments, got %d", fn.Name, len(params), len(allArgs))
	}
	leafIdx := 0
	for i, v := range allArgs {
		s := c.valueToSym(v, &leafIdx)
		env.set(params[i], s)
	}
	// Defaults for missing trailing params.
	for i := len(allArgs); i < len(params); i++ {
		if i >= len(fn.Defaults) || fn.Defaults[i] == nil {
			return nil, notConvertible(fn.Def, "%s() missing argument %q", fn.Name, params[i])
		}
		dv, err := c.scratch.CallFunction(&minipy.FuncVal{Name: "<default>", LambdaBody: fn.Defaults[i], Env: fn.Env}, nil)
		if err != nil {
			return nil, notConvertible(fn.Def, "default for %q: %v", params[i], err)
		}
		env.set(params[i], c.valueToSym(dv, &leafIdx))
	}
	// Closure captures become call inputs (same walk order as Flatten), so
	// per-iteration data captured by the optimized lambda is runtime-fed, not
	// baked — the correctness distinction between JANUS and tracing.
	for _, name := range CaptureNames(fn) {
		if v, ok := fn.Env.Lookup(name); ok {
			env.set(name, c.valueToSym(v, &leafIdx))
		}
	}
	env.closure = fn.Env

	var ret *sym
	var err error
	if fn.LambdaBody != nil {
		ret, err = c.expr(fn.LambdaBody, env)
	} else {
		ret, err = c.block(fn.Body, env)
	}
	if err != nil {
		return nil, err
	}
	if ret == nil {
		ret = &sym{kind: kStatic, val: minipy.None}
	}
	if _, isTensor := ret.val.(*minipy.TensorVal); ret.kind == kStatic && !isTensor {
		// A graph's output is a tensor: it would turn the interpreter's
		// Python value into one.
		return nil, notConvertible(fn.Def, "return value is the Python value %s", ret.val.Repr())
	}
	lossPort, err := c.asTensorPort(ret, fn.Def)
	if err != nil {
		return nil, notConvertible(fn.Def, "return value: %v", err)
	}
	c.g.Outputs = []graph.Port{lossPort}
	names := make([]string, 0, len(c.varNames))
	for n := range c.varNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return &Result{
		Graph:     c.g,
		Loss:      lossPort,
		Asserts:   c.asserts,
		VarNames:  names,
		Signature: sig,
		NumFeeds:  c.feeds,
	}, nil
}

// FinalizeTraining appends gradient and parameter-update operations for a
// static graph ("operations for automatic differentiation and model
// parameter updates are also automatically inserted", §3.1). Every update
// gets control dependencies on every AssertOp so state changes only happen
// once all assumptions validated; under exec.Options.GradSink the same ops
// emit their gradients instead. It fails, leaving the graph untouched, when
// graph.Gradients cannot differentiate the graph.
func FinalizeTraining(r *Result, lr float64) error {
	grads, err := graph.Gradients(r.Graph, r.Loss, r.VarNames)
	if err != nil {
		return err
	}
	for _, name := range r.VarNames {
		upd := r.Graph.Add("AssignSub", map[string]graph.Val{"name": name, "lr": lr}, grads[name])
		upd.ControlDeps = append(upd.ControlDeps, r.Asserts...)
		r.Graph.Updates = append(r.Graph.Updates, upd)
	}
	return nil
}

// --- signature / feed flattening ---------------------------------------------

// CaptureNames returns the free variables of fn whose current values should
// be treated as call inputs (tensors, containers, objects, scalars); names
// bound to functions, classes, builtins or nothing at all resolve statically.
func CaptureNames(fn *minipy.FuncVal) []string {
	if fn.Env == nil {
		return nil
	}
	var out []string
	for _, name := range minipy.FreeVars(fn) {
		v, ok := fn.Env.Lookup(name)
		if !ok {
			continue
		}
		switch v.(type) {
		case *minipy.FuncVal, *minipy.ClassVal, *minipy.BuiltinVal, *minipy.DictVal, minipy.RangeVal:
			continue
		}
		out = append(out, name)
	}
	return out
}

// sigSink receives the signature tokens of walkSignature. Two sinks exist:
// tokenSink materializes the []string cache-key signature (Flatten) and
// hashSink folds the same token stream into an FNV-1a hash without
// allocating (FlattenHash). Sharing one walk guarantees the hash can never
// disagree structurally with the token form.
type sigSink interface {
	token(tag byte, s string)
	tokenInt(tag byte, v int64)
	tensorTok(shape []int)
}

// tokenSink builds the human-readable signature used by SigMatch.
type tokenSink struct{ sig []string }

func (t *tokenSink) token(tag byte, s string) {
	switch tag {
	case 's':
		t.sig = append(t.sig, "s:"+s)
	case 'O':
		t.sig = append(t.sig, "O:"+s)
	case 'c':
		t.sig = append(t.sig, "cls:"+s)
	case 'B':
		t.sig = append(t.sig, "bi:"+s)
	case '?':
		t.sig = append(t.sig, "?:"+s)
	case 'C':
		t.sig = append(t.sig, "cap:"+s)
	case 'n':
		t.sig = append(t.sig, "none")
	case ']':
		t.sig = append(t.sig, "]")
	case ')':
		t.sig = append(t.sig, ")")
	}
}

func (t *tokenSink) tokenInt(tag byte, v int64) {
	switch tag {
	case 'i':
		t.sig = append(t.sig, fmt.Sprintf("i:%d", v))
	case 'f':
		t.sig = append(t.sig, fmt.Sprintf("f:%g", math.Float64frombits(uint64(v))))
	case 'b':
		t.sig = append(t.sig, fmt.Sprintf("b:%v", v != 0))
	case '[':
		t.sig = append(t.sig, fmt.Sprintf("[%d", v))
	case '(':
		t.sig = append(t.sig, fmt.Sprintf("(%d", v))
	case '{':
		t.sig = append(t.sig, fmt.Sprintf("{%d}", v))
	case 'F':
		t.sig = append(t.sig, fmt.Sprintf("fn:%d", v))
	}
}

func (t *tokenSink) tensorTok(shape []int) {
	t.sig = append(t.sig, "T:"+shapeToken(shape))
}

// hashSink folds the token stream into 64-bit FNV-1a.
type hashSink struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHashSink() *hashSink { return &hashSink{h: fnvOffset} }

func (hs *hashSink) byte(b byte) { hs.h = (hs.h ^ uint64(b)) * fnvPrime }

func (hs *hashSink) u64(v uint64) {
	for i := 0; i < 8; i++ {
		hs.byte(byte(v))
		v >>= 8
	}
}

func (hs *hashSink) token(tag byte, s string) {
	hs.byte(tag)
	for i := 0; i < len(s); i++ {
		hs.byte(s[i])
	}
	hs.byte(0)
}

func (hs *hashSink) tokenInt(tag byte, v int64) {
	hs.byte(tag)
	hs.u64(uint64(v))
}

func (hs *hashSink) tensorTok(shape []int) {
	hs.byte('T')
	hs.u64(uint64(len(shape)))
	for _, d := range shape {
		hs.u64(uint64(d))
	}
}

// walkSignature visits a call's argument values (including a bound self)
// and the function's free-variable captures in the converter's canonical
// order, emitting signature tokens to sink and appending runtime-fed leaf
// values (tensors, objects) to leaves.
func walkSignature(fn *minipy.FuncVal, args []minipy.Value, sink sigSink, leaves []minipy.Value) []minipy.Value {
	var walk func(v minipy.Value)
	walk = func(v minipy.Value) {
		switch x := v.(type) {
		case *minipy.TensorVal:
			sink.tensorTok(x.T().Shape())
			leaves = append(leaves, v)
		case minipy.IntVal:
			sink.tokenInt('i', int64(x))
		case minipy.FloatVal:
			sink.tokenInt('f', int64(math.Float64bits(float64(x))))
		case minipy.BoolVal:
			b := int64(0)
			if x {
				b = 1
			}
			sink.tokenInt('b', b)
		case minipy.StrVal:
			sink.token('s', string(x))
		case minipy.NoneVal:
			sink.token('n', "")
		case *minipy.ListVal:
			sink.tokenInt('[', int64(len(x.Items)))
			for _, e := range x.Items {
				walk(e)
			}
			sink.token(']', "")
		case *minipy.TupleVal:
			sink.tokenInt('(', int64(len(x.Items)))
			for _, e := range x.Items {
				walk(e)
			}
			sink.token(')', "")
		case *minipy.ObjectVal:
			sink.token('O', x.Class.Name)
			leaves = append(leaves, v)
		case *minipy.DictVal:
			sink.tokenInt('{', int64(len(x.Entries)))
		case *minipy.FuncVal:
			id := -1
			if x.Def != nil {
				id = x.Def.ID()
			}
			sink.tokenInt('F', int64(id))
		case *minipy.ClassVal:
			sink.token('c', x.Name)
		case *minipy.BuiltinVal:
			sink.token('B', x.Name)
		default:
			sink.token('?', v.TypeName())
		}
	}
	if fn.Self != nil {
		walk(fn.Self)
	}
	for _, a := range args {
		walk(a)
	}
	for _, name := range CaptureNames(fn) {
		if v, ok := fn.Env.Lookup(name); ok {
			sink.token('C', name)
			walk(v)
		}
	}
	return leaves
}

// Flatten walks a call's argument values (including a bound self) and the
// function's free-variable captures, producing the cache-key signature
// tokens and the ordered list of runtime-fed leaf values. The converter and
// the engine use the same walk so placeholder indices always line up.
func Flatten(fn *minipy.FuncVal, args []minipy.Value) (sig []string, leaves []minipy.Value) {
	ts := &tokenSink{}
	leaves = walkSignature(fn, args, ts, nil)
	return ts.sig, leaves
}

// FlattenHash is the allocation-light counterpart of Flatten: it runs the
// same signature walk but folds the token stream into a 64-bit FNV-1a hash
// instead of materializing strings. Engines memoize hash → compiled-graph
// per function so a repeated Call with an already-seen concrete signature
// skips token building and the SigMatch scan entirely. Equal signatures
// always produce equal hashes (same walk). The converse does not hold: two
// DIFFERENT signatures colliding on 64 bits would alias in the memo, so
// consumers must cross-check cheap structural facts on a hash hit (the
// engine verifies the leaf count, which pins the feed arity) and accept the
// residual same-arity collision risk (~n²/2⁶⁴ for n live signatures per
// function — negligible, and bounded by the memo's size cap).
func FlattenHash(fn *minipy.FuncVal, args []minipy.Value) (hash uint64, leaves []minipy.Value) {
	hs := newHashSink()
	leaves = walkSignature(fn, args, hs, nil)
	return hs.h, leaves
}

func shapeToken(sh []int) string {
	parts := make([]string, len(sh))
	for i, d := range sh {
		if d < 0 {
			parts[i] = "?"
		} else {
			parts[i] = fmt.Sprintf("%d", d)
		}
	}
	return strings.Join(parts, ",")
}

// SigMatch reports whether a concrete signature matches a cached pattern
// (wildcard dims "?" in the pattern match any size). This is the
// validate-before-execute assumption check of Figure 2 step 1: a mismatch is
// a cache miss, never a wrong execution.
func SigMatch(pattern, concrete []string) bool {
	if len(pattern) != len(concrete) {
		return false
	}
	for i := range pattern {
		p, c := pattern[i], concrete[i]
		if p == c {
			continue
		}
		if !strings.HasPrefix(p, "T:") || !strings.HasPrefix(c, "T:") {
			return false
		}
		pd := strings.Split(p[2:], ",")
		cd := strings.Split(c[2:], ",")
		if len(pd) != len(cd) {
			return false
		}
		for j := range pd {
			if pd[j] != "?" && pd[j] != cd[j] {
				return false
			}
		}
	}
	return true
}

// RelaxSignature merges a cached pattern with a newly observed concrete
// signature, wildcarding tensor dims that differ (the Figure 4 relaxation).
// It returns nil if the signatures differ in a non-relaxable way.
func RelaxSignature(pattern, concrete []string) []string {
	if len(pattern) != len(concrete) {
		return nil
	}
	out := make([]string, len(pattern))
	for i := range pattern {
		p, c := pattern[i], concrete[i]
		if p == c {
			out[i] = p
			continue
		}
		if !strings.HasPrefix(p, "T:") || !strings.HasPrefix(c, "T:") {
			return nil
		}
		pd := strings.Split(p[2:], ",")
		cd := strings.Split(c[2:], ",")
		if len(pd) != len(cd) {
			return nil
		}
		merged := make([]string, len(pd))
		for j := range pd {
			if pd[j] == cd[j] {
				merged[j] = pd[j]
			} else {
				merged[j] = "?"
			}
		}
		out[i] = "T:" + strings.Join(merged, ",")
	}
	return out
}

// --- converter helpers ---------------------------------------------------------

// valueToSym classifies a runtime value into a symbolic value, creating
// placeholders for tensor/object leaves (consuming leaf indices in Flatten
// order).
func (c *Converter) valueToSym(v minipy.Value, leafIdx *int) *sym {
	switch x := v.(type) {
	case *minipy.TensorVal:
		ph := c.g.Placeholder(fmt.Sprintf("f%d", *leafIdx))
		*leafIdx++
		c.feeds++
		sh := x.T().Shape()
		if c.opts.Specialize {
			c.shapes[ph.P()] = append([]int(nil), sh...)
		}
		return &sym{kind: kDyn, port: ph.P(), exemplar: v}
	case *minipy.ObjectVal:
		ph := c.g.Placeholder(fmt.Sprintf("f%d", *leafIdx))
		*leafIdx++
		c.feeds++
		return &sym{kind: kDyn, port: ph.P(), exemplar: v, isRef: true}
	case *minipy.ListVal:
		elems := make([]*sym, len(x.Items))
		for i, e := range x.Items {
			elems[i] = c.valueToSym(e, leafIdx)
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems}}
	case *minipy.TupleVal:
		elems := make([]*sym, len(x.Items))
		for i, e := range x.Items {
			elems[i] = c.valueToSym(e, leafIdx)
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems, isTuple: true}}
	default:
		return &sym{kind: kStatic, val: v}
	}
}

// staticToSym classifies a value reached through a static (build-time)
// lookup, e.g. a closure variable: tensors are baked as constants rather
// than fed (they are part of the environment the assumptions describe).
func (c *Converter) staticToSym(v minipy.Value) *sym {
	switch x := v.(type) {
	case *minipy.TensorVal:
		n := c.g.Const(x.T())
		c.shapes[n.P()] = append([]int(nil), x.T().Shape()...)
		return &sym{kind: kDyn, port: n.P(), exemplar: v}
	case *minipy.ListVal:
		elems := make([]*sym, len(x.Items))
		for i, e := range x.Items {
			elems[i] = c.staticToSym(e)
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems}}
	case *minipy.TupleVal:
		elems := make([]*sym, len(x.Items))
		for i, e := range x.Items {
			elems[i] = c.staticToSym(e)
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems, isTuple: true}}
	case *minipy.ObjectVal:
		n := c.g.ConstVal(v)
		return &sym{kind: kDyn, port: n.P(), exemplar: v, isRef: true}
	default:
		return &sym{kind: kStatic, val: v}
	}
}

// addAssert emits an AssertOp unless running in trace mode (trace-based
// conversion emits no guards — that is precisely its unsafety). astID links
// the assertion back to the AST node whose assumption it validates, so a
// runtime failure can distrust exactly that assumption before regeneration.
func (c *Converter) addAssert(input graph.Port, kind, desc string, astID int, attrs map[string]graph.Val) *graph.Node {
	if c.opts.Trace {
		return nil
	}
	if attrs == nil {
		attrs = map[string]graph.Val{}
	}
	attrs["kind"] = kind
	attrs["desc"] = desc
	attrs["ast"] = astID
	a := c.g.Add("Assert", attrs, input)
	c.asserts = append(c.asserts, a)
	return a
}

// asTensorPort lowers a sym to a tensor-valued port.
func (c *Converter) asTensorPort(s *sym, at minipy.Node) (graph.Port, error) {
	switch s.kind {
	case kDyn:
		return s.port, nil
	case kStatic:
		switch v := s.val.(type) {
		case minipy.IntVal:
			n := c.g.Const(tensor.Scalar(float64(v)))
			c.shapes[n.P()] = []int{}
			return n.P(), nil
		case minipy.FloatVal:
			n := c.g.Const(tensor.Scalar(float64(v)))
			c.shapes[n.P()] = []int{}
			return n.P(), nil
		case minipy.BoolVal:
			b := 0.0
			if v {
				b = 1
			}
			n := c.g.Const(tensor.Scalar(b))
			c.shapes[n.P()] = []int{}
			return n.P(), nil
		case *minipy.TensorVal:
			n := c.g.Const(v.T())
			c.shapes[n.P()] = append([]int(nil), v.T().Shape()...)
			return n.P(), nil
		}
		return graph.Port{}, notConvertible(at, "cannot use %s as a tensor", s.val.TypeName())
	}
	return graph.Port{}, notConvertible(at, "cannot use %s as a tensor", s.describe())
}

// asAnyPort lowers a sym to a port of any runtime kind (for Switch data,
// Invoke args, heap ops).
func (c *Converter) asAnyPort(s *sym, at minipy.Node) (graph.Port, error) {
	switch s.kind {
	case kDyn:
		return s.port, nil
	case kStatic:
		switch v := s.val.(type) {
		case minipy.IntVal:
			return c.g.ConstVal(int(v)).P(), nil
		case minipy.FloatVal:
			return c.g.ConstVal(float64(v)).P(), nil
		case minipy.BoolVal:
			return c.g.ConstVal(bool(v)).P(), nil
		case minipy.StrVal:
			return c.g.ConstVal(string(v)).P(), nil
		case minipy.NoneVal:
			return c.g.ConstVal(nil).P(), nil
		case *minipy.TensorVal:
			return c.g.Const(v.T()).P(), nil
		}
		return c.g.ConstVal(s.val).P(), nil
	case kSeq:
		// Lists crossing a runtime boundary (recursive returns, branch
		// merges) become boxed []Val values via Pack.
		ports := make([]graph.Port, len(s.seq.elems))
		for i, el := range s.seq.elems {
			p, err := c.asAnyPort(el, at)
			if err != nil {
				return graph.Port{}, err
			}
			ports[i] = p
		}
		return c.g.Add("Pack", nil, ports...).P(), nil
	}
	return graph.Port{}, notConvertible(at, "cannot lower %s to a runtime value", s.describe())
}
