package convert

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/minipy"
)

// symKind classifies symbolic values during partial evaluation.
type symKind int

const (
	// kStatic is a build-time-known minipy value (scalar, string, None,
	// function, class, builtin, dict). Static values are folded into the
	// graph structure; changing them is a cache miss (value specialization).
	kStatic symKind = iota
	// kDyn is a runtime value flowing through a graph port. exemplar (when
	// non-nil) is the value observed at conversion time, used to classify
	// downstream attribute accesses; isRef marks heap references (objects,
	// runtime lists) rather than tensors/scalars.
	kDyn
	// kSeq is a build-time list/tuple whose elements are syms (possibly
	// dynamic). Python list aliasing is preserved via the shared seq pointer.
	kSeq
	// kAccum is a Loop-op accumulator sentinel inside a BASE-mode loop body:
	// it only supports append.
	kAccum
)

// sym is one symbolic value.
type sym struct {
	kind     symKind
	val      minipy.Value // kStatic
	port     graph.Port   // kDyn
	exemplar minipy.Value // kDyn: value seen during conversion (may be nil)
	isRef    bool         // kDyn: heap reference (object / runtime list)
	seq      *seqSym      // kSeq
	self     *sym         // kStatic FuncVal: bound receiver
	accum    *accumInfo   // kAccum
}

// runtimeList is the exemplar of a Loop accumulator's output, a runtime
// []Val list that IndexList, StackList and Len read. A list reached on the
// heap keeps its own exemplar and is read through PyGetSubscr.
var runtimeList = &minipy.ListVal{}

// isRuntimeList reports whether s is a Loop accumulator's runtime list.
func (s *sym) isRuntimeList() bool { return s.kind == kDyn && s.exemplar == runtimeList }

type seqSym struct {
	elems   []*sym
	isTuple bool
}

type accumInfo struct {
	index int // accumulator slot in the loop body outputs
	ports []graph.Port
}

func (s *sym) describe() string {
	switch s.kind {
	case kStatic:
		return "static " + s.val.TypeName()
	case kDyn:
		if s.isRef {
			return "heap reference"
		}
		return "dynamic value"
	case kSeq:
		if s.seq.isTuple {
			return fmt.Sprintf("tuple[%d]", len(s.seq.elems))
		}
		return fmt.Sprintf("list[%d]", len(s.seq.elems))
	case kAccum:
		return "loop accumulator"
	}
	return "unknown"
}

// staticBool extracts a build-time boolean if possible.
func (s *sym) staticBool() (bool, bool) {
	if s.kind != kStatic {
		if s.kind == kSeq {
			return len(s.seq.elems) > 0, true
		}
		return false, false
	}
	b, err := minipy.Truthy(s.val)
	if err != nil {
		return false, false
	}
	return b, true
}

// staticInt extracts a build-time integer if possible.
func (s *sym) staticInt() (int, bool) {
	if s.kind != kStatic {
		return 0, false
	}
	n, ok := minipy.AsInt(s.val)
	return int(n), ok
}

// staticStr extracts a build-time string if possible.
func (s *sym) staticStr() (string, bool) {
	if s.kind != kStatic {
		return "", false
	}
	v, ok := s.val.(minipy.StrVal)
	return string(v), ok
}

// env is the symbolic environment: lexical frames of name->sym bindings.
// closure (set on function frames) resolves free names against the live
// minipy environment at build time.
type env struct {
	vars    map[string]*sym
	parent  *env
	closure *minipy.Env
	conv    *Converter
	globals map[string]bool
	// gate, when set, wraps dynamic reads from enclosing frames through a
	// Switch so branch-local consumers are dead when the branch is untaken.
	gate *branchGate
	// resolver, when set, intercepts name resolution for this frame (used by
	// BASE-mode loop bodies to capture loop-invariant values).
	resolver interface {
		resolve(name string) (*sym, bool)
	}
}

func newEnv(parent *env) *env {
	e := &env{vars: make(map[string]*sym), parent: parent}
	if parent != nil {
		e.conv = parent.conv
	}
	return e
}

// lookup resolves a name through symbolic frames, then the build-time
// closure environment, then the builtin registry. Reads that cross a branch
// gate (dynamic conditional) are routed through the gate's Switch.
func (e *env) lookup(name string) (*sym, bool) {
	for s := e; s != nil; s = s.parent {
		if s.globals != nil && s.globals[name] {
			break // redirect to globals (handled below via closure module env)
		}
		if v, ok := s.vars[name]; ok {
			if s != e && e.gate != nil {
				return e.gate.gate(v), true
			}
			return v, true
		}
		if s.resolver != nil {
			if v, ok := s.resolver.resolve(name); ok {
				return v, true
			}
		}
		if s.closure != nil {
			if v, ok := s.closure.Lookup(name); ok {
				sv := e.conv.staticToSym(v)
				if e.gate != nil {
					return e.gate.gate(sv), true
				}
				return sv, true
			}
		}
	}
	// Global-declared names: resolve via the outermost closure's module env.
	for s := e; s != nil; s = s.parent {
		if s.closure != nil {
			if v, ok := s.closure.Module().Lookup(name); ok {
				return e.conv.staticToSym(v), true
			}
			break
		}
	}
	return nil, false
}

func (e *env) set(name string, v *sym) {
	if e.globals != nil && e.globals[name] {
		// Global writes inside converted code are not supported by the graph
		// generator; callers treat this as not-convertible before reaching
		// here. Store locally as a fallback.
		e.vars[name] = v
		return
	}
	e.vars[name] = v
}

// flat returns a copy of all bindings visible in this frame (used for branch
// merging).
func (e *env) snapshot() map[string]*sym {
	out := make(map[string]*sym, len(e.vars))
	for k, v := range e.vars {
		out[k] = v
	}
	return out
}
