package convert

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// forStmt converts a for loop. Strategy (paper §4.2.1):
//
//   - iterables known at build time (static lists, ranges, tuples) with
//     Unroll on, or loops whose body needs build-time values per iteration:
//     fully unrolled;
//   - with Unroll off (BASE): the body is converted once into a subgraph and
//     executed by a structured Loop op, which keeps per-iteration scheduling
//     overhead in the graph — this is exactly the cost +UNRL removes in
//     Figure 7;
//   - iterables that are not build-time enumerable: not convertible.
func (c *Converter) forStmt(st *minipy.ForStmt, e *env) (*sym, error) {
	iter, err := c.expr(st.Iter, e)
	if err != nil {
		return nil, err
	}
	items, err := c.enumerate(iter, st)
	if err != nil {
		return nil, err
	}
	if c.opts.Unroll && !c.opts.Distrust[st.ID()] {
		return nil, c.unrollFor(st, items, e)
	}
	// BASE: attempt a Loop-op conversion; fall back to unrolling when the
	// body needs build-time per-iteration values.
	if err := c.loopOpFor(st, items, e); err != nil {
		if isNotConvertible(err) {
			return nil, c.unrollFor(st, items, e)
		}
		return nil, err
	}
	return nil, nil
}

func isNotConvertible(err error) bool {
	for e := err; e != nil; {
		if e == ErrNotConvertible {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := e.(unwrapper)
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// enumerate lists the iteration items of a build-time iterable.
func (c *Converter) enumerate(iter *sym, at minipy.Node) ([]*sym, error) {
	switch iter.kind {
	case kSeq:
		return iter.seq.elems, nil
	case kStatic:
		if r, ok := iter.val.(minipy.RangeVal); ok {
			out := make([]*sym, 0, r.Len())
			if r.Step > 0 {
				for i := r.Start; i < r.Stop; i += r.Step {
					out = append(out, &sym{kind: kStatic, val: minipy.IntVal(i)})
				}
			} else if r.Step < 0 {
				for i := r.Start; i > r.Stop; i += r.Step {
					out = append(out, &sym{kind: kStatic, val: minipy.IntVal(i)})
				}
			}
			return out, nil
		}
	case kDyn:
		// Iterating a tensor's leading axis: enumerable when the shape is
		// statically known (specialization).
		if sh, ok := c.shapes[iter.port]; ok && len(sh) > 0 && sh[0] >= 0 {
			out := make([]*sym, sh[0])
			for i := 0; i < sh[0]; i++ {
				sl := c.g.Add("Slice", map[string]graph.Val{"axis": 0, "lo": i, "hi": i + 1}, iter.port)
				c.shapes[sl.P()] = append([]int{1}, sh[1:]...)
				rs := c.g.Add("ReshapeLike", nil, sl.P(), c.g.Const(tensor.Zeros(sh[1:]...)).P())
				c.shapes[rs.P()] = append([]int(nil), sh[1:]...)
				out[i] = &sym{kind: kDyn, port: rs.P()}
			}
			return out, nil
		}
	}
	return nil, notConvertible(at, "iterable %s is not enumerable at graph-build time", iter.describe())
}

// unrollFor emits the body once per item, binding the target each time.
func (c *Converter) unrollFor(st *minipy.ForStmt, items []*sym, e *env) error {
	// Guard the trip count: for profiled loops assert stability; loops over
	// build-time lists are already covered by the cache signature (list
	// length is part of it), so no runtime assert is needed there.
	for _, item := range items {
		if err := c.assign(st.Target, item, e); err != nil {
			return err
		}
		ret, err := c.block(st.Body, e)
		if err != nil {
			return err
		}
		if ret != nil {
			return notConvertible(st, "return inside converted loop")
		}
	}
	return nil
}

// loopOpFor converts the loop into a structured Loop node over a
// once-converted body subgraph (BASE mode).
func (c *Converter) loopOpFor(st *minipy.ForStmt, items []*sym, e *env) error {
	trips := len(items)
	// Identify names assigned in the body; they become loop-carried values.
	assigned := map[string]bool{}
	scanAssigned(st.Body, assigned)
	targetNames := map[string]bool{}
	collectTargetNames(st.Target, targetNames)

	var carried []string
	accums := map[string]*sym{}
	for name := range assigned {
		if targetNames[name] {
			continue
		}
		if cur, ok := e.lookup(name); ok && cur.kind == kSeq && isAppendOnly(st.Body, name) {
			// Pre-existing list only appended to: accumulator. Only empty
			// initial lists are supported (appending to non-empty lists in
			// BASE loops falls back to unrolling).
			if len(cur.seq.elems) != 0 {
				return notConvertible(st, "accumulation into non-empty list")
			}
			accums[name] = nil
			continue
		}
		carried = append(carried, name)
	}
	sortStrings(carried)
	accumNames := make([]string, 0, len(accums))
	for n := range accums {
		accumNames = append(accumNames, n)
	}
	sortStrings(accumNames)

	// Build the body subgraph with a child converter sharing graph-global
	// state (asserts land in the OUTER graph? No — asserts inside a loop body
	// run per iteration; they belong to the body graph).
	body := graph.New()
	sub := &Converter{
		opts: c.opts, prof: c.prof, reg: c.reg, g: body,
		varNames: c.varNames, shapes: make(map[graph.Port][]int),
		funcGraphs: c.funcGraphs, onStack: c.onStack, scratch: c.scratch,
	}
	be := newEnv(nil)
	be.conv = sub
	be.closure = findClosure(e)

	// Carried placeholders.
	for i, name := range carried {
		ph := body.Placeholder(fmt.Sprintf("carried%d", i))
		// Shape hint from the current outer value when available.
		if cur, ok := e.lookup(name); ok && cur.kind == kDyn {
			if sh, ok := c.shapes[cur.port]; ok {
				sub.shapes[ph.P()] = sh
			}
		}
		be.set(name, &sym{kind: kDyn, port: ph.P()})
	}
	// Accumulator sentinels.
	for i, name := range accumNames {
		be.set(name, &sym{kind: kAccum, accum: &accumInfo{index: i}})
	}
	// Per-iteration element placeholder(s). Tuple targets unpack a kSeq item
	// only when every item is a seq of equal arity — otherwise fall back.
	seqCount := 0
	switch tgt := st.Target.(type) {
	case *minipy.NameExpr:
		ph := body.Placeholder("iter0")
		if len(items) > 0 && items[0].kind == kDyn {
			if sh, ok := c.shapes[items[0].port]; ok {
				sub.shapes[ph.P()] = sh
			}
		}
		if len(items) > 0 && items[0].kind == kStatic {
			// Static per-iteration values (e.g. range indices) cannot vary
			// inside a single-body subgraph as statics; feed them as runtime
			// scalars.
			be.set(tgt.Name, &sym{kind: kDyn, port: ph.P()})
		} else {
			be.set(tgt.Name, &sym{kind: kDyn, port: ph.P()})
		}
		seqCount = 1
	default:
		return notConvertible(st, "tuple loop targets require unrolling")
	}

	// Invariant capture: reads of outer dynamic names inside the body create
	// invariant placeholders on demand.
	inv := &invariantCapture{outer: e, body: body, conv: sub, mapping: map[string]*invEntry{}}
	be.parent = inv.frame()

	ret, err := sub.block(st.Body, be)
	if err != nil {
		return err
	}
	if ret != nil {
		return notConvertible(st, "return inside BASE-mode loop body")
	}

	// Body outputs: next carried values then accumulator elements (each
	// iteration must append exactly one element per accumulator).
	var outs []graph.Port
	for _, name := range carried {
		v, ok := be.vars[name]
		if !ok {
			return notConvertible(st, "carried %q not assigned in body", name)
		}
		p, err := sub.asAnyPort(v, st)
		if err != nil {
			return err
		}
		outs = append(outs, p)
	}
	for _, name := range accumNames {
		a := be.vars[name]
		if a == nil || a.kind != kAccum || len(a.accum.ports) != 1 {
			return notConvertible(st, "accumulator %q must append exactly once per iteration", name)
		}
		outs = append(outs, a.accum.ports[0])
	}
	body.Outputs = outs

	// Outer Loop node inputs: carried inits ++ invariants ++ seq elements.
	var inputs []graph.Port
	for _, name := range carried {
		init, ok := e.lookup(name)
		if !ok {
			init = &sym{kind: kStatic, val: minipy.IntVal(0)}
		}
		p, err := c.asAnyPort(init, st)
		if err != nil {
			return err
		}
		inputs = append(inputs, p)
	}
	for _, ie := range inv.ordered {
		inputs = append(inputs, ie.outerPort)
	}
	for _, item := range items {
		p, err := c.asAnyPort(item, st)
		if err != nil {
			return err
		}
		inputs = append(inputs, p)
	}

	loop := c.g.Add("Loop", map[string]graph.Val{
		"body": body, "trips": trips,
		"carried": len(carried), "inv": len(inv.ordered),
		"seqs": seqCount, "accum": len(accumNames),
	}, inputs...)
	loop.NumOutputs = len(carried) + len(accumNames)

	// Rebind carried names and accumulators in the outer env.
	for i, name := range carried {
		e.set(name, &sym{kind: kDyn, port: loop.Out(i)})
	}
	for i, name := range accumNames {
		// The accumulator output is a runtime []Val list, read by stack(),
		// len() and subscripts.
		e.set(name, &sym{kind: kDyn, port: loop.Out(len(carried) + i), isRef: true,
			exemplar: runtimeList})
	}
	return nil
}

// invariantCapture lazily creates invariant placeholders in the loop body
// for reads of outer dynamic values.
type invariantCapture struct {
	outer   *env
	body    *graph.Graph
	conv    *Converter
	mapping map[string]*invEntry
	ordered []*invEntry
}

type invEntry struct {
	name      string
	outerPort graph.Port
	bodyPort  graph.Port
}

// frame returns an env frame that resolves names against the outer env,
// translating dynamic values into invariant placeholders.
func (ic *invariantCapture) frame() *env {
	f := newEnv(nil)
	f.conv = ic.conv
	f.resolver = ic
	return f
}

func (ic *invariantCapture) resolve(name string) (*sym, bool) {
	if e, ok := ic.mapping[name]; ok {
		return &sym{kind: kDyn, port: e.bodyPort}, true
	}
	v, ok := ic.outer.lookup(name)
	if !ok {
		return nil, false
	}
	if v.kind != kDyn {
		return v, true // statics pass straight through
	}
	idx := len(ic.ordered)
	ph := ic.body.Placeholder(fmt.Sprintf("inv%d", idx))
	if sh, ok := ic.outer.conv.shapes[v.port]; ok {
		ic.conv.shapes[ph.P()] = sh
	}
	e := &invEntry{name: name, outerPort: v.port, bodyPort: ph.P()}
	ic.mapping[name] = e
	ic.ordered = append(ic.ordered, e)
	out := *v
	out.port = ph.P()
	return &out, true
}

// whileStmt converts a while loop: profile-stable trip counts unroll with
// per-iteration condition asserts; anything else stays imperative.
func (c *Converter) whileStmt(st *minipy.WhileStmt, e *env) (*sym, error) {
	// Purely static condition loops: evaluate at build time.
	for guard := 0; ; guard++ {
		if guard > 1_000_000 {
			return nil, notConvertible(st, "build-time while loop did not terminate")
		}
		cond, err := c.expr(st.Cond, e)
		if err != nil {
			return nil, err
		}
		b, ok := cond.staticBool()
		if !ok {
			// Dynamic condition: speculative unrolling with asserts.
			if guard == 0 {
				return c.speculativeWhile(st, e)
			}
			return nil, notConvertible(st, "while condition became dynamic mid-loop")
		}
		if !b {
			return nil, nil
		}
		ret, err := c.block(st.Body, e)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return nil, notConvertible(st, "return inside converted while loop")
		}
	}
}

func (c *Converter) speculativeWhile(st *minipy.WhileStmt, e *env) (*sym, error) {
	if !c.opts.Unroll || c.opts.Distrust[st.ID()] {
		return nil, notConvertible(st, "dynamic while loop without unrolling")
	}
	trips, stable := 0, false
	if c.prof != nil {
		trips, stable = c.prof.LoopTrips(st.ID())
	}
	if !stable {
		return nil, notConvertible(st, "while trip count unstable in profile")
	}
	for i := 0; i < trips; i++ {
		cond, err := c.expr(st.Cond, e)
		if err != nil {
			return nil, err
		}
		if cond.kind == kDyn {
			c.addAssert(cond.port, "true", fmt.Sprintf("while@%d iteration %d", st.ID(), i), st.ID(), nil)
		}
		ret, err := c.block(st.Body, e)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return nil, notConvertible(st, "return inside converted while loop")
		}
	}
	// Exit check: the condition must now be false.
	cond, err := c.expr(st.Cond, e)
	if err != nil {
		return nil, err
	}
	if b, ok := cond.staticBool(); ok {
		if b {
			return nil, notConvertible(st, "while loop statically exceeds profiled trips")
		}
	} else {
		c.addAssert(cond.port, "false", fmt.Sprintf("while@%d exit after %d trips", st.ID(), trips), st.ID(), nil)
	}
	return nil, nil
}

// --- small AST analysis helpers ----------------------------------------------

func scanAssigned(stmts []minipy.Stmt, out map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *minipy.AssignStmt:
			collectTargetNames(st.Target, out)
		case *minipy.AugAssignStmt:
			collectTargetNames(st.Target, out)
		case *minipy.IfStmt:
			scanAssigned(st.Then, out)
			scanAssigned(st.Else, out)
		case *minipy.ForStmt:
			collectTargetNames(st.Target, out)
			scanAssigned(st.Body, out)
		case *minipy.WhileStmt:
			scanAssigned(st.Body, out)
		}
	}
}

func collectTargetNames(e minipy.Expr, out map[string]bool) {
	switch t := e.(type) {
	case *minipy.NameExpr:
		out[t.Name] = true
	case *minipy.TupleLit:
		for _, el := range t.Elems {
			collectTargetNames(el, out)
		}
	}
}

// isAppendOnly reports whether name is only used as `name += [x]` or
// `name.append(x)` within the body (never re-assigned or indexed).
func isAppendOnly(stmts []minipy.Stmt, name string) bool {
	ok := true
	var walkStmts func([]minipy.Stmt)
	walkStmts = func(ss []minipy.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *minipy.AssignStmt:
				names := map[string]bool{}
				collectTargetNames(st.Target, names)
				if names[name] {
					ok = false
				}
			case *minipy.AugAssignStmt:
				if n, isName := st.Target.(*minipy.NameExpr); isName && n.Name == name && st.Op != "+" {
					ok = false
				}
			case *minipy.IfStmt:
				walkStmts(st.Then)
				walkStmts(st.Else)
			case *minipy.ForStmt:
				walkStmts(st.Body)
			case *minipy.WhileStmt:
				walkStmts(st.Body)
			}
		}
	}
	walkStmts(stmts)
	return ok
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func findClosure(e *env) *minipy.Env {
	for s := e; s != nil; s = s.parent {
		if s.closure != nil {
			return s.closure
		}
	}
	return nil
}
