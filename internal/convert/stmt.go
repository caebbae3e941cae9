package convert

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/minipy"
)

// block converts a statement list. It returns the returned sym if a return
// statement was (unconditionally) reached, else nil.
//
// The common Python early-return idiom
//
//	if cond:
//	    return A
//	<rest>
//
// is normalized here into `if cond: return A else: <rest>` so the
// Switch/Merge conversion sees returns on both sides (the TreeNN recursion
// base-case pattern).
func (c *Converter) block(stmts []minipy.Stmt, e *env) (*sym, error) {
	for i, s := range stmts {
		if ifs, ok := s.(*minipy.IfStmt); ok && ifs.Else == nil && i+1 < len(stmts) && alwaysReturns(ifs.Then) {
			return c.stmt(ifs.WithElse(stmts[i+1:]), e)
		}
		ret, err := c.stmt(s, e)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return ret, nil
		}
	}
	return nil, nil
}

// alwaysReturns reports whether every path through the statements ends in a
// return.
func alwaysReturns(stmts []minipy.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	last := stmts[len(stmts)-1]
	switch st := last.(type) {
	case *minipy.ReturnStmt:
		return true
	case *minipy.IfStmt:
		return alwaysReturns(st.Then) && st.Else != nil && alwaysReturns(st.Else)
	}
	return false
}

func (c *Converter) stmt(s minipy.Stmt, e *env) (*sym, error) {
	switch st := s.(type) {
	case *minipy.ExprStmt:
		_, err := c.expr(st.X, e)
		return nil, err

	case *minipy.AssignStmt:
		v, err := c.expr(st.Value, e)
		if err != nil {
			return nil, err
		}
		return nil, c.assign(st.Target, v, e)

	case *minipy.AugAssignStmt:
		// Special-case the accumulation patterns `xs += [v]` on build-time
		// lists and loop accumulators before generic read-modify-write.
		if name, ok := st.Target.(*minipy.NameExpr); ok && st.Op == "+" {
			if cur, found := e.lookup(name.Name); found && (cur.kind == kSeq || cur.kind == kAccum) {
				rhs, err := c.expr(st.Value, e)
				if err != nil {
					return nil, err
				}
				if rhs.kind == kSeq && !rhs.seq.isTuple {
					if cur.kind == kAccum {
						for _, el := range rhs.seq.elems {
							if err := c.accumAppend(cur, el, st); err != nil {
								return nil, err
							}
						}
						return nil, nil
					}
					merged := append(append([]*sym{}, cur.seq.elems...), rhs.seq.elems...)
					e.set(name.Name, &sym{kind: kSeq, seq: &seqSym{elems: merged}})
					return nil, nil
				}
				return nil, notConvertible(st, "list += wants a list literal")
			}
		}
		cur, err := c.expr(st.Target, e)
		if err != nil {
			return nil, err
		}
		rhs, err := c.expr(st.Value, e)
		if err != nil {
			return nil, err
		}
		v, err := c.binop(st, st.Op, cur, rhs)
		if err != nil {
			return nil, err
		}
		return nil, c.assign(st.Target, v, e)

	case *minipy.IfStmt:
		return c.ifStmt(st, e)

	case *minipy.ForStmt:
		return c.forStmt(st, e)

	case *minipy.WhileStmt:
		return c.whileStmt(st, e)

	case *minipy.ReturnStmt:
		if st.Value == nil {
			return &sym{kind: kStatic, val: minipy.None}, nil
		}
		return c.expr(st.Value, e)

	case *minipy.PassStmt:
		return nil, nil

	case *minipy.FuncDef:
		fn := &minipy.FuncVal{Name: st.Name, Params: st.Params, Defaults: st.Defaults, Body: st.Body, Def: st}
		// Nested functions close over the symbolic env; we record the sym
		// frame so calls can resolve captured syms. Static closure only.
		e.set(st.Name, &sym{kind: kStatic, val: fn})
		return nil, nil

	case *minipy.GlobalStmt:
		// Reading globals is supported (resolved statically with a guard by
		// the attribute machinery); writing them is not, and declaring
		// `global` signals intent to write.
		return nil, notConvertible(st, "global state mutation has no graph representation (§4.3.1)")

	case *minipy.NonlocalStmt:
		return nil, notConvertible(st, "nonlocal mutation has no graph representation")

	case *minipy.AssertStmt:
		cond, err := c.expr(st.Cond, e)
		if err != nil {
			return nil, err
		}
		if b, ok := cond.staticBool(); ok {
			if !b {
				return nil, notConvertible(st, "assert statically false")
			}
			return nil, nil
		}
		c.addAssert(cond.port, "true", "program assert", st.ID(), nil)
		return nil, nil

	case *minipy.RaiseStmt:
		// Exceptions fall back to the imperative executor (Appendix A): the
		// raise site becomes an always-failing assert would be wrong for
		// conditionally-raised paths; simplest correct choice is to keep the
		// function imperative.
		return nil, notConvertible(st, "raise is handled imperatively")

	case *minipy.BreakStmt, *minipy.ContinueStmt:
		return nil, notConvertible(st, "break/continue inside converted loops is not supported")

	case *minipy.ClassDef:
		return nil, notConvertible(st, "in-line class definitions are imperative-only (§4.3.2)")

	case *minipy.DelStmt:
		return nil, notConvertible(st, "del is imperative-only")
	}
	return nil, notConvertible(s, "unsupported statement %T", s)
}

func (c *Converter) assign(target minipy.Expr, v *sym, e *env) error {
	switch t := target.(type) {
	case *minipy.NameExpr:
		e.set(t.Name, v)
		return nil
	case *minipy.AttrExpr:
		obj, err := c.expr(t.X, e)
		if err != nil {
			return err
		}
		if obj.kind != kDyn || !obj.isRef {
			return notConvertible(t, "attribute assignment on %s", obj.describe())
		}
		if c.opts.Trace {
			// Tracing baselines drop state writes silently — this is the
			// defun behaviour that loses RNN state passing in Figure 6(b).
			return nil
		}
		vp, err := c.asAnyPort(v, t)
		if err != nil {
			return err
		}
		set := c.g.Add("PySetAttr", map[string]graph.Val{"attr": t.Name}, obj.port, vp)
		c.g.Updates = append(c.g.Updates, set)
		c.noteStateOrder(set)
		return nil
	case *minipy.IndexExpr:
		obj, err := c.expr(t.X, e)
		if err != nil {
			return err
		}
		key, err := c.expr(t.Key, e)
		if err != nil {
			return err
		}
		if obj.kind == kSeq {
			i, ok := key.staticInt()
			if !ok {
				return notConvertible(t, "list index must be build-time known")
			}
			if i < 0 {
				i += len(obj.seq.elems)
			}
			if i < 0 || i >= len(obj.seq.elems) {
				return notConvertible(t, "list index %d out of range", i)
			}
			obj.seq.elems[i] = v
			return nil
		}
		if obj.kind == kDyn && obj.isRef {
			if c.opts.Trace {
				return nil
			}
			kp, err := c.asAnyPort(key, t)
			if err != nil {
				return err
			}
			vp, err := c.asAnyPort(v, t)
			if err != nil {
				return err
			}
			set := c.g.Add("PySetSubscr", nil, obj.port, kp, vp)
			c.g.Updates = append(c.g.Updates, set)
			c.noteStateOrder(set)
			return nil
		}
		return notConvertible(t, "subscript assignment on %s", obj.describe())
	case *minipy.TupleLit:
		items, err := c.unpackSym(v, len(t.Elems), t)
		if err != nil {
			return err
		}
		for i, el := range t.Elems {
			if err := c.assign(el, items[i], e); err != nil {
				return err
			}
		}
		return nil
	}
	return notConvertible(target, "unsupported assignment target %T", target)
}

// noteStateOrder serializes heap mutations: each new state op gets a control
// dependency on the previous one so the overlay write order matches program
// order even under parallel scheduling.
func (c *Converter) noteStateOrder(n *graph.Node) {
	if c.lastState != nil {
		n.ControlDeps = append(n.ControlDeps, c.lastState)
	}
	c.lastState = n
}

func (c *Converter) unpackSym(v *sym, want int, at minipy.Node) ([]*sym, error) {
	if v.kind == kSeq {
		if len(v.seq.elems) != want {
			return nil, notConvertible(at, "cannot unpack %d values into %d targets", len(v.seq.elems), want)
		}
		return v.seq.elems, nil
	}
	return nil, notConvertible(at, "cannot unpack %s", v.describe())
}

// accumAppend appends a value to a BASE-mode loop accumulator.
func (c *Converter) accumAppend(acc *sym, v *sym, at minipy.Node) error {
	p, err := c.asTensorPort(v, at)
	if err != nil {
		return err
	}
	acc.accum.ports = append(acc.accum.ports, p)
	return nil
}

// --- conditionals -------------------------------------------------------------

func (c *Converter) ifStmt(st *minipy.IfStmt, e *env) (*sym, error) {
	cond, err := c.expr(st.Cond, e)
	if err != nil {
		return nil, err
	}
	// Build-time-known condition: converge to one side, no guard needed.
	if b, ok := cond.staticBool(); ok {
		if b {
			return c.block(st.Then, e)
		}
		if st.Else != nil {
			return c.block(st.Else, e)
		}
		return nil, nil
	}
	// Dynamic condition. Speculation (+UNRL): if the profile says the branch
	// is stable, prune to one side guarded by an AssertOp.
	if c.opts.Unroll && !c.opts.Distrust[st.ID()] {
		if taken, stable := c.stableBranch(st.ID()); stable {
			kind := "false"
			if taken {
				kind = "true"
			}
			c.addAssert(cond.port, kind, fmt.Sprintf("branch@%d assumed %v", st.ID(), taken), st.ID(), nil)
			if taken {
				return c.block(st.Then, e)
			}
			if st.Else != nil {
				return c.block(st.Else, e)
			}
			return nil, nil
		}
	}
	// Unstable (or BASE mode): emit Switch/Merge dataflow for both sides.
	return c.switchMerge(st, cond, e)
}

// stableBranch consults the profile; in trace mode every branch is "stable"
// in the direction the exemplar took — but trace conversion never reaches
// here because trace implies Unroll and uses the exemplar directly via the
// profile recorded during the trace run.
func (c *Converter) stableBranch(nodeID int) (taken, stable bool) {
	if c.prof == nil {
		return false, false
	}
	return c.prof.BranchStable(nodeID)
}

// switchMerge converts both sides of a dynamic conditional into dataflow
// gated by Switch and joined by Merge (§4.2.1 basic translation rules).
type branchOut struct {
	bindings map[string]*sym
	ret      *sym
}

func (c *Converter) switchMerge(st *minipy.IfStmt, cond *sym, e *env) (*sym, error) {
	pred := cond.port

	convertSide := func(body []minipy.Stmt, takeTrue bool) (*branchOut, error) {
		side := newEnv(e)
		side.gate = &branchGate{conv: c, pred: pred, takeTrue: takeTrue, switched: make(map[graph.Port]graph.Port)}
		var ret *sym
		var err error
		if body != nil {
			ret, err = c.block(body, side)
			if err != nil {
				return nil, err
			}
		}
		return &branchOut{bindings: side.snapshot(), ret: ret}, nil
	}

	thenOut, err := convertSide(st.Then, true)
	if err != nil {
		return nil, err
	}
	elseOut, err := convertSide(st.Else, false)
	if err != nil {
		return nil, err
	}

	// Returns: support the all-paths-return pattern (recursion base cases).
	if thenOut.ret != nil || elseOut.ret != nil {
		if thenOut.ret == nil || elseOut.ret == nil {
			return nil, notConvertible(st, "conditional return on only one branch of a dynamic condition")
		}
		tp, err := c.asAnyPort(thenOut.ret, st)
		if err != nil {
			return nil, err
		}
		ep, err := c.asAnyPort(elseOut.ret, st)
		if err != nil {
			return nil, err
		}
		// Gate the return values through the Switch so only the taken side's
		// value is live, then Merge.
		swT := c.gatePort(tp, pred, true)
		swE := c.gatePort(ep, pred, false)
		m := c.g.Add("Merge", nil, swT, swE)
		return &sym{kind: kDyn, port: m.P()}, nil
	}

	// Merge variable bindings changed on either side.
	names := map[string]bool{}
	for n := range thenOut.bindings {
		names[n] = true
	}
	for n := range elseOut.bindings {
		names[n] = true
	}
	for name := range names {
		tv := thenOut.bindings[name]
		ev := elseOut.bindings[name]
		outer, hasOuter := e.lookup(name)
		if tv == nil {
			if !hasOuter {
				return nil, notConvertible(st, "%q assigned only on one branch and undefined before", name)
			}
			tv = outer
		}
		if ev == nil {
			if !hasOuter {
				return nil, notConvertible(st, "%q assigned only on one branch and undefined before", name)
			}
			ev = outer
		}
		if tv == ev {
			e.set(name, tv)
			continue
		}
		tp, err := c.asAnyPort(tv, st)
		if err != nil {
			return nil, err
		}
		ep, err := c.asAnyPort(ev, st)
		if err != nil {
			return nil, err
		}
		m := c.g.Add("Merge", nil, c.gatePort(tp, pred, true), c.gatePort(ep, pred, false))
		e.set(name, &sym{kind: kDyn, port: m.P()})
	}
	return nil, nil
}

// gatePort routes p through a Switch on pred so it is dead on the untaken
// side.
func (c *Converter) gatePort(p graph.Port, pred graph.Port, takeTrue bool) graph.Port {
	sw := c.g.Add("Switch", nil, p, pred)
	if takeTrue {
		return sw.Out(0)
	}
	return sw.Out(1)
}

// branchGate wraps reads of outer dynamic values inside a dynamic branch so
// the consuming ops only fire when the branch is taken (dead-token gating).
type branchGate struct {
	conv     *Converter
	pred     graph.Port
	takeTrue bool
	switched map[graph.Port]graph.Port
}

func (g *branchGate) gate(s *sym) *sym {
	if s.kind != kDyn {
		return s
	}
	if p, ok := g.switched[s.port]; ok {
		out := *s
		out.port = p
		return &out
	}
	p := g.conv.gatePort(s.port, g.pred, g.takeTrue)
	g.switched[s.port] = p
	out := *s
	out.port = p
	return &out
}
