package convert

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// profileValueInfo aliases the profiler's value lattice locally.
type profileValueInfo = profile.ValueInfo

// expr partially evaluates one expression into a symbolic value.
func (c *Converter) expr(x minipy.Expr, e *env) (*sym, error) {
	switch ex := x.(type) {
	case *minipy.NameExpr:
		v, ok := e.lookup(ex.Name)
		if !ok {
			// Builtin registry as last resort.
			if b := c.reg.Get(ex.Name); b != nil {
				return &sym{kind: kStatic, val: &minipy.BuiltinVal{Name: b.Name, Fn: b.Fn}}, nil
			}
			return nil, notConvertible(ex, "name %q is not defined", ex.Name)
		}
		return v, nil
	case *minipy.IntLit:
		return &sym{kind: kStatic, val: minipy.IntVal(ex.Value)}, nil
	case *minipy.FloatLit:
		return &sym{kind: kStatic, val: minipy.FloatVal(ex.Value)}, nil
	case *minipy.StrLit:
		return &sym{kind: kStatic, val: minipy.StrVal(ex.Value)}, nil
	case *minipy.BoolLit:
		return &sym{kind: kStatic, val: minipy.BoolVal(ex.Value)}, nil
	case *minipy.NoneLit:
		return &sym{kind: kStatic, val: minipy.None}, nil
	case *minipy.ListLit:
		elems := make([]*sym, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := c.expr(el, e)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems}}, nil
	case *minipy.TupleLit:
		elems := make([]*sym, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := c.expr(el, e)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return &sym{kind: kSeq, seq: &seqSym{elems: elems, isTuple: true}}, nil
	case *minipy.DictLit:
		if len(ex.Keys) != 0 {
			return nil, notConvertible(ex, "non-empty dict literals are not convertible")
		}
		return &sym{kind: kStatic, val: minipy.NewDict()}, nil
	case *minipy.UnaryExpr:
		v, err := c.expr(ex.X, e)
		if err != nil {
			return nil, err
		}
		return c.unary(ex, ex.Op, v)
	case *minipy.BinExpr:
		l, err := c.expr(ex.L, e)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(ex.R, e)
		if err != nil {
			return nil, err
		}
		return c.binop(ex, ex.Op, l, r)
	case *minipy.BoolOpExpr:
		l, err := c.expr(ex.L, e)
		if err != nil {
			return nil, err
		}
		if b, ok := l.staticBool(); ok {
			if (ex.Op == "and" && !b) || (ex.Op == "or" && b) {
				return l, nil
			}
			return c.expr(ex.R, e)
		}
		return nil, notConvertible(ex, "dynamic boolean operators are not convertible")
	case *minipy.CondExpr:
		cond, err := c.expr(ex.Cond, e)
		if err != nil {
			return nil, err
		}
		if b, ok := cond.staticBool(); ok {
			if b {
				return c.expr(ex.A, e)
			}
			return c.expr(ex.B, e)
		}
		if c.opts.Unroll && !c.opts.Distrust[ex.ID()] {
			if taken, stable := c.stableBranch(ex.ID()); stable {
				kind := "false"
				if taken {
					kind = "true"
				}
				c.addAssert(cond.port, kind, fmt.Sprintf("cond-expr@%d", ex.ID()), ex.ID(), nil)
				if taken {
					return c.expr(ex.A, e)
				}
				return c.expr(ex.B, e)
			}
		}
		// Dynamic conditional expression: both sides via Switch/Merge.
		a, err := c.expr(ex.A, e)
		if err != nil {
			return nil, err
		}
		b, err := c.expr(ex.B, e)
		if err != nil {
			return nil, err
		}
		ap, err := c.asAnyPort(a, ex)
		if err != nil {
			return nil, err
		}
		bp, err := c.asAnyPort(b, ex)
		if err != nil {
			return nil, err
		}
		m := c.g.Add("Merge", nil, c.gatePort(ap, cond.port, true), c.gatePort(bp, cond.port, false))
		return &sym{kind: kDyn, port: m.P()}, nil
	case *minipy.AttrExpr:
		return c.attr(ex, e)
	case *minipy.IndexExpr:
		return c.index(ex, e)
	case *minipy.LambdaExpr:
		fn := &minipy.FuncVal{Name: "<lambda>", Params: ex.Params, LambdaBody: ex.Body, Def: ex}
		return &sym{kind: kStatic, val: fn}, nil
	case *minipy.CallExpr:
		return c.call(ex, e)
	}
	return nil, notConvertible(x, "unsupported expression %T", x)
}

// --- operators --------------------------------------------------------------

func (c *Converter) binop(at minipy.Node, op string, l, r *sym) (*sym, error) {
	// Static × static: evaluate with real interpreter semantics.
	if l.kind == kStatic && r.kind == kStatic {
		v, err := minipy.EvalBinOp(c.scratch, op, l.val, r.val)
		if err != nil {
			return nil, notConvertible(at, "static %s: %v", op, err)
		}
		return &sym{kind: kStatic, val: v}, nil
	}
	// Sequence concatenation with dynamic elements stays a build-time seq.
	if op == "+" && l.kind == kSeq && r.kind == kSeq {
		merged := append(append([]*sym{}, l.seq.elems...), r.seq.elems...)
		return &sym{kind: kSeq, seq: &seqSym{elems: merged, isTuple: l.seq.isTuple}}, nil
	}
	if gop, ok := minipy.BinOps[op]; ok {
		lp, err := c.asTensorPort(l, at)
		if err != nil {
			return nil, err
		}
		rp, err := c.asTensorPort(r, at)
		if err != nil {
			return nil, err
		}
		n := c.g.Add(gop, nil, lp, rp)
		c.inferBroadcast(n, lp, rp)
		return &sym{kind: kDyn, port: n.P()}, nil
	}
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		lp, err := c.asTensorPort(l, at)
		if err != nil {
			return nil, err
		}
		rp, err := c.asTensorPort(r, at)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Cmp", map[string]graph.Val{"op": op}, lp, rp)
		return &sym{kind: kDyn, port: n.P()}, nil
	case "//", "%":
		return nil, notConvertible(at, "dynamic %s is not convertible", op)
	case "is", "is not", "in":
		return nil, notConvertible(at, "dynamic %q is not convertible", op)
	}
	return nil, notConvertible(at, "unsupported operator %s", op)
}

func (c *Converter) unary(at minipy.Node, op string, v *sym) (*sym, error) {
	if v.kind == kStatic {
		out, err := minipy.EvalUnaryOp(c.scratch, op, v.val)
		if err != nil {
			return nil, notConvertible(at, "static unary %s: %v", op, err)
		}
		return &sym{kind: kStatic, val: out}, nil
	}
	switch op {
	case "-":
		p, err := c.asTensorPort(v, at)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Neg", nil, p)
		c.copyShape(n.P(), p)
		return &sym{kind: kDyn, port: n.P()}, nil
	case "+":
		return v, nil
	case "not":
		p, err := c.asAnyPort(v, at)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Not", nil, p)
		return &sym{kind: kDyn, port: n.P()}, nil
	}
	return nil, notConvertible(at, "unsupported unary %s", op)
}

// --- attribute / subscript access ---------------------------------------------

// attr converts obj.name. Decision tree per §4.2.2/§4.2.3:
//   - methods resolve statically (callee identity is part of the class);
//   - profile-stable scalar attributes specialize to constants guarded by an
//     equality assert (trace mode bakes without the guard — the Figure 6
//     batch-norm failure);
//   - everything else becomes a dynamic PyGetAttr read through the overlay.
func (c *Converter) attr(ex *minipy.AttrExpr, e *env) (*sym, error) {
	obj, err := c.expr(ex.X, e)
	if err != nil {
		return nil, err
	}
	if obj.kind == kSeq {
		return nil, notConvertible(ex, "list method %q is handled at call sites only", ex.Name)
	}
	if obj.kind != kDyn || !obj.isRef {
		if obj.kind == kDyn && !obj.isRef {
			// Tensor attributes.
			switch ex.Name {
			case "shape":
				if sh, ok := c.shapes[obj.port]; ok {
					elems := make([]*sym, len(sh))
					for i, d := range sh {
						elems[i] = &sym{kind: kStatic, val: minipy.IntVal(d)}
					}
					return &sym{kind: kSeq, seq: &seqSym{elems: elems, isTuple: true}}, nil
				}
				return nil, notConvertible(ex, "tensor shape unknown without specialization")
			}
		}
		return nil, notConvertible(ex, "attribute %q on %s", ex.Name, obj.describe())
	}
	// Method lookup against the exemplar object's class.
	if o, ok := obj.exemplar.(*minipy.ObjectVal); ok {
		if _, isAttr := o.Attrs[ex.Name]; !isAttr {
			if m, isMethod := o.Class.Methods[ex.Name]; isMethod {
				return &sym{kind: kStatic, val: m, self: obj}, nil
			}
		}
	}
	// Exemplar-driven classification of data attributes.
	var exVal minipy.Value
	if o, ok := obj.exemplar.(*minipy.ObjectVal); ok {
		exVal = o.Attrs[ex.Name]
	}
	var info *profileValueInfo
	if c.prof != nil {
		info = c.prof.ValueAt(ex.ID())
	}
	if isScalar(exVal) {
		stable := info != nil && info.ConstStable
		if c.opts.Trace {
			// Bake without a guard: unsafe specialization.
			return &sym{kind: kStatic, val: exVal}, nil
		}
		if c.opts.Specialize && stable && !c.opts.Distrust[ex.ID()] {
			read := c.g.Add("PyGetAttr", map[string]graph.Val{"attr": ex.Name}, obj.port)
			c.addAssert(read.P(), "eq", fmt.Sprintf("attr %s@%d assumed constant", ex.Name, ex.ID()), ex.ID(),
				map[string]graph.Val{"expected": scalarToGo(exVal)})
			return &sym{kind: kStatic, val: exVal}, nil
		}
	}
	// Dynamic read.
	read := c.g.Add("PyGetAttr", map[string]graph.Val{"attr": ex.Name}, obj.port)
	c.noteStateRead(read)
	out := &sym{kind: kDyn, port: read.P(), exemplar: exVal}
	switch exVal.(type) {
	case *minipy.ObjectVal, *minipy.ListVal, *minipy.DictVal:
		out.isRef = true
	case *minipy.TensorVal:
		if c.opts.Specialize {
			sh := exVal.(*minipy.TensorVal).T().Shape()
			if info != nil && info.ShapeKnown {
				sh = info.Shape
			}
			c.shapes[read.P()] = append([]int(nil), sh...)
			c.addAssert(read.P(), "shape", fmt.Sprintf("attr %s@%d shape", ex.Name, ex.ID()), ex.ID(),
				map[string]graph.Val{"shape": append([]int(nil), sh...)})
		}
	case nil:
		// No exemplar (e.g. recursing past the exemplar tree): fully dynamic.
		out.isRef = true
	}
	return out, nil
}

// noteStateRead orders heap reads after prior heap writes so the overlay
// redirection of Figure 5 (step 3) observes program order.
func (c *Converter) noteStateRead(n *graph.Node) {
	if c.lastState != nil {
		n.ControlDeps = append(n.ControlDeps, c.lastState)
	}
}

func (c *Converter) index(ex *minipy.IndexExpr, e *env) (*sym, error) {
	obj, err := c.expr(ex.X, e)
	if err != nil {
		return nil, err
	}
	key, err := c.expr(ex.Key, e)
	if err != nil {
		return nil, err
	}
	switch obj.kind {
	case kSeq:
		i, ok := key.staticInt()
		if !ok {
			return nil, notConvertible(ex, "sequence index must be build-time known")
		}
		if i < 0 {
			i += len(obj.seq.elems)
		}
		if i < 0 || i >= len(obj.seq.elems) {
			return nil, notConvertible(ex, "index %d out of range (len %d)", i, len(obj.seq.elems))
		}
		return obj.seq.elems[i], nil
	case kStatic:
		if d, ok := obj.val.(*minipy.DictVal); ok && key.kind == kStatic {
			k, err := minipy.DictKey(key.val)
			if err != nil {
				return nil, notConvertible(ex, "%v", err)
			}
			v, ok := d.Entries[k]
			if !ok {
				return nil, notConvertible(ex, "dict key %s not found at build time", key.val.Repr())
			}
			return c.staticToSym(v), nil
		}
		return nil, notConvertible(ex, "subscript on %s", obj.describe())
	case kDyn:
		if obj.isRef {
			if obj.isRuntimeList() {
				// A Loop accumulator's runtime list: IndexList. A list on
				// the heap is read through PyGetSubscr below.
				kp, err := c.asAnyPort(key, ex)
				if err != nil {
					return nil, err
				}
				n := c.g.Add("IndexList", nil, obj.port, kp)
				return &sym{kind: kDyn, port: n.P()}, nil
			}
			kp, err := c.asAnyPort(key, ex)
			if err != nil {
				return nil, err
			}
			read := c.g.Add("PyGetSubscr", nil, obj.port, kp)
			c.noteStateRead(read)
			var childEx minipy.Value
			if l, ok := obj.exemplar.(*minipy.ListVal); ok && len(l.Items) > 0 {
				childEx = l.Items[0]
			}
			out := &sym{kind: kDyn, port: read.P(), exemplar: childEx}
			switch childEx.(type) {
			case *minipy.ObjectVal, *minipy.ListVal, *minipy.DictVal:
				out.isRef = true
			case nil:
				out.isRef = true
			}
			return out, nil
		}
		// Tensor row indexing with static index -> Slice+reshape.
		i, ok := key.staticInt()
		if !ok {
			return nil, notConvertible(ex, "tensor index must be build-time known")
		}
		sh, known := c.shapes[obj.port]
		if !known {
			// Shape-free subscript (e.g. elements of a Pack'd recursive
			// return): generic runtime indexing.
			kp, err := c.asAnyPort(key, ex)
			if err != nil {
				return nil, err
			}
			n := c.g.Add("IndexAny", nil, obj.port, kp)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		if i < 0 {
			i += sh[0]
		}
		sl := c.g.Add("Slice", map[string]graph.Val{"axis": 0, "lo": i, "hi": i + 1}, obj.port)
		rest := append([]int(nil), sh[1:]...)
		rs := c.g.Add("ReshapeLike", nil, sl.P(), c.g.Const(tensor.Zeros(rest...)).P())
		c.shapes[rs.P()] = rest
		return &sym{kind: kDyn, port: rs.P()}, nil
	}
	return nil, notConvertible(ex, "subscript on %s", obj.describe())
}

func isScalar(v minipy.Value) bool {
	switch v.(type) {
	case minipy.IntVal, minipy.FloatVal, minipy.BoolVal, minipy.StrVal:
		return true
	}
	return false
}

func scalarToGo(v minipy.Value) graph.Val {
	switch x := v.(type) {
	case minipy.IntVal:
		return int(x)
	case minipy.FloatVal:
		return float64(x)
	case minipy.BoolVal:
		return bool(x)
	case minipy.StrVal:
		return string(x)
	}
	return nil
}

// --- shape inference helpers ---------------------------------------------------

// shapeOf is p's shape as OpDef.Shape takes it: nil when unknown, empty
// (not nil) when rank 0.
func (c *Converter) shapeOf(p graph.Port) []int {
	sh, ok := c.shapes[p]
	if ok && sh == nil {
		return []int{}
	}
	return sh
}

func (c *Converter) copyShape(dst, src graph.Port) {
	if sh, ok := c.shapes[src]; ok {
		c.shapes[dst] = sh
	}
}

func (c *Converter) inferBroadcast(n *graph.Node, a, b graph.Port) {
	sa, oka := c.shapes[a]
	sb, okb := c.shapes[b]
	if !oka || !okb {
		return
	}
	if out, err := tensor.BroadcastShapes(sa, sb); err == nil {
		c.shapes[n.P()] = out
	}
}
