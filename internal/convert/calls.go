package convert

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// call converts a call expression: whitelisted builtins map to graph ops
// (§4.3.1), user functions are inlined, recursion becomes InvokeOp ([20]),
// and class instantiation / non-whitelisted builtins are not convertible.
func (c *Converter) call(ex *minipy.CallExpr, e *env) (*sym, error) {
	// List/dict method calls are resolved syntactically (obj.append(x)) so
	// the attr converter never needs list-method syms.
	if at, ok := ex.Fn.(*minipy.AttrExpr); ok {
		recv, err := c.expr(at.X, e)
		if err != nil {
			return nil, err
		}
		if recv.kind == kSeq || recv.kind == kAccum {
			return c.seqMethod(ex, at.Name, recv, e)
		}
		fn, err := c.attrCallable(at, recv)
		if err != nil {
			return nil, err
		}
		if fn != nil {
			args, kwargs, err := c.callArgs(ex, e)
			if err != nil {
				return nil, err
			}
			return c.dispatch(ex, fn, args, kwargs)
		}
	}
	fnSym, err := c.expr(ex.Fn, e)
	if err != nil {
		return nil, err
	}
	args, kwargs, err := c.callArgs(ex, e)
	if err != nil {
		return nil, err
	}
	return c.dispatch(ex, fnSym, args, kwargs)
}

// attrCallable resolves obj.method for dynamic object receivers; returns nil
// when the attribute is plain data (caller falls through to c.attr).
func (c *Converter) attrCallable(at *minipy.AttrExpr, recv *sym) (*sym, error) {
	if recv.kind != kDyn || !recv.isRef {
		return nil, nil
	}
	o, ok := recv.exemplar.(*minipy.ObjectVal)
	if !ok {
		return nil, nil
	}
	if _, isData := o.Attrs[at.Name]; isData {
		return nil, nil
	}
	if m, isMethod := o.Class.Methods[at.Name]; isMethod {
		return &sym{kind: kStatic, val: m, self: recv}, nil
	}
	return nil, nil
}

func (c *Converter) callArgs(ex *minipy.CallExpr, e *env) ([]*sym, map[string]*sym, error) {
	args := make([]*sym, len(ex.Args))
	for i, a := range ex.Args {
		v, err := c.expr(a, e)
		if err != nil {
			return nil, nil, err
		}
		args[i] = v
	}
	var kwargs map[string]*sym
	if len(ex.KwNames) > 0 {
		kwargs = make(map[string]*sym, len(ex.KwNames))
		for i, n := range ex.KwNames {
			v, err := c.expr(ex.KwValues[i], e)
			if err != nil {
				return nil, nil, err
			}
			kwargs[n] = v
		}
	}
	return args, kwargs, nil
}

func (c *Converter) dispatch(ex *minipy.CallExpr, fnSym *sym, args []*sym, kwargs map[string]*sym) (*sym, error) {
	if fnSym.kind != kStatic {
		// Calling a dynamically-resolved callee: JANUS profiles callee
		// stability; our statics cover all model patterns, so treat dynamic
		// callees as not convertible.
		if fnSym.kind == kDyn && fnSym.isRef {
			if o, ok := fnSym.exemplar.(*minipy.ObjectVal); ok {
				if m, isCall := o.Class.Methods["__call__"]; isCall {
					return c.userCall(ex, m, fnSym, args, kwargs)
				}
			}
		}
		return nil, notConvertible(ex, "dynamic callee")
	}
	switch f := fnSym.val.(type) {
	case *minipy.BuiltinVal:
		return c.builtinCall(ex, f.Name, args, kwargs)
	case *minipy.FuncVal:
		return c.userCall(ex, f, fnSym.self, args, kwargs)
	case *minipy.ClassVal:
		return nil, notConvertible(ex, "class instantiation inside converted code")
	}
	if o, ok := fnSym.val.(*minipy.ObjectVal); ok {
		if m, isCall := o.Class.Methods["__call__"]; isCall {
			self := c.staticToSym(o)
			return c.userCall(ex, m, self, args, kwargs)
		}
	}
	return nil, notConvertible(ex, "%s is not callable", fnSym.val.TypeName())
}

// seqMethod handles build-time list mutation: append works on static lists
// and loop accumulators; other mutators force fallback.
func (c *Converter) seqMethod(ex *minipy.CallExpr, name string, recv *sym, e *env) (*sym, error) {
	switch name {
	case "append":
		if len(ex.Args) != 1 {
			return nil, notConvertible(ex, "append wants one argument")
		}
		v, err := c.expr(ex.Args[0], e)
		if err != nil {
			return nil, err
		}
		if recv.kind == kAccum {
			if err := c.accumAppend(recv, v, ex); err != nil {
				return nil, err
			}
			return &sym{kind: kStatic, val: minipy.None}, nil
		}
		recv.seq.elems = append(recv.seq.elems, v)
		return &sym{kind: kStatic, val: minipy.None}, nil
	}
	return nil, notConvertible(ex, "list method %q is not convertible", name)
}

// userCall inlines a user-defined function, or emits an InvokeOp when the
// call is recursive.
func (c *Converter) userCall(ex *minipy.CallExpr, fn *minipy.FuncVal, self *sym, args []*sym, kwargs map[string]*sym) (*sym, error) {
	if kwargs != nil {
		return nil, notConvertible(ex, "keyword arguments to user functions are not convertible")
	}
	if fn.Def == nil {
		return nil, notConvertible(ex, "anonymous function without definition node")
	}
	if c.onStack[fn.Def] > 0 {
		// Recursion: InvokeOp against the function's (under-construction)
		// subgraph.
		return c.invokeCall(ex, fn, self, args)
	}
	if len(c.onStack) >= c.opts.MaxInlineDepth {
		return nil, notConvertible(ex, "inline depth limit")
	}
	c.onStack[fn.Def]++
	defer func() { c.onStack[fn.Def]-- }()

	frame := newEnv(nil)
	frame.conv = c
	frame.closure = fn.Env
	params := fn.Params
	if self != nil {
		if len(params) == 0 {
			return nil, notConvertible(ex, "method without self parameter")
		}
		frame.set(params[0], self)
		params = params[1:]
	}
	if len(args) > len(params) {
		return nil, notConvertible(ex, "%s() takes %d arguments, got %d", fn.Name, len(params), len(args))
	}
	for i, a := range args {
		frame.set(params[i], a)
	}
	defOffset := 0
	if self != nil {
		defOffset = 1
	}
	for i := len(args); i < len(params); i++ {
		var d minipy.Expr
		if i+defOffset < len(fn.Defaults) {
			d = fn.Defaults[i+defOffset]
		}
		if d == nil {
			return nil, notConvertible(ex, "%s() missing argument %q", fn.Name, params[i])
		}
		dv, err := c.scratch.CallFunction(&minipy.FuncVal{Name: "<default>", LambdaBody: d, Env: fn.Env}, nil)
		if err != nil {
			return nil, notConvertible(ex, "default: %v", err)
		}
		frame.set(params[i], c.staticToSym(dv))
	}
	if fn.LambdaBody != nil {
		return c.expr(fn.LambdaBody, frame)
	}
	ret, err := c.block(fn.Body, frame)
	if err != nil {
		return nil, err
	}
	if ret == nil {
		ret = &sym{kind: kStatic, val: minipy.None}
	}
	return ret, nil
}

// invokeCall converts a recursive call site into an InvokeOp referencing the
// function's own subgraph (built once, on first recursive encounter).
func (c *Converter) invokeCall(ex *minipy.CallExpr, fn *minipy.FuncVal, self *sym, args []*sym) (*sym, error) {
	if c.opts.Trace {
		// Trace-based conversion cannot represent recursion — the TreeLSTM
		// row of Figure 6/Table 1.
		return nil, notConvertible(ex, "tracing cannot convert recursive function calls")
	}
	fg, err := c.functionGraph(ex, fn, self, args)
	if err != nil {
		return nil, err
	}
	var inputs []graph.Port
	if self != nil {
		p, err := c.asAnyPort(self, ex)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, p)
	}
	for _, a := range args {
		p, err := c.asAnyPort(a, ex)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, p)
	}
	inv := c.g.Add("Invoke", map[string]graph.Val{"func": fg}, inputs...)
	return &sym{kind: kDyn, port: inv.P()}, nil
}

// functionGraph builds (or reuses) the standalone subgraph for a recursive
// function. Placeholders arg0..argN-1 stand for self (if bound) and the
// positional arguments; classification mirrors the exemplar syms of the
// triggering call.
func (c *Converter) functionGraph(ex *minipy.CallExpr, fn *minipy.FuncVal, self *sym, args []*sym) (*graph.Graph, error) {
	if fg, ok := c.funcGraphs[fn.Def]; ok {
		return fg, nil
	}
	fg := graph.New()
	c.funcGraphs[fn.Def] = fg // register before body conversion: recursion

	sub := &Converter{
		opts: c.opts, prof: c.prof, reg: c.reg, g: fg,
		varNames: c.varNames, shapes: make(map[graph.Port][]int),
		funcGraphs: c.funcGraphs, onStack: c.onStack, scratch: c.scratch,
	}
	frame := newEnv(nil)
	frame.conv = sub
	frame.closure = fn.Env

	params := fn.Params
	idx := 0
	bind := func(name string, exemplar *sym) {
		ph := fg.Placeholder(fmt.Sprintf("arg%d", idx))
		idx++
		s := &sym{kind: kDyn, port: ph.P()}
		if exemplar != nil {
			s.exemplar = exemplar.exemplar
			s.isRef = exemplar.isRef
			if exemplar.kind == kStatic {
				s.exemplar = exemplar.val
			}
			if exemplar.kind == kDyn && !exemplar.isRef {
				if sh, ok := c.shapes[exemplar.port]; ok {
					sub.shapes[ph.P()] = sh
				}
			}
		}
		frame.set(name, s)
	}
	if self != nil {
		bind(params[0], self)
		params = params[1:]
	}
	if len(args) != len(params) {
		return nil, notConvertible(ex, "recursive %s(): %d args for %d params", fn.Name, len(args), len(params))
	}
	for i, a := range args {
		bind(params[i], a)
	}

	var ret *sym
	var err error
	if fn.LambdaBody != nil {
		ret, err = sub.expr(fn.LambdaBody, frame)
	} else {
		ret, err = sub.block(fn.Body, frame)
	}
	if err != nil {
		return nil, err
	}
	if ret == nil {
		ret = &sym{kind: kStatic, val: minipy.None}
	}
	rp, err := sub.asAnyPort(ret, ex)
	if err != nil {
		return nil, err
	}
	fg.Outputs = []graph.Port{rp}
	// Asserts inside the function body validate per invocation; surface them
	// for control-dep wiring of updates.
	c.asserts = append(c.asserts, sub.asserts...)
	return fg, nil
}

// --- builtin mapping -----------------------------------------------------------

// builtinCall maps a whitelisted external function onto graph operations: a
// builtin with a signature through emitOp, the others through their own
// case in bespokeCall.
func (c *Converter) builtinCall(ex *minipy.CallExpr, name string, args []*sym, kwargs map[string]*sym) (*sym, error) {
	b := c.reg.Get(name)
	if b == nil {
		return nil, notConvertible(ex, "unknown builtin %q", name)
	}
	if b.Sig == nil {
		return c.bespokeCall(ex, name, args)
	}
	if name == "stack" && len(args) == 1 && args[0].isRuntimeList() {
		n := c.g.Add("StackList", nil, args[0].port)
		return &sym{kind: kDyn, port: n.P()}, nil
	}
	return c.emitOp(ex, name, b.Sig, args, kwargs)
}

// emitOp emits a signature builtin as its op. The call is parsed by the
// signature the interpreter runs (minipy.Signature.BuildAttrs), so the two
// agree on arity, keywords and attrs, and the output's shape comes from the
// op's OpDef.Shape.
func (c *Converter) emitOp(ex *minipy.CallExpr, name string, s *minipy.Signature, args []*sym, kwargs map[string]*sym) (*sym, error) {
	vals := make([]minipy.Value, len(args))
	for i, a := range args {
		if i < len(s.Args) && s.Args[i].Kind.BuildTime() {
			v, err := c.symToValue(a, ex)
			if err != nil {
				return nil, notConvertible(ex, "%s: %s must be known at build time", name, s.Args[i].Name)
			}
			vals[i] = v
		}
	}
	kw := make(map[string]minipy.Value, len(kwargs))
	for k, a := range kwargs {
		v, err := c.symToValue(a, ex)
		if err != nil {
			return nil, notConvertible(ex, "%s: keyword %s must be known at build time", name, k)
		}
		kw[k] = v
	}
	attrs, err := s.BuildAttrs(name, vals, kw)
	if err != nil {
		return nil, notConvertible(ex, "%v", err)
	}
	var ports []graph.Port
	var shapes [][]int
	for i, p := range s.Args {
		switch p.Kind {
		case minipy.ParamTensor:
			port, err := c.asTensorPort(args[i], ex)
			if err != nil {
				return nil, err
			}
			ports, shapes = append(ports, port), append(shapes, c.shapeOf(port))
		case minipy.ParamTensorList:
			if args[i].kind != kSeq || len(args[i].seq.elems) == 0 {
				return nil, notConvertible(ex, "%s wants a non-empty build-time list", name)
			}
			for _, el := range args[i].seq.elems {
				port, err := c.asTensorPort(el, ex)
				if err != nil {
					return nil, err
				}
				ports, shapes = append(ports, port), append(shapes, c.shapeOf(port))
			}
		case minipy.ParamIndices:
			port, sh, err := c.indexArg(args[i], ex)
			if err != nil {
				return nil, err
			}
			ports, shapes = append(ports, port), append(shapes, sh)
		}
	}
	n := c.g.Add(s.Op, attrs, ports...)
	if rule := graph.Lookup(s.Op).Shape; rule != nil {
		if sh, ok := rule(attrs, shapes); ok {
			c.shapes[n.P()] = sh
		}
	}
	return &sym{kind: kDyn, port: n.P()}, nil
}

// bespokeCall converts the builtins that are not one op each: it is their
// only converter definition, and a builtin without a case here or a
// signature has no graph representation.
func (c *Converter) bespokeCall(ex *minipy.CallExpr, name string, args []*sym) (*sym, error) {
	switch name {
	case "variable":
		vname, ok := args[0].staticStr()
		if !ok {
			return nil, notConvertible(ex, "variable name must be a build-time string")
		}
		sh, err := c.staticShape(args, 1, ex)
		if err != nil {
			return nil, err
		}
		n := c.g.Variable(vname)
		c.shapes[n.P()] = sh
		c.varNames[vname] = true
		return &sym{kind: kDyn, port: n.P()}, nil

	case "batch_norm":
		x, err := c.asTensorPort(args[0], ex)
		if err != nil {
			return nil, err
		}
		bnName, ok := args[1].staticStr()
		if !ok {
			return nil, notConvertible(ex, "batch_norm name must be a build-time string")
		}
		training, ok := args[2].staticBool()
		if !ok {
			return nil, notConvertible(ex, "batch_norm training flag must resolve at build time (speculate on the branch instead)")
		}
		n := c.g.Add("BatchNorm", map[string]graph.Val{"name": bnName, "training": training}, x)
		c.copyShape(n.P(), x)
		return &sym{kind: kDyn, port: n.P()}, nil

	case "zeros", "ones":
		sh, err := c.staticShape(args, 0, ex)
		if err != nil {
			return nil, err
		}
		var t *tensor.Tensor
		if name == "zeros" {
			t = tensor.Zeros(sh...)
		} else {
			t = tensor.Full(1, sh...)
		}
		n := c.g.Const(t)
		c.shapes[n.P()] = sh
		return &sym{kind: kDyn, port: n.P()}, nil

	case "constant":
		if args[0].kind == kStatic || args[0].kind == kSeq {
			v, err := c.symToValue(args[0], ex)
			if err != nil {
				return nil, err
			}
			t, err := minipy.ValueToTensor(v)
			if err != nil {
				return nil, notConvertible(ex, "constant: %v", err)
			}
			n := c.g.Const(t)
			c.shapes[n.P()] = t.Shape()
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		return args[0], nil // already a tensor port

	case "len":
		a := args[0]
		switch a.kind {
		case kSeq:
			return &sym{kind: kStatic, val: minipy.IntVal(len(a.seq.elems))}, nil
		case kDyn:
			if a.isRef && !a.isRuntimeList() {
				break // Len reads runtime lists and tensors, not the heap
			}
			if !a.isRef {
				if sh, ok := c.shapes[a.port]; ok && len(sh) > 0 && sh[0] >= 0 {
					return &sym{kind: kStatic, val: minipy.IntVal(sh[0])}, nil
				}
			}
			n := c.g.Add("Len", nil, a.port)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		if s, ok, err := c.fold(ex, name, args); ok {
			return s, err
		}
		return nil, notConvertible(ex, "len() of %s", a.describe())

	case "range":
		if s, ok, err := c.fold(ex, name, args); ok {
			return s, err
		}
		return nil, notConvertible(ex, "range() bounds must be build-time ints")

	case "print":
		ports := make([]graph.Port, len(args))
		for i, a := range args {
			p, err := c.asAnyPort(a, ex)
			if err != nil {
				return nil, err
			}
			ports[i] = p
		}
		n := c.g.Add("Print", nil, ports...)
		c.g.Updates = append(c.g.Updates, n)
		return &sym{kind: kStatic, val: minipy.None}, nil

	case "int", "float", "abs", "min", "max":
		// Build-time numbers fold to the interpreter's Python value.
		if s, ok, err := c.fold(ex, name, args); ok {
			return s, err
		}
		switch {
		case name == "abs" && len(args) == 1:
			x, err := c.asTensorPort(args[0], ex)
			if err != nil {
				return nil, err
			}
			n := c.g.Add("Abs", nil, x)
			c.copyShape(n.P(), x)
			return &sym{kind: kDyn, port: n.P()}, nil
		case (name == "min" || name == "max") && len(args) == 2:
			op := "Maximum"
			if name == "min" {
				op = "Minimum"
			}
			a, err := c.asTensorPort(args[0], ex)
			if err != nil {
				return nil, err
			}
			b, err := c.asTensorPort(args[1], ex)
			if err != nil {
				return nil, err
			}
			n := c.g.Add(op, nil, a, b)
			c.inferBroadcast(n, a, b)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		// int() and float() of a runtime value are Python numbers, which
		// a graph does not compute.
		return nil, notConvertible(ex, "%s() of a runtime value", name)
	}
	return nil, notConvertible(ex, "builtin %q has no graph representation (whitelist, §4.3.1)", name)
}

// fold runs a hand-written builtin at build time when every argument is a
// build-time value; ok is false when one is not.
func (c *Converter) fold(ex *minipy.CallExpr, name string, args []*sym) (s *sym, ok bool, err error) {
	vals := make([]minipy.Value, len(args))
	for i, a := range args {
		if a.kind != kStatic {
			return nil, false, nil
		}
		vals[i] = a.val
	}
	v, err := c.reg.Get(name).Fn(c.scratch, vals, nil)
	if err != nil {
		return nil, true, notConvertible(ex, "%s: %v", name, err)
	}
	return &sym{kind: kStatic, val: v}, true, nil
}

// indexArg lowers an index-list argument (a build-time int or int list, a
// list with runtime elements, or an int tensor) to a port, with its shape
// for OpDef.Shape: the list's length when known.
func (c *Converter) indexArg(a *sym, at minipy.Node) (graph.Port, []int, error) {
	switch a.kind {
	case kSeq:
		ints := make([]int, len(a.seq.elems))
		allStatic := true
		for j, el := range a.seq.elems {
			n, ok := el.staticInt()
			if !ok {
				allStatic = false
				break
			}
			ints[j] = n
		}
		if allStatic {
			return c.g.ConstVal(ints).P(), []int{len(ints)}, nil
		}
		// Dynamic elements: pack into a runtime []Val.
		ports := make([]graph.Port, len(a.seq.elems))
		for j, el := range a.seq.elems {
			p, err := c.asAnyPort(el, at)
			if err != nil {
				return graph.Port{}, nil, err
			}
			ports[j] = p
		}
		return c.g.Add("Pack", nil, ports...).P(), []int{len(ports)}, nil
	case kDyn:
		// A tensor of ids with a known rank-1 shape has a known count, so
		// downstream shapes stay static (specialization).
		return a.port, c.shapeOf(a.port), nil
	case kStatic:
		if n, ok := a.staticInt(); ok {
			return c.g.ConstVal([]int{n}).P(), []int{1}, nil
		}
	}
	return graph.Port{}, nil, notConvertible(at, "cannot use %s as indices", a.describe())
}

func (c *Converter) staticShape(args []*sym, i int, at minipy.Node) ([]int, error) {
	if i >= len(args) {
		return nil, notConvertible(at, "missing shape argument %d", i)
	}
	a := args[i]
	if a.kind != kSeq {
		return nil, notConvertible(at, "shape must be a build-time list")
	}
	out := make([]int, len(a.seq.elems))
	for j, el := range a.seq.elems {
		n, ok := el.staticInt()
		if !ok {
			return nil, notConvertible(at, "shape element %d must be a build-time int", j)
		}
		out[j] = n
	}
	return out, nil
}

// symToValue reconstructs a minipy value from a fully static sym tree.
func (c *Converter) symToValue(s *sym, at minipy.Node) (minipy.Value, error) {
	switch s.kind {
	case kStatic:
		return s.val, nil
	case kSeq:
		items := make([]minipy.Value, len(s.seq.elems))
		for i, el := range s.seq.elems {
			v, err := c.symToValue(el, at)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		if s.seq.isTuple {
			return &minipy.TupleVal{Items: items}, nil
		}
		return &minipy.ListVal{Items: items}, nil
	}
	return nil, notConvertible(at, "value is not build-time constant")
}
