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

// builtinCall maps a whitelisted external function onto graph operations.
func (c *Converter) builtinCall(ex *minipy.CallExpr, name string, args []*sym, kwargs map[string]*sym) (*sym, error) {
	b := c.reg.Get(name)
	if b == nil {
		return nil, notConvertible(ex, "unknown builtin %q", name)
	}
	if b.GraphOp == "" {
		return nil, notConvertible(ex, "builtin %q has no graph representation (whitelist, §4.3.1)", name)
	}

	tensorIn := func(i int) (graph.Port, error) {
		if i >= len(args) {
			return graph.Port{}, notConvertible(ex, "%s: missing argument %d", name, i)
		}
		return c.asTensorPort(args[i], ex)
	}
	staticInt := func(i int) (int, error) {
		if i >= len(args) {
			return 0, notConvertible(ex, "%s: missing argument %d", name, i)
		}
		n, ok := args[i].staticInt()
		if !ok {
			return 0, notConvertible(ex, "%s: argument %d must be build-time int", name, i)
		}
		return n, nil
	}
	kwStatic := func(key string, def int) (int, error) {
		v, ok := kwargs[key]
		if !ok {
			return def, nil
		}
		n, ok := v.staticInt()
		if !ok {
			return 0, notConvertible(ex, "%s: keyword %s must be build-time int", name, key)
		}
		return n, nil
	}

	switch name {
	case "matmul":
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		bp, err := tensorIn(1)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("MatMul", nil, a, bp)
		if sa, ok := c.shapes[a]; ok {
			if sb, ok2 := c.shapes[bp]; ok2 && len(sa) == 2 && len(sb) == 2 {
				c.shapes[n.P()] = []int{sa[0], sb[1]}
			}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "relu", "sigmoid", "tanh", "exp", "log", "softmax":
		op := map[string]string{"relu": "ReLU", "sigmoid": "Sigmoid", "tanh": "Tanh",
			"exp": "Exp", "log": "Log", "softmax": "Softmax"}[name]
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		n := c.g.Add(op, nil, a)
		c.copyShape(n.P(), a)
		return &sym{kind: kDyn, port: n.P()}, nil

	case "reduce_sum", "reduce_mean":
		op := "Sum"
		if name == "reduce_mean" {
			op = "Mean"
		}
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		n := c.g.Add(op, nil, a)
		c.shapes[n.P()] = []int{}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "reshape":
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		sh, err := c.staticShape(args, 1, ex)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Reshape", map[string]graph.Val{"shape": sh}, a)
		if in, ok := c.shapes[a]; ok {
			c.shapes[n.P()] = resolveReshape(in, sh)
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "transpose":
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Transpose", nil, a)
		if in, ok := c.shapes[a]; ok && len(in) == 2 {
			c.shapes[n.P()] = []int{in[1], in[0]}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "concat", "stack":
		if len(args) < 1 {
			return nil, notConvertible(ex, "%s wants a list argument", name)
		}
		if args[0].kind == kDyn && args[0].isRef {
			// Runtime list from a Loop accumulator: StackList.
			if name != "stack" {
				return nil, notConvertible(ex, "concat of runtime lists is not supported; use stack")
			}
			n := c.g.Add("StackList", nil, args[0].port)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		if args[0].kind != kSeq {
			return nil, notConvertible(ex, "%s wants a build-time list", name)
		}
		axis := 0
		if name == "concat" {
			var err error
			axis, err = staticInt(1)
			if err != nil {
				return nil, err
			}
		}
		ports := make([]graph.Port, len(args[0].seq.elems))
		widths := make([]int, len(ports))
		widthsKnown := true
		for i, el := range args[0].seq.elems {
			p, err := c.asTensorPort(el, ex)
			if err != nil {
				return nil, err
			}
			ports[i] = p
			if sh, ok := c.shapes[p]; ok {
				ax := axis
				if name == "stack" {
					widthsKnown = true
				} else {
					if ax < 0 {
						ax += len(sh)
					}
					if ax >= 0 && ax < len(sh) && sh[ax] >= 0 {
						widths[i] = sh[ax]
					} else {
						widthsKnown = false
					}
				}
			} else {
				widthsKnown = false
			}
		}
		if name == "stack" {
			n := c.g.Add("Stack", nil, ports...)
			if sh, ok := c.shapes[ports[0]]; ok {
				c.shapes[n.P()] = append([]int{len(ports)}, sh...)
			}
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		n := c.g.Add("Concat", map[string]graph.Val{"axis": axis}, ports...)
		if sh, ok := c.shapes[ports[0]]; ok && widthsKnown {
			out := append([]int(nil), sh...)
			ax := axis
			if ax < 0 {
				ax += len(sh)
			}
			total := 0
			for _, w := range widths {
				total += w
			}
			out[ax] = total
			c.shapes[n.P()] = out
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "conv2d":
		x, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		w, err := tensorIn(1)
		if err != nil {
			return nil, err
		}
		stride, err := kwStatic("stride", 1)
		if err != nil {
			return nil, err
		}
		pad, err := kwStatic("pad", 0)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Conv2D", map[string]graph.Val{"stride": stride, "pad": pad}, x, w)
		if sx, ok := c.shapes[x]; ok {
			if sw, ok2 := c.shapes[w]; ok2 && len(sx) == 4 && len(sw) == 4 {
				oh := (sx[2]+2*pad-sw[2])/stride + 1
				ow := (sx[3]+2*pad-sw[3])/stride + 1
				c.shapes[n.P()] = []int{sx[0], sw[0], oh, ow}
			}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "max_pool", "avg_pool":
		op := "MaxPool"
		if name == "avg_pool" {
			op = "AvgPool"
		}
		x, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		k, err := staticInt(1)
		if err != nil {
			return nil, err
		}
		stride, err := staticInt(2)
		if err != nil {
			return nil, err
		}
		n := c.g.Add(op, map[string]graph.Val{"k": k, "stride": stride}, x)
		if sx, ok := c.shapes[x]; ok && len(sx) == 4 {
			c.shapes[n.P()] = []int{sx[0], sx[1], (sx[2]-k)/stride + 1, (sx[3]-k)/stride + 1}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "embedding":
		table, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		ids, err := c.indexArg(args, 1, ex)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Gather", nil, table, ids.port)
		if st, ok := c.shapes[table]; ok && len(st) == 2 {
			if cnt, ok2 := ids.count(); ok2 {
				c.shapes[n.P()] = []int{cnt, st[1]}
			}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "one_hot":
		ids, err := c.indexArg(args, 0, ex)
		if err != nil {
			return nil, err
		}
		depth, err := staticInt(1)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("OneHot", map[string]graph.Val{"depth": depth}, ids.port)
		if cnt, ok := ids.count(); ok {
			c.shapes[n.P()] = []int{cnt, depth}
		}
		return &sym{kind: kDyn, port: n.P()}, nil

	case "cross_entropy", "mse":
		op := "CrossEntropy"
		if name == "mse" {
			op = "MSE"
		}
		a, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		bp, err := tensorIn(1)
		if err != nil {
			return nil, err
		}
		n := c.g.Add(op, nil, a, bp)
		c.shapes[n.P()] = []int{}
		return &sym{kind: kDyn, port: n.P()}, nil

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
		x, err := tensorIn(0)
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
		case kStatic:
			if r, ok := a.val.(minipy.RangeVal); ok {
				return &sym{kind: kStatic, val: minipy.IntVal(r.Len())}, nil
			}
			if s, ok := a.val.(minipy.StrVal); ok {
				return &sym{kind: kStatic, val: minipy.IntVal(len(s))}, nil
			}
		case kDyn:
			if !a.isRef {
				if sh, ok := c.shapes[a.port]; ok && len(sh) > 0 && sh[0] >= 0 {
					return &sym{kind: kStatic, val: minipy.IntVal(sh[0])}, nil
				}
			}
			n := c.g.Add("Len", nil, a.port)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		return nil, notConvertible(ex, "len() of %s", a.describe())

	case "range":
		ints := make([]int64, len(args))
		for i := range args {
			n, ok := args[i].staticInt()
			if !ok {
				return nil, notConvertible(ex, "range() bounds must be build-time ints")
			}
			ints[i] = int64(n)
		}
		switch len(ints) {
		case 1:
			return &sym{kind: kStatic, val: minipy.RangeVal{Stop: ints[0], Step: 1}}, nil
		case 2:
			return &sym{kind: kStatic, val: minipy.RangeVal{Start: ints[0], Stop: ints[1], Step: 1}}, nil
		case 3:
			return &sym{kind: kStatic, val: minipy.RangeVal{Start: ints[0], Stop: ints[1], Step: ints[2]}}, nil
		}
		return nil, notConvertible(ex, "range() wants 1-3 arguments")

	case "slice_rows", "slice_cols":
		axis := 0
		if name == "slice_cols" {
			axis = 1
		}
		x, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		lo, err := staticInt(1)
		if err != nil {
			return nil, err
		}
		hi, err := staticInt(2)
		if err != nil {
			return nil, err
		}
		nn := c.g.Add("Slice", map[string]graph.Val{"axis": axis, "lo": lo, "hi": hi}, x)
		if sh, ok := c.shapes[x]; ok && axis < len(sh) {
			out := append([]int(nil), sh...)
			out[axis] = hi - lo
			c.shapes[nn.P()] = out
		}
		return &sym{kind: kDyn, port: nn.P()}, nil

	case "argmax":
		x, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		axis, err := staticInt(1)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Argmax", map[string]graph.Val{"axis": axis}, x)
		return &sym{kind: kDyn, port: n.P()}, nil

	case "abs":
		x, err := tensorIn(0)
		if err != nil {
			return nil, err
		}
		n := c.g.Add("Abs", nil, x)
		c.copyShape(n.P(), x)
		return &sym{kind: kDyn, port: n.P()}, nil

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

	case "int", "float":
		if args[0].kind == kStatic {
			v, err := c.reg.Get(name).Fn(c.scratch, []minipy.Value{args[0].val}, nil)
			if err != nil {
				return nil, notConvertible(ex, "%s: %v", name, err)
			}
			return &sym{kind: kStatic, val: v}, nil
		}
		return args[0], nil // graph values are float tensors already

	case "min", "max":
		allStatic := true
		vals := make([]minipy.Value, len(args))
		for i, a := range args {
			if a.kind != kStatic {
				allStatic = false
				break
			}
			vals[i] = a.val
		}
		if allStatic {
			v, err := c.reg.Get(name).Fn(c.scratch, vals, nil)
			if err != nil {
				return nil, notConvertible(ex, "%s: %v", name, err)
			}
			return &sym{kind: kStatic, val: v}, nil
		}
		if len(args) == 2 {
			op := "Maximum"
			if name == "min" {
				op = "Minimum"
			}
			a, err := tensorIn(0)
			if err != nil {
				return nil, err
			}
			bp, err := tensorIn(1)
			if err != nil {
				return nil, err
			}
			n := c.g.Add(op, nil, a, bp)
			c.inferBroadcast(n, a, bp)
			return &sym{kind: kDyn, port: n.P()}, nil
		}
		return nil, notConvertible(ex, "dynamic %s over sequences", name)
	}
	return nil, notConvertible(ex, "builtin %q mapping is not implemented", name)
}

// indexArg lowers an index-list argument (static int list, int tensor, or
// dynamic value) to a port.
type idxArg struct {
	port graph.Port
	n    int
	ok   bool
}

func (i idxArg) count() (int, bool) { return i.n, i.ok }

func (c *Converter) indexArg(args []*sym, i int, at minipy.Node) (idxArg, error) {
	if i >= len(args) {
		return idxArg{}, notConvertible(at, "missing index argument %d", i)
	}
	a := args[i]
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
			return idxArg{port: c.g.ConstVal(ints).P(), n: len(ints), ok: true}, nil
		}
		// Dynamic elements: pack into a runtime []Val.
		ports := make([]graph.Port, len(a.seq.elems))
		for j, el := range a.seq.elems {
			p, err := c.asAnyPort(el, at)
			if err != nil {
				return idxArg{}, err
			}
			ports[j] = p
		}
		pack := c.g.Add("Pack", nil, ports...)
		return idxArg{port: pack.P(), n: len(ports), ok: true}, nil
	case kDyn:
		// A tensor of ids with a known rank-1 shape has a known count, so
		// downstream shapes stay static (specialization).
		if sh, ok := c.shapes[a.port]; ok && len(sh) == 1 && sh[0] >= 0 {
			return idxArg{port: a.port, n: sh[0], ok: true}, nil
		}
		return idxArg{port: a.port}, nil
	case kStatic:
		if n, ok := a.staticInt(); ok {
			return idxArg{port: c.g.ConstVal([]int{n}).P(), n: 1, ok: true}, nil
		}
	}
	return idxArg{}, notConvertible(at, "cannot use %s as indices", a.describe())
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

// resolveReshape resolves -1 dims of a reshape target given the input shape.
func resolveReshape(in, target []int) []int {
	n := 1
	for _, d := range in {
		if d < 0 {
			return target
		}
		n *= d
	}
	out := append([]int(nil), target...)
	known := 1
	infer := -1
	for i, d := range out {
		if d == -1 {
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 && known > 0 && n%known == 0 {
		out[infer] = n / known
	}
	return out
}
