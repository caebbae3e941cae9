package graph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// opLiteral matches the shape of an op name; it keeps Python-side names
// ("relu", "+") out of the positions below that mix both.
var opLiteral = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)

// namesOp reports whether an identifier, field or parameter holds an op name:
// op, n.Op, gradOp, ...
func namesOp(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return strings.HasSuffix(strings.ToLower(x.Name), "op")
	case *ast.SelectorExpr:
		return x.Sel.Name == "Op"
	}
	return false
}

// opNameLiterals returns the string literals of f that sit where an op is
// named: an argument bound to an op parameter (g.Add("X", ...)), a value
// assigned to, compared with or switched against an op (n.Op == "X", case
// "X"), an OpDef's Name, and the values of a string table
// (the converter's builtin-to-op maps). opParams maps a function name to the
// index of its op parameter.
func opNameLiterals(f *ast.File, opParams map[string]int) []*ast.BasicLit {
	var lits []*ast.BasicLit
	add := func(e ast.Expr) {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			lits = append(lits, lit)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			name := ""
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if i, ok := opParams[name]; ok && i < len(x.Args) {
				add(x.Args[i])
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if namesOp(lhs) && i < len(x.Rhs) {
					add(x.Rhs[i])
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if namesOp(x.X) {
					add(x.Y)
				}
				if namesOp(x.Y) {
					add(x.X)
				}
			}
		case *ast.SwitchStmt:
			if x.Tag != nil && namesOp(x.Tag) {
				for _, cc := range x.Body.List {
					for _, e := range cc.(*ast.CaseClause).List {
						add(e)
					}
				}
			}
		case *ast.CompositeLit:
			mt, isMap := x.Type.(*ast.MapType)
			id, _ := x.Type.(*ast.Ident)
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if isMap {
					if vt, ok := mt.Value.(*ast.Ident); ok && vt.Name == "string" {
						add(kv.Value)
					}
				} else if key, ok := kv.Key.(*ast.Ident); ok && id != nil && id.Name == "OpDef" && key.Name == "Name" {
					add(kv.Value)
				}
			}
		}
		return true
	})
	return lits
}

// TestEveryNamedOpIsRegistered scans the sources of the converter, the
// gradient builders, the passes and the executor for the op names they can
// emit or key on and requires each to resolve to an OpDef, so a list that
// names an op existing nowhere else cannot come back.
func TestEveryNamedOpIsRegistered(t *testing.T) {
	var paths []string
	for _, pat := range []string{
		"../convert/*.go", "passes/*.go", "graph.go", "grad.go", "memplan.go", "ops_*.go",
		"../exec/exec.go", "../exec/nodes.go",
	} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("glob %s: %v (%d files)", pat, err, len(m))
		}
		paths = append(paths, m...)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	opParams := map[string]int{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			i := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if namesOp(name) {
						opParams[fd.Name.Name] = i
					}
					i++
				}
			}
		}
	}
	if _, ok := opParams["Add"]; !ok {
		t.Fatal("the scan did not find (*Graph).Add's op parameter")
	}
	seen := map[string]bool{}
	for _, f := range files {
		for _, lit := range opNameLiterals(f, opParams) {
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !opLiteral.MatchString(s) {
				continue
			}
			seen[s] = true
			if Lookup(s) == nil {
				t.Errorf("%s: op %q has no OpDef", fset.Position(lit.Pos()), s)
			}
		}
	}
	// The scan must actually see the table: every registered op is named by
	// its own registration at least.
	for name := range ops {
		if !seen[name] {
			t.Errorf("registered op %q was not seen by the source scan", name)
		}
	}
}

func TestOpDefFlagsAreConsistent(t *testing.T) {
	for name, d := range ops {
		if d.Name != name {
			t.Errorf("op %q registered under %q", d.Name, name)
		}
		if d.InPlace && d.Into == nil {
			t.Errorf("%s: in-place-safe without an Into kernel", name)
		}
		if d.InPlace && !d.ReadsOnly {
			t.Errorf("%s: in-place-safe but not ReadsOnly", name)
		}
		if d.Into != nil && d.Kernel != nil {
			t.Errorf("%s: both an Into and an allocating kernel", name)
		}
		if d.Fresh && d.Into != nil {
			t.Errorf("%s: Fresh is implied by the Into kernel", name)
		}
		if d.SideEffect && d.Into != nil {
			t.Errorf("%s: side-effecting op with a pure Into kernel", name)
		}
		if d.Fuse != nil && !d.InPlace {
			t.Errorf("%s: fusable, so same-shape pointwise, but not in-place-safe", name)
		}
	}
}

// TestFuseCodesMatchKernels: every OpDef.Fuse entry names the fused step that
// computes, bit for bit, what the op's own kernel computes with the chain
// value at that input — so the fusable set and its orientations are checked
// against the kernels they replace, not against a second list of names.
func TestFuseCodesMatchKernels(t *testing.T) {
	rng := tensor.NewRNG(5)
	fusable := 0
	for name, d := range ops {
		for pos := range d.Fuse {
			code, ok := d.FusedCode(len(d.Fuse), pos)
			if !ok {
				continue
			}
			fusable++
			v, e := rng.Randn(3, 4), rng.Randn(3, 4)
			if name == "ScaleByScalar" {
				e = tensor.Scalar(0.7)
			}
			in, extras := []Val{v}, []*tensor.Tensor(nil)
			if len(d.Fuse) == 2 {
				in, extras = []Val{v, e}, []*tensor.Tensor{e}
				in[0], in[pos] = in[pos], in[0]
			}
			want, err := d.Eval(&Node{Op: name}, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := tensor.FusedElementwiseInto(tensor.Zeros(3, 4), v, extras, []tensor.FusedStep{{Code: code}}, nil)
			// Tolerance 0 and not Equal: Log of a negative is NaN on both sides.
			if !tensor.AllClose(got, want.(*tensor.Tensor), 0) {
				t.Errorf("%s with the chain at input %d: step code %d gives %v, the kernel %v", name, pos, code, got, want)
			}
		}
	}
	if fusable != 24 {
		t.Errorf("%d fusable (op, input) pairs, want 24: the fusable set decides the graphs the pass pipeline produces", fusable)
	}
}

// TestEveryOpHasAGradientVerdict: an op is differentiable, a gradient stop,
// or makes Gradients fail with the "no gradient registered" error the engine
// keys its trace-tape fallback on.
func TestEveryOpHasAGradientVerdict(t *testing.T) {
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := ops[name]
		if d.Grad != nil {
			if d.StopGrad {
				t.Errorf("%s: both differentiable and a gradient stop", name)
			}
			continue
		}
		g := New()
		v := g.Variable("v")
		n := g.Add(name, nil, v.P(), v.P(), v.P())
		grads, err := Gradients(g, n.P(), []string{"v"})
		switch {
		case d.StopGrad:
			if err != nil {
				t.Errorf("%s: gradient stop returned %v", name, err)
			} else if grads["v"].Node.Op != "FillLike" {
				t.Errorf("%s: gradient stop let a gradient through to v (%s)", name, grads["v"].Node.Op)
			}
		case err == nil || !strings.Contains(err.Error(), "no gradient registered for op "+name):
			t.Errorf("%s: want the no-gradient-registered error, got %v", name, err)
		}
	}
}

// TestOpsWithoutAGradientDecision pins the ops that have neither Grad nor
// StopGrad, so an op that silently drops its gradient (the tape skips it,
// Gradients fails over to the tape) cannot be registered unnoticed. They are
// the ops the executor implements and the ops passes add after Gradients has
// run.
func TestOpsWithoutAGradientDecision(t *testing.T) {
	want := []string{
		"AssignSub", "NoOp", "Switch", "Merge", "Invoke", "Loop", "While", "PySetAttr", "PySetSubscr", "Pack", "IndexList",
		"Im2Col", "Conv2DFromCol", "Conv2DGradFilterFromCol", "Fused",
	}
	var got []string
	for name, d := range ops {
		if d.Grad == nil && !d.StopGrad {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("ops with neither Grad nor StopGrad:\n got %v\nwant %v", got, want)
	}
}

// TestShapeMismatchIsAnErrorNamingTheOp feeds the Into kernels the inputs
// neither they nor the imperative tensor ops cover. Each must return an error
// naming the op — from the kernel itself (nothing here recovers a panic) —
// with a pool allocator (the planned executor path) and on the heap (Eval:
// the generic executor path and the constant folder).
func TestShapeMismatchIsAnErrorNamingTheOp(t *testing.T) {
	z := func(shape ...int) Val { return tensor.Zeros(shape...) }
	cases := []struct {
		op string
		in []Val
	}{
		{"MatMul", []Val{z(3), z(3, 2)}},       // rank
		{"MatMul", []Val{z(2, 3), z(4, 2)}},    // inner dims
		{"Transpose", []Val{z(2, 3, 4)}},       // rank
		{"ReshapeLike", []Val{z(2, 3), z(4)}},  // element count
		{"CrossEntropy", []Val{z(2, 3), z(2)}}, // labels do not broadcast
		{"CrossEntropyGrad", []Val{z(2, 3), z(2)}},
		{"CrossEntropy", []Val{z(), z(3)}}, // no batch axis
		{"CrossEntropyGrad", []Val{z(), z(3)}},
		{"MSE", []Val{z(4, 3), z(4)}}, // target does not broadcast
		{"MSEGrad", []Val{z(4, 3), z(4), z()}},
		{"Conv2D", []Val{z(1, 4, 4), z(2, 1, 3, 3)}}, // rank
	}
	for _, c := range cases {
		d := Lookup(c.op)
		n := &Node{Op: c.op, Attrs: map[string]Val{}}
		_, poolErr := d.Into(n, c.in, tensor.NewPool())
		_, heapErr := d.Eval(n, c.in)
		for path, err := range map[string]error{"pooled": poolErr, "heap": heapErr} {
			if err == nil || !strings.Contains(err.Error(), c.op) {
				t.Errorf("%s (%s path): want an error naming the op, got %v", c.op, path, err)
			}
		}
	}
}

// TestGradOpsTakeAScalarSeed: Gradients seeds a non-scalar loss with a
// scalar 1, so the gradient ops that may sit at the loss take an upstream
// gradient that broadcasts to the output, giving what its expansion gives.
func TestGradOpsTakeAScalarSeed(t *testing.T) {
	rng := tensor.NewRNG(7)
	x, p := rng.Uniform(0.5, 1.5, 2, 3), rng.Randn(3)
	y := tensor.PowInto(tensor.Zeros(2, 3), x, p)
	cases := []struct {
		op    string
		attrs map[string]Val
		in    []Val
	}{
		{"SoftmaxGrad", nil, []Val{tensor.Softmax(x)}},
		{"PowGrad", nil, []Val{x, p}},
		{"PowExpGrad", nil, []Val{x, y}},
		{"ExtremumGrad", map[string]Val{"max": true, "side": 1}, []Val{x, p}},
	}
	for _, c := range cases {
		n := &Node{Op: c.op, Attrs: c.attrs}
		got, err := Lookup(c.op).Into(n, append(c.in, tensor.Scalar(0.5)), tensor.NewPool())
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		want, err := Lookup(c.op).Eval(n, append(c.in, tensor.Full(0.5, 2, 3)))
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if !tensor.Equal(got.(*tensor.Tensor), want.(*tensor.Tensor)) {
			t.Errorf("%s: scalar seed gives %v, its expansion %v", c.op, got, want)
		}
	}
}

// TestLossKernelsBroadcast: the loss ops broadcast their second operand and
// agree with the composition of primitive ops that defines them (up to a
// fused multiply-add's rounding) — pooled and on the heap.
func TestLossKernelsBroadcast(t *testing.T) {
	eval := func(op string, in ...Val) *tensor.Tensor {
		out, err := Lookup(op).Eval(&Node{Op: op}, in)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return out.(*tensor.Tensor)
	}
	rng := tensor.NewRNG(3)
	gout := tensor.Scalar(0.5)
	pred, logits := rng.Randn(4, 1), rng.Randn(4, 3)
	type lossCase struct {
		op   string
		in   []Val
		want *tensor.Tensor
	}
	var cases []lossCase
	for _, shape := range [][]int{{1}, {4, 1}, {4, 5}, {}} {
		target := rng.Randn(shape...)
		d := eval("Sub", pred, target)
		cases = append(cases,
			lossCase{"MSE", []Val{pred, target}, eval("Mean", eval("Mul", d, d))},
			lossCase{"MSEGrad", []Val{pred, target, gout}, tensor.MulScalar(d, 2/float64(d.Size())*gout.Item())})
	}
	for _, shape := range [][]int{{3}, {4, 3}, {1, 3}, {2, 4, 3}} {
		labels := rng.Randn(shape...)
		nll := eval("Sum", eval("Mul", labels, tensor.LogSoftmaxInto(tensor.Zeros(4, 3), logits))).Item()
		cases = append(cases,
			lossCase{"CrossEntropy", []Val{logits, labels}, tensor.Scalar(-nll / 4)},
			lossCase{"CrossEntropyGrad", []Val{logits, labels},
				tensor.MulScalar(eval("Sub", eval("Softmax", logits), labels), 1.0/4)})
	}
	for _, c := range cases {
		d := Lookup(c.op)
		n := &Node{Op: c.op, Attrs: map[string]Val{}}
		shape := c.in[1].(*tensor.Tensor).Shape()
		pooled, err := d.Into(n, c.in, tensor.NewPool())
		if err != nil {
			t.Fatalf("%s %v (pooled): %v", c.op, shape, err)
		}
		heap, err := d.Eval(n, c.in)
		if err != nil {
			t.Fatalf("%s %v (heap): %v", c.op, shape, err)
		}
		for path, got := range map[string]Val{"pooled": pooled, "heap": heap} {
			if !tensor.AllClose(got.(*tensor.Tensor), c.want, 1e-12) {
				t.Errorf("%s %v (%s path): got %v, want %v", c.op, shape, path, got, c.want)
			}
		}
	}
}
