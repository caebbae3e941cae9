package graph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// opLiteral matches the string literals that name ops: in the files that
// emit or key on op names, every capitalised identifier-like literal is one.
var opLiteral = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)

// TestEveryNamedOpIsRegistered scans the sources of the converter, the
// gradient builders, the passes and the executor for op-name literals — the
// ops they can emit (g.Add("X", ...)) or key on (n.Op == "X", case "X",
// tapeKernels["X"]) — and requires each to resolve to an OpDef, so a list
// that names an op existing nowhere else cannot come back.
func TestEveryNamedOpIsRegistered(t *testing.T) {
	var files []string
	for _, pat := range []string{
		"../convert/*.go", "passes/*.go", "grad.go", "memplan.go", "ops_*.go",
		"../exec/exec.go", "../exec/nodes.go", "../exec/tapekernels.go",
	} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("glob %s: %v (%d files)", pat, err, len(m))
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !opLiteral.MatchString(s) {
				return true
			}
			seen[s] = true
			if Lookup(s) == nil {
				t.Errorf("%s: %q looks like an op name but has no OpDef", fset.Position(lit.Pos()), s)
			}
			return true
		})
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

// TestShapeMismatchIsAnErrorNamingTheOp feeds the Into kernels the inputs
// their destination-passing form does not cover. Each must return an error
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
		{"CrossEntropy", []Val{z(2, 3), z(2)}}, // logits vs labels
		{"CrossEntropyGrad", []Val{z(2, 3), z(2)}},
		{"MSE", []Val{z(4, 1), z(4)}}, // broadcastable, still rejected
		{"MSEGrad", []Val{z(4, 1), z(4), z()}},
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
