package convert

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/profile"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// setup parses src, runs it imperatively (with a profiler) for iters
// iterations of `optimize`-style calls to fnName, and returns the function
// value plus the gathered profile. This mirrors what internal/core does
// before invoking ConvertCall.
func setup(t *testing.T, src, fnName string, args [][]minipy.Value) (*minipy.FuncVal, *profile.Profile, *minipy.Interp, *vars.Store) {
	t.Helper()
	prog, err := minipy.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	it := minipy.NewInterp(nil)
	store := vars.NewStore()
	it.SetStore(store)
	if err := it.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	fv, ok := it.Globals.Lookup(fnName)
	if !ok {
		t.Fatalf("no function %q", fnName)
	}
	fn := fv.(*minipy.FuncVal)
	prof := profile.New()
	it.Prof = prof
	for _, a := range args {
		if _, err := it.CallFunction(fn, a); err != nil {
			t.Fatalf("profiled call: %v", err)
		}
		prof.EndIteration()
	}
	it.Prof = nil
	return fn, prof, it, store
}

func defaultOpts() Options { return Options{Unroll: true, Specialize: true} }

func TestConvertLinearFunctionMatchesInterpreter(t *testing.T) {
	// The paper's Figure 3 program.
	src := `
def loss_fn(x, y):
    y_ = 0.5 * x + 1.5
    return (y_ - y) ** 2.0
`
	args := []minipy.Value{
		minipy.NewTensor(tensor.Scalar(4)),
		minipy.NewTensor(tensor.Scalar(2)),
	}
	fn, prof, it, store := setup(t, src, "loss_fn", [][]minipy.Value{args, args, args})
	res, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	_, leaves := Flatten(fn, args)
	feeds := map[string]graph.Val{}
	for i, v := range leaves {
		feeds["f"+itoa(i)] = v.(*minipy.TensorVal).T()
	}
	out, err := exec.Run(res.Graph, feeds, exec.Options{Store: store})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	got, _ := graph.AsTensor(out.Outputs[0])
	if got.Item() != 2.25 {
		t.Fatalf("graph computed %v, want 2.25", got.Item())
	}
	// A static program gets static gradients.
	if err := FinalizeTraining(res, 0.1); err != nil {
		t.Fatalf("FinalizeTraining: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestConvertUnrollsStaticLoop(t *testing.T) {
	src := `
def f(x):
    total = x
    for i in range(4):
        total = total + x
    return total
`
	args := []minipy.Value{minipy.NewTensor(tensor.Scalar(3))}
	fn, prof, it, store := setup(t, src, "f", [][]minipy.Value{args, args, args})
	res, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Graph.CountOps()
	if counts["Add"] != 4 {
		t.Fatalf("loop not unrolled: %v", counts)
	}
	if counts["Loop"] != 0 || counts["Switch"] != 0 {
		t.Fatalf("unexpected control ops: %v", counts)
	}
	out, err := exec.Run(res.Graph, map[string]graph.Val{"f0": tensor.Scalar(3)}, exec.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := graph.AsTensor(out.Outputs[0])
	if got.Item() != 15 {
		t.Fatalf("got %v want 15", got.Item())
	}
}

func TestConvertBaseModeEmitsLoopOp(t *testing.T) {
	src := `
def f(xs):
    total = zeros([1])
    for x in xs:
        total = total + x
    return reduce_sum(total)
`
	args := []minipy.Value{&minipy.ListVal{Items: []minipy.Value{
		minipy.NewTensor(tensor.FromSlice([]float64{1})),
		minipy.NewTensor(tensor.FromSlice([]float64{2})),
		minipy.NewTensor(tensor.FromSlice([]float64{3})),
	}}}
	fn, prof, it, store := setup(t, src, "f", [][]minipy.Value{args, args, args})
	res, err := ConvertCall(fn, args, prof, it.Builtins, Options{Unroll: false, Specialize: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.CountOps()["Loop"] != 1 {
		t.Fatalf("BASE mode did not emit Loop: %v", res.Graph.CountOps())
	}
	assertGradientsFail(t, res, "Loop")
	_, leaves := Flatten(fn, args)
	feeds := map[string]graph.Val{}
	for i, v := range leaves {
		feeds["f"+itoa(i)] = v.(*minipy.TensorVal).T()
	}
	out, err := exec.Run(res.Graph, feeds, exec.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := graph.AsTensor(exec.Unwrap(out.Outputs[0]))
	if got.Item() != 6 {
		t.Fatalf("got %v want 6", got.Item())
	}
}

func TestConvertStableBranchPrunedWithAssert(t *testing.T) {
	src := `
class M:
    def __init__(self):
        self.flag = True
    def f(self, x):
        if self.flag:
            return x * 2.0
        return x * 3.0

m = M()
`
	prog := minipy.MustParse(`g = lambda: 0`)
	_ = prog
	fnSrc := src
	it := minipy.NewInterp(nil)
	store := vars.NewStore()
	it.SetStore(store)
	if err := it.Run(minipy.MustParse(fnSrc)); err != nil {
		t.Fatal(err)
	}
	mv, _ := it.Globals.Lookup("m")
	m := mv.(*minipy.ObjectVal)
	method := m.Class.Methods["f"].Bind(m)
	args := []minipy.Value{minipy.NewTensor(tensor.Scalar(5))}
	prof := profile.New()
	it.Prof = prof
	for i := 0; i < 3; i++ {
		if _, err := it.CallFunction(method, args); err != nil {
			t.Fatal(err)
		}
		prof.EndIteration()
	}
	it.Prof = nil
	res, err := ConvertCall(method, args, prof, it.Builtins, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Graph.CountOps()
	if counts["Switch"] != 0 {
		t.Fatalf("stable branch should be pruned, got %v", counts)
	}
	if len(res.Asserts) == 0 {
		t.Fatal("pruned branch needs a guarding assert")
	}
	// Execute: the assert passes while flag is true, fails after the flip.
	_, leaves := Flatten(method, args)
	feeds := map[string]graph.Val{}
	for i, v := range leaves {
		switch x := v.(type) {
		case *minipy.TensorVal:
			feeds["f"+itoa(i)] = x.T()
		default:
			feeds["f"+itoa(i)] = v
		}
	}
	heap := coreHeapStub{}
	if _, err := exec.Run(res.Graph, feeds, exec.Options{Store: store, Heap: heap}); err != nil {
		t.Fatalf("assert should pass: %v", err)
	}
	m.Attrs["flag"] = minipy.BoolVal(false)
	_, err = exec.Run(res.Graph, feeds, exec.Options{Store: store, Heap: heap})
	var ae *exec.AssertError
	if !errors.As(err, &ae) {
		t.Fatalf("want AssertError after flag flip, got %v", err)
	}
}

// coreHeapStub resolves minipy object attributes like internal/core's adapter.
type coreHeapStub struct{}

func (coreHeapStub) GetAttr(obj any, name string) (any, error) {
	o := obj.(*minipy.ObjectVal)
	v, ok := o.Attrs[name]
	if !ok {
		return nil, errors.New("no attr " + name)
	}
	switch x := v.(type) {
	case minipy.BoolVal:
		return bool(x), nil
	case minipy.IntVal:
		return int(x), nil
	case minipy.FloatVal:
		return float64(x), nil
	case *minipy.TensorVal:
		return x.T(), nil
	}
	return v, nil
}
func (coreHeapStub) SetAttr(obj any, name string, v any) error { return nil }
func (coreHeapStub) GetSubscr(obj, key any) (any, error)       { return nil, errors.New("n/a") }
func (coreHeapStub) SetSubscr(obj, key, v any) error           { return nil }

func TestConvertRejectsImperativeOnlyFeatures(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"randn", "def f(x):\n    return reduce_sum(randn([2]) + x)\n", "no graph representation"},
		{"global-write", "g = 0\ndef f(x):\n    global g\n    g = 1\n    return x\n", "global state"},
		{"raise", "def f(x):\n    raise 'boom'\n", "imperatively"},
		{"del", "def f(x):\n    y = x\n    del y\n    return x\n", "imperative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []minipy.Value{minipy.NewTensor(tensor.Scalar(1))}
			fn, prof, it, _ := setup(t, c.src, "f", nil)
			_, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
			if err == nil {
				t.Fatal("expected not-convertible error")
			}
			if !errors.Is(err, ErrNotConvertible) {
				t.Fatalf("error not classified: %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestConvertTraceModeDropsGuardsAndStateWrites(t *testing.T) {
	src := `
class M:
    def __init__(self):
        self.flag = True
        self.state = zeros([1])
    def f(self, x):
        self.state = self.state + 1.0
        if self.flag:
            return x * 2.0
        return x * 3.0

m = M()
`
	it := minipy.NewInterp(nil)
	it.SetStore(vars.NewStore())
	if err := it.Run(minipy.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	mv, _ := it.Globals.Lookup("m")
	m := mv.(*minipy.ObjectVal)
	method := m.Class.Methods["f"].Bind(m)
	args := []minipy.Value{minipy.NewTensor(tensor.Scalar(5))}
	prof := profile.New()
	it.Prof = prof
	if _, err := it.CallFunction(method, args); err != nil {
		t.Fatal(err)
	}
	prof.EndIteration()
	it.Prof = nil
	res, err := ConvertCall(method, args, prof, it.Builtins,
		Options{Unroll: true, Specialize: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Graph.CountOps()
	if counts["Assert"] != 0 {
		t.Fatalf("trace mode emitted asserts: %v", counts)
	}
	if counts["PySetAttr"] != 0 {
		t.Fatalf("trace mode kept state writes: %v", counts)
	}
	if len(res.Asserts) != 0 {
		t.Fatal("trace mode reported asserts")
	}
}

func TestFlattenSignatureTokens(t *testing.T) {
	fn := &minipy.FuncVal{Name: "f", Params: []string{"a", "b", "c"}}
	sig, leaves := Flatten(fn, []minipy.Value{
		minipy.NewTensor(tensor.Zeros(4, 8)),
		minipy.IntVal(7),
		&minipy.ListVal{Items: []minipy.Value{minipy.StrVal("x")}},
	})
	joined := strings.Join(sig, " ")
	if !strings.Contains(joined, "T:4,8") || !strings.Contains(joined, "i:7") || !strings.Contains(joined, "s:x") {
		t.Fatalf("sig %v", sig)
	}
	if len(leaves) != 1 {
		t.Fatalf("leaves %d, want only the tensor", len(leaves))
	}
}

func TestSigMatchAndRelax(t *testing.T) {
	pat := []string{"T:4,8", "i:3"}
	if !SigMatch(pat, []string{"T:4,8", "i:3"}) {
		t.Fatal("exact match failed")
	}
	if SigMatch(pat, []string{"T:3,8", "i:3"}) {
		t.Fatal("dim mismatch matched")
	}
	if SigMatch(pat, []string{"T:4,8", "i:4"}) {
		t.Fatal("scalar mismatch matched")
	}
	relaxed := RelaxSignature(pat, []string{"T:3,8", "i:3"})
	if relaxed == nil || relaxed[0] != "T:?,8" {
		t.Fatalf("relax got %v", relaxed)
	}
	// The relaxed pattern matches both shapes (the Figure 4 hierarchy).
	if !SigMatch(relaxed, []string{"T:4,8", "i:3"}) || !SigMatch(relaxed, []string{"T:2,8", "i:3"}) {
		t.Fatal("relaxed pattern rejects member shapes")
	}
	if SigMatch(relaxed, []string{"T:4,9", "i:3"}) {
		t.Fatal("relaxed pattern matches foreign shape")
	}
	if RelaxSignature(pat, []string{"T:4,8", "i:4"}) != nil {
		t.Fatal("scalar difference must not relax")
	}
}

func TestConvertRecursionEmitsInvoke(t *testing.T) {
	src := `
def fact(x, n):
    if n <= 0:
        return x
    return x * fact(x, n - 1)
`
	args := []minipy.Value{minipy.NewTensor(tensor.Scalar(2)), minipy.NewTensor(tensor.Scalar(3))}
	fn, prof, it, store := setup(t, src, "fact", [][]minipy.Value{args, args, args})
	res, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The walk meets the Merge of the base-case branch before the Invoke.
	assertGradientsFail(t, res, "Merge")
	found := false
	for _, n := range res.Graph.Nodes {
		if n.Op == "Invoke" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Invoke emitted: %v", res.Graph.CountOps())
	}
	feeds := map[string]graph.Val{"f0": tensor.Scalar(2), "f1": tensor.Scalar(3)}
	out, err := exec.Run(res.Graph, feeds, exec.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := graph.AsTensor(exec.Unwrap(out.Outputs[0]))
	if got.Item() != 16 { // 2 * 2 * 2 * 2
		t.Fatalf("fact graph got %v want 16", got.Item())
	}
}

// assertGradientsFail checks that FinalizeTraining rejects res, naming op,
// and leaves its graph as it was: the engine then trains the graph on the
// executor's trace tape.
func assertGradientsFail(t *testing.T, res *Result, op string) {
	t.Helper()
	before := append([]*graph.Node(nil), res.Graph.Nodes...)
	err := FinalizeTraining(res, 0.1)
	if err == nil || !strings.Contains(err.Error(), op) {
		t.Fatalf("FinalizeTraining: got %v, want an error naming %s", err, op)
	}
	if !slices.Equal(before, res.Graph.Nodes) || len(res.Graph.Updates) != 0 {
		t.Fatal("failed FinalizeTraining changed the graph")
	}
}

func TestFinalizeTrainingAddsUpdatesWithAssertDeps(t *testing.T) {
	src := `
def loss(x):
    w = variable("w", [1, 1])
    return reduce_mean(matmul(x, w) ** 2.0)
`
	args := []minipy.Value{minipy.NewTensor(tensor.FromRows([][]float64{{2}}))}
	fn, prof, it, store := setup(t, src, "loss", [][]minipy.Value{args, args, args})
	res, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := FinalizeTraining(res, 0.1); err != nil {
		t.Fatal(err)
	}
	var upd *graph.Node
	for _, n := range res.Graph.Nodes {
		if n.Op == "AssignSub" {
			upd = n
		}
	}
	if upd == nil {
		t.Fatal("no AssignSub emitted")
	}
	if len(res.Asserts) > 0 && len(upd.ControlDeps) == 0 {
		t.Fatal("update not gated on assertions")
	}
	before := store.MustGet("w").Clone()
	if _, err := exec.Run(res.Graph, map[string]graph.Val{"f0": tensor.FromRows([][]float64{{2}})},
		exec.Options{Store: store}); err != nil {
		t.Fatal(err)
	}
	if tensor.Equal(before, store.MustGet("w")) {
		t.Fatal("training step did not update the variable")
	}
}

// TestTrainingGraphIsDeterministic: a program reading several variables
// builds the same training graph every time, gradient sums and updates in
// the same order, so its canonical bytes (artifacts, relax-merge) agree.
func TestTrainingGraphIsDeterministic(t *testing.T) {
	src := `
def loss(x):
    w1 = variable("w1", [2, 3])
    b1 = variable("b1", [3])
    w2 = variable("w2", [3, 1])
    b2 = variable("b2", [1])
    h = relu(matmul(x, w1) + b1)
    return reduce_mean((matmul(h, w2) + b2 + matmul(x, w1)[0][0]) ** 2.0)
`
	args := []minipy.Value{minipy.NewTensor(tensor.FromRows([][]float64{{1, 2}, {3, 4}}))}
	fn, prof, it, _ := setup(t, src, "loss", [][]minipy.Value{args, args, args})
	var first []byte
	for i := 0; i < 10; i++ {
		res, err := ConvertCall(fn, args, prof, it.Builtins, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := FinalizeTraining(res, 0.1); err != nil {
			t.Fatal(err)
		}
		b, err := graph.CanonicalBytes(res.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
		} else if string(b) != string(first) {
			t.Fatalf("build %d encodes differently from build 0 (variables %v)", i, res.VarNames)
		}
	}
}

// TestSignatureBuiltinsHaveNoBespokeCase: a builtin with a signature is
// converted by emitOp alone. bespokeCall has no case for it, and the op it
// names is registered.
func TestSignatureBuiltinsHaveNoBespokeCase(t *testing.T) {
	reg := minipy.DefaultRegistry()
	c := &Converter{reg: reg, g: graph.New(), shapes: map[graph.Port][]int{}, scratch: minipy.NewInterp(reg)}
	n := 0
	for _, name := range reg.Names() {
		b := reg.Get(name)
		if b.Sig == nil {
			continue
		}
		n++
		if graph.Lookup(b.Sig.Op) == nil {
			t.Errorf("%s: op %s is not registered", name, b.Sig.Op)
		}
		_, err := c.bespokeCall(&minipy.CallExpr{}, name, nil)
		if err == nil || !strings.Contains(err.Error(), "no graph representation") {
			t.Errorf("%s: bespokeCall has a case for it (%v)", name, err)
		}
	}
	if n != 23 {
		t.Errorf("%d builtins with a signature, want 23", n)
	}
}
