package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/tensor"
)

// picks draws small choices from fuzz bytes; once they run out every
// choice is 0.
type picks []byte

func (p *picks) n(k int) int {
	if len(*p) == 0 || k <= 1 {
		return 0
	}
	v := int((*p)[0]) % k
	*p = (*p)[1:]
	return v
}

// genBuiltinCall writes a program defining f, which returns one call of
// the signature builtin name, and the tensors to call f with. Its choices
// come from p: tensor params become f's parameters (runtime feeds), most of
// one shape so that matmul, conv2d and the losses usually accept them;
// build-time params are literals; index lists are literals or int tensors.
func genBuiltinCall(name string, sig *minipy.Signature, p *picks) (string, []minipy.Value) {
	base := make([]int, []int{2, 4, 1, 3, 2, 4}[p.n(6)])
	d := 1 + p.n(3)
	for i := range base {
		base[i] = d
		if p.n(4) == 0 {
			base[i] = 1 + p.n(3)
		}
	}
	var params, call []string
	var args []minipy.Value
	feed := func(shape []int, ints bool) string {
		t := tensor.Zeros(shape...)
		for i := range t.Data() {
			if ints {
				t.Data()[i] = float64(p.n(3))
			} else {
				t.Data()[i] = float64(p.n(9)-4) / 2
			}
		}
		name := fmt.Sprintf("a%d", len(args))
		params, args = append(params, name), append(args, minipy.NewTensor(t))
		return name
	}
	shape := func() []int {
		if p.n(8) > 0 {
			return base
		}
		sh := make([]int, 1+p.n(4))
		for i := range sh {
			sh[i] = 1 + p.n(3)
		}
		return sh
	}
	ints := func(k int) string {
		parts := make([]string, k)
		for i := range parts {
			parts[i] = strconv.Itoa(p.n(3))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	for _, prm := range sig.Args {
		switch prm.Kind {
		case minipy.ParamTensor:
			call = append(call, feed(shape(), false))
		case minipy.ParamTensorList:
			items := make([]string, 1+p.n(3))
			for i := range items {
				items[i] = feed(shape(), false)
			}
			call = append(call, "["+strings.Join(items, ", ")+"]")
		case minipy.ParamIndices:
			if p.n(2) == 0 {
				call = append(call, ints(1+p.n(3)))
			} else {
				call = append(call, feed([]int{1 + p.n(3)}, true))
			}
		case minipy.ParamInt:
			call = append(call, strconv.Itoa([]int{1, 2, 1, 0, -1, 3}[p.n(6)]))
		case minipy.ParamShape:
			n := 1
			for _, d := range base {
				n *= d
			}
			call = append(call, []string{"[-1]", fmt.Sprintf("[%d]", n), "[1, -1]", ints(1 + p.n(2))}[p.n(4)])
		}
	}
	for _, prm := range sig.Kw {
		if p.n(2) == 1 {
			call = append(call, fmt.Sprintf("%s=%d", prm.Name, p.n(3)))
		}
	}
	src := fmt.Sprintf("def f(%s):\n    return %s(%s)\n", strings.Join(params, ", "), name, strings.Join(call, ", "))
	return src, args
}

// callF runs src's f(args...) calls times on a fresh engine of cfg and
// returns every result. A panic counts as that call's error.
func callF(cfg Config, src string, args []minipy.Value, calls int) (*Engine, []minipy.Value, []error) {
	e := NewEngine(cfg)
	if err := e.Run(src); err != nil {
		return e, nil, []error{err}
	}
	var vals []minipy.Value
	var errs []error
	for i := 0; i < calls; i++ {
		v, err := func() (v minipy.Value, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return e.Call("f", args)
		}()
		vals, errs = append(vals, v), append(errs, err)
	}
	return e, vals, errs
}

// sameValue reports whether two results are the same Python value: tensors
// bit for bit, everything else by repr.
func sameValue(a, b minipy.Value) bool {
	ta, okA := a.(*minipy.TensorVal)
	tb, okB := b.(*minipy.TensorVal)
	if !okA || !okB {
		return okA == okB && a.Repr() == b.Repr()
	}
	if !tensor.ShapeEq(ta.T().Shape(), tb.T().Shape()) {
		return false
	}
	for i, x := range ta.T().Data() {
		if math.Float64bits(x) != math.Float64bits(tb.T().Data()[i]) {
			return false
		}
	}
	return true
}

// matchesImperative calls f once on the Imperative engine and, past
// profiling, on the Janus engine. Every Janus call must give the
// interpreter's result bit for bit, or fail where the interpreter fails.
// It returns the Janus engine and whether the interpreter's call succeeded.
func matchesImperative(t *testing.T, src string, args []minipy.Value) (*Engine, bool) {
	t.Helper()
	cfg := DefaultJanusConfig()
	_, want, wantErr := callF(Config{Mode: Imperative}, src, args, 1)
	jan, got, gotErr := callF(cfg, src, args, cfg.ProfileIters+3)
	for i := range gotErr {
		switch {
		case (wantErr[0] == nil) != (gotErr[i] == nil):
			t.Fatalf("%s\ncall %d: imperative error %v, janus error %v", src, i, wantErr[0], gotErr[i])
		case wantErr[0] == nil && !sameValue(want[0], got[i]):
			t.Fatalf("%s\ncall %d: imperative %s, janus %s", src, i, want[0].Repr(), got[i].Repr())
		}
	}
	return jan, wantErr[0] == nil
}

// signatureBuiltins returns the names of reg's builtins that have a
// signature, sorted.
func signatureBuiltins(reg *minipy.Registry) []string {
	var out []string
	for _, name := range reg.Names() {
		if reg.Get(name).Sig != nil {
			out = append(out, name)
		}
	}
	return out
}

// TestEverySignatureBuiltinConvertsAndMatchesInterpreter walks the
// registry. On generated calls, every builtin with a signature gives the
// interpreter's result bit for bit under JANUS, or both engines fail; and a
// call the interpreter runs is compiled (the converter's generic emitter
// takes every signature) and replayed as a graph, never left imperative.
func TestEverySignatureBuiltinConvertsAndMatchesInterpreter(t *testing.T) {
	reg := minipy.DefaultRegistry()
	names := signatureBuiltins(reg)
	if len(names) != 23 {
		t.Fatalf("%d builtins with a signature, want 23: %v", len(names), names)
	}
	rng := tensor.NewRNG(1)
	for _, name := range names {
		ran := 0
		for seed := 0; seed < 24; seed++ {
			data := make(picks, 48)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			src, args := genBuiltinCall(name, reg.Get(name).Sig, &data)
			jan, ok := matchesImperative(t, src, args)
			if !ok {
				continue
			}
			ran++
			if s := jan.Stats(); s.Conversions == 0 || s.GraphSteps == 0 {
				t.Errorf("%s\ndid not run as a graph: %+v", src, s)
			}
		}
		if ran == 0 {
			t.Errorf("%s: none of the generated calls ran", name)
		}
	}
}

// FuzzBuiltinMatchesInterpreter picks a signature builtin and its
// arguments' shapes and values from the fuzz bytes; JANUS must give the
// interpreter's result bit for bit, or fail where it fails. The seed corpus
// (testdata/fuzz) holds one call each builtin runs.
func FuzzBuiltinMatchesInterpreter(f *testing.F) {
	reg := minipy.DefaultRegistry()
	names := signatureBuiltins(reg)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := picks(data)
		name := names[p.n(len(names))]
		src, args := genBuiltinCall(name, reg.Get(name).Sig, &p)
		matchesImperative(t, src, args)
	})
}

// TestIntAndFloatOfARuntimeTensorMatchImperative: int() and float() of a
// tensor are Python numbers (int truncates toward zero), which a graph does
// not compute, so a function calling them on a runtime value stays
// imperative instead of computing with the tensor itself.
func TestIntAndFloatOfARuntimeTensorMatchImperative(t *testing.T) {
	x := []minipy.Value{minipy.NewTensor(tensor.FromSlice([]float64{1.25, 1.5}))}
	for _, body := range []string{
		"x * int(reduce_sum(x))",
		"int(reduce_sum(x))",
		"x * float(reduce_sum(x))",
		"float(reduce_sum(x)) + 1",
		"x * int(-reduce_sum(x))",
	} {
		src := "def f(x):\n    return " + body + "\n"
		jan, ok := matchesImperative(t, src, x)
		if !ok {
			t.Fatalf("%s: the interpreter failed", body)
		}
		if jan.Stats().ConversionFails == 0 {
			t.Errorf("%s: converted", body)
		}
	}
	_, v, errs := callF(Config{Mode: Imperative}, "def f(x):\n    return int(reduce_sum(x))\n", x, 1)
	if errs[0] != nil || v[0].Repr() != "2" {
		t.Errorf("int(reduce_sum(x)) = %v, %v; want 2", v[0], errs[0])
	}
}

// TestBuildTimeBuiltinsReturnPythonValues: abs() of a build-time number
// folds to a Python number, and a function whose result is a Python value
// runs imperatively rather than returning it as a rank-0 tensor.
func TestBuildTimeBuiltinsReturnPythonValues(t *testing.T) {
	x := []minipy.Value{minipy.NewTensor(tensor.FromSlice([]float64{-1, 2}))}
	for _, c := range []struct{ body, want string }{
		{"abs(-3)", "3"},
		{"abs(-2.5) * x", ""},
		{"abs(x) + abs(-1)", ""},
		{"min(3, abs(-2))", "2"},
		{"len(x)", "2"},
	} {
		src := "def f(x):\n    return " + c.body + "\n"
		if _, ok := matchesImperative(t, src, x); !ok {
			t.Fatalf("%s: the interpreter failed", c.body)
		}
		if c.want == "" {
			continue
		}
		_, v, _ := callF(DefaultJanusConfig(), src, x, 5)
		if got := v[4].Repr(); got != c.want {
			t.Errorf("%s = %s under JANUS, want %s", c.body, got, c.want)
		}
	}
}

// TestListOnAHeapObjectReadsLikeTheInterpreter: a converted function reads
// a list stored on a heap object as the interpreter does: an element
// through the heap, not as a runtime list, and stack() or len() of it by
// staying imperative.
func TestListOnAHeapObjectReadsLikeTheInterpreter(t *testing.T) {
	const prog = `
class Node:
    def __init__(self):
        self.pair = None

node = Node()
node.pair = [constant([1.0, 2.0]), constant([3.0, 4.0])]

def f(x):
    return `
	x := []minipy.Value{minipy.NewTensor(tensor.FromSlice([]float64{0.5, 0.25}))}
	for _, c := range []struct {
		body  string
		graph bool
	}{
		{"node.pair[0] * 2.0", true},
		{"node.pair[1] * 2.0 + x", true},
		{"stack(node.pair) + x", false},
		{"x * len(node.pair)", false},
	} {
		jan, ok := matchesImperative(t, prog+c.body+"\n", x)
		if !ok {
			t.Fatalf("%s: the interpreter failed", c.body)
		}
		if ran := jan.Stats().GraphSteps > 0; ran != c.graph {
			t.Errorf("%s: ran as a graph %v, want %v", c.body, ran, c.graph)
		}
	}
}
