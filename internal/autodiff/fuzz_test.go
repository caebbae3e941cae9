package autodiff_test

import (
	"math"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// fuzzVars are the parameters a fuzzed program reads; their shapes let the
// binary ops broadcast and MatMul chain.
var fuzzVars = []struct {
	name  string
	shape []int
}{{"a", []int{2, 3}}, {"b", []int{3}}, {"c", []int{3, 2}}, {"d", []int{2, 1}}}

var (
	// fuzzOps is indexed by an op byte modulo its length; "" reads a
	// parameter. New ops go at the end, so that the seeds below keep
	// decoding to the programs they were written as.
	fuzzOps = []string{
		"Neg", "ReLU", "Sigmoid", "Tanh", "Exp", "Softmax", "Sum", "Mean", "Transpose",
		"Add", "Sub", "Mul", "Maximum", "Minimum", "MatMul", "MSE", "", "Abs", "Pow",
	}
	fuzzBinary = map[string]bool{
		"Add": true, "Sub": true, "Mul": true, "Maximum": true, "Minimum": true, "MatMul": true, "MSE": true, "Pow": true,
	}
)

// FuzzTapeMatchesGraph decodes the input as a straight-line program over
// differentiable ops and the parameters of fuzzVars, then differentiates the
// sum of its last value twice: on the eager tape, and with graph.Gradients
// run by the executor with no passes. Both run the same OpDef.Grad rules
// and kernels, so the gradients must agree bit for bit. Each read of a
// parameter is its own Variable node in the graph, as the converter emits
// them, while the tape watches one node per name.
//
// Each input runs twice through one tape, Reset in between, and its pool:
// the second backprop rents the buffers the first returned, stale contents
// and all, and must still match bit for bit; and it must leave the
// gradients the first handed out as they were.
func FuzzTapeMatchesGraph(f *testing.F) {
	f.Add([]byte{0, 0, 1, 10, 0, 1})
	f.Add([]byte{1, 2, 3, 0, 1, 2, 16, 3, 4, 5})
	f.Add([]byte{2, 0, 2, 15, 4, 5, 9, 1, 0, 12, 6, 3, 0, 0, 13, 0, 6})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		store := vars.NewStore()
		rng := tensor.NewRNG(uint64(len(prog)))
		for _, v := range fuzzVars {
			store.Set(v.name, rng.Randn(v.shape...))
		}
		tp := autodiff.NewTape()
		first := tapeMatchesGraph(t, prog, store, tp)
		kept := map[string]*tensor.Tensor{}
		for name, g := range first {
			kept[name] = g.Clone()
		}
		tp.Reset()
		tapeMatchesGraph(t, prog, store, tp)
		for name, g := range first {
			if !sameBits(g, kept[name]) {
				t.Fatalf("%s: the second run changed the first's gradient to %v, was %v", name, g, kept[name])
			}
		}
	})
}

// tapeMatchesGraph runs prog on tp and as a graph, requires the same
// gradients from both, and returns the tape's.
func tapeMatchesGraph(t *testing.T, prog []byte, store *vars.Store, tp *autodiff.Tape) map[string]*tensor.Tensor {
	t.Helper()
	g := graph.New()
	// Each value is held twice: as a tape handle and as a graph port.
	type value struct {
		tape graph.Val
		port graph.Port
		t    *tensor.Tensor
	}
	var names []string // parameters read, in order of first read
	seen := map[string]bool{}
	read := func(k byte) value {
		v := fuzzVars[int(k)%len(fuzzVars)]
		x := store.MustGet(v.name)
		if !seen[v.name] {
			seen[v.name] = true
			names = append(names, v.name)
		}
		return value{tp.Watch(v.name, x), g.Add("Variable", map[string]graph.Val{"name": v.name}).P(), x}
	}
	vals := []value{read(0)}
	pick := func(k byte) value { return vals[int(k)%len(vals)] }
	apply := func(op string, in ...value) {
		def := graph.Lookup(op)
		handles, ports, raw := make([]graph.Val, len(in)), make([]graph.Port, len(in)), make([]graph.Val, len(in))
		for i, v := range in {
			handles[i], ports[i], raw[i] = v.tape, v.port, v.t
		}
		// Skip ops the operands' shapes do not admit.
		if _, err := def.Eval(&graph.Node{Op: op}, raw); err != nil {
			return
		}
		n := g.Add(op, nil, ports...)
		out, err := tp.Apply(def, n, handles, true)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		vt := out
		if nd, ok := out.(*autodiff.Node); ok {
			vt = nd.Value
		}
		vals = append(vals, value{out, n.P(), vt.(*tensor.Tensor)})
	}
	for i := 0; i+2 < len(prog); i += 3 {
		x, y := prog[i+1], prog[i+2]
		switch op := fuzzOps[int(prog[i])%len(fuzzOps)]; {
		case op == "":
			vals = append(vals, read(x))
		case fuzzBinary[op]:
			apply(op, pick(x), pick(y))
		default:
			apply(op, pick(x))
		}
	}
	last := vals[len(vals)-1]
	apply("Sum", last)
	loss := vals[len(vals)-1]
	lossNode, ok := loss.tape.(*autodiff.Node)
	if !ok {
		lossNode = autodiff.Const(loss.t)
	}
	want := tp.Gradient(lossNode)
	gp, err := graph.Gradients(g, loss.port, names)
	if err != nil {
		t.Fatalf("Gradients: %v", err)
	}
	for _, name := range names {
		g.Outputs = append(g.Outputs, gp[name])
	}
	res, err := exec.Run(g, nil, exec.Options{Store: store})
	if err != nil {
		t.Fatalf("graph run: %v", err)
	}
	for i, name := range names {
		got := res.Outputs[i].(*tensor.Tensor)
		if !sameBits(got, want[name]) {
			t.Fatalf("%s: graph gradient %v, tape %v\n%s", name, got, want[name], g)
		}
	}
	return want
}

// sameBits reports bit-for-bit equality (NaNs included).
func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
