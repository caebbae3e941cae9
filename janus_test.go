package janus

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestPublicAPIQuickstart(t *testing.T) {
	rt := New(Options{Seed: 1, LearningRate: 0.1})
	err := rt.Run(`
def loss_fn(x, y):
    w = variable("w", [1, 1])
    return mse(matmul(x, w), y)

x = constant([[1.0], [2.0]])
y = constant([[2.0], [4.0]])
for i in range(100):
    optimize(lambda: loss_fn(x, y))
`)
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.Parameter("w")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(w, tensor.FromRows([][]float64{{2}}), 0.05) {
		t.Fatalf("w = %v, want ~2", w)
	}
	st := rt.Stats()
	if st.Conversions == 0 || st.GraphSteps == 0 {
		t.Fatalf("janus engine did not convert: %+v", st)
	}
}

func TestEngineSelection(t *testing.T) {
	src := `
def loss_fn():
    w = variable("w", [1])
    return reduce_mean(w ** 2.0)
for i in range(5):
    optimize(lambda: loss_fn())
`
	imp := New(Options{Engine: EngineImperative, Seed: 2})
	if err := imp.Run(src); err != nil {
		t.Fatal(err)
	}
	if s := imp.Stats(); s.GraphSteps != 0 || s.ImperativeSteps != 5 {
		t.Fatalf("imperative stats %+v", s)
	}
	tr := New(Options{Engine: EngineTrace, Seed: 2})
	if err := tr.Run(src); err != nil {
		t.Fatal(err)
	}
	if s := tr.Stats(); s.GraphSteps == 0 {
		t.Fatalf("trace stats %+v", s)
	}
}

func TestDefineTensorFeedsProgram(t *testing.T) {
	rt := New(Options{Engine: EngineImperative, Seed: 3})
	rt.DefineTensor("ext", tensor.FromSlice([]float64{1, 2, 3}))
	rt.DefineScalar("scale", 2)
	if err := rt.Run("print(reduce_sum(ext) * scale)"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rt.Output(), "12") {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestAblationOptionsRun(t *testing.T) {
	src := `
def loss_fn(x):
    w = variable("w", [2, 1])
    return reduce_mean(matmul(x, w) ** 2.0)
x = constant([[1.0, 2.0]])
for i in range(6):
    optimize(lambda: loss_fn(x))
`
	for _, o := range []Options{
		{DisableUnrolling: true, Seed: 4},
		{DisableSpecialization: true, Seed: 4},
		{Seed: 4},
		{DisableAssertions: true, Seed: 4},
	} {
		rt := New(o)
		if err := rt.Run(src); err != nil {
			t.Fatalf("options %+v: %v", o, err)
		}
	}
}

func TestParameterErrors(t *testing.T) {
	rt := New(Options{})
	if _, err := rt.Parameter("missing"); err == nil {
		t.Fatal("expected error for unknown parameter")
	}
}
