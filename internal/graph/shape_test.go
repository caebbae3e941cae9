package graph_test

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// valShape is an input's shape as OpDef.Shape takes it: a tensor's shape,
// an index list's length.
func valShape(t *testing.T, v graph.Val) []int {
	switch x := v.(type) {
	case *tensor.Tensor:
		return x.Shape()
	case []int:
		return []int{len(x)}
	}
	t.Fatalf("no shape for %T", v)
	return nil
}

// TestEveryShapeRuleMatchesItsKernel pins each OpDef.Shape against its
// kernel's output on the per-op check cases (gradCases, plus OneHot, which
// has no gradient), and pins which ops have a rule: every op a builtin
// signature emits except Argmax, whose output the converter leaves
// unshaped, and no other.
func TestEveryShapeRuleMatchesItsKernel(t *testing.T) {
	cases := append(gradCases(),
		gradCase{op: "OneHot", attrs: map[string]graph.Val{"depth": 4}, in: []graph.Val{[]int{3, 0, 1}}},
		gradCase{op: "OneHot", attrs: map[string]graph.Val{"depth": 2}, in: []graph.Val{tensor.FromSlice([]float64{1})}})
	covered := map[string]bool{}
	for _, c := range cases {
		rule := graph.Lookup(c.op).Shape
		if rule == nil {
			continue
		}
		covered[c.op] = true
		in := make([][]int, len(c.in))
		for i, v := range c.in {
			in[i] = valShape(t, v)
		}
		want := tensorOut(t, c).Shape()
		if got, ok := rule(c.attrs, in); !ok || !slices.Equal(got, want) {
			t.Errorf("%s %v on %v: rule gives %v (ok %v), the kernel %v", c.op, c.attrs, in, got, ok, want)
		}
	}
	emitted := map[string]bool{}
	reg := minipy.DefaultRegistry()
	for _, name := range reg.Names() {
		if sig := reg.Get(name).Sig; sig != nil {
			emitted[sig.Op] = true
		}
	}
	for _, name := range graph.OpNames() {
		hasRule := graph.Lookup(name).Shape != nil
		switch {
		case hasRule && !covered[name]:
			t.Errorf("op %s has a Shape rule but no case here", name)
		case hasRule != (emitted[name] && name != "Argmax"):
			t.Errorf("op %s: Shape rule %v, emitted by a builtin signature %v", name, hasRule, emitted[name])
		}
	}
}

// TestShapeRulesNeedTheirInputs: with no input shape known, only the
// reductions to a scalar give one, so a shape the converter records never
// rests on a guess.
func TestShapeRulesNeedTheirInputs(t *testing.T) {
	attrs := map[string]graph.Val{"shape": []int{2, -1}, "axis": 0, "lo": 0, "hi": 1, "k": 1, "stride": 1, "depth": 2}
	for _, name := range graph.OpNames() {
		rule := graph.Lookup(name).Shape
		if rule == nil {
			continue
		}
		got, ok := rule(attrs, make([][]int, 2))
		scalar := name == "Sum" || name == "Mean" || name == "CrossEntropy" || name == "MSE"
		if ok != scalar || ok && len(got) != 0 {
			t.Errorf("%s with unknown inputs: %v (ok %v)", name, got, ok)
		}
	}
}
