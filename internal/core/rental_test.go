package core_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/models"
	"repro/internal/tensor"
)

// poisonIdle drains every idle buffer of p (up to 1<<14 elements) through
// Get, telling a reused buffer from a fresh one by Stats().Hits, fills each
// with NaN and puts it back. Any value read after its buffer went back to the
// pool — a forward rental returned while something still held it — then
// reads NaN from the next rental that reuses the buffer. It returns how many
// buffers it poisoned.
func poisonIdle(p *tensor.Pool) int {
	var idle []*tensor.Tensor
	for class := 64; class <= 1<<14; class <<= 1 {
		for {
			hits := p.Stats().Hits
			x := p.Get(class)
			if p.Stats().Hits == hits {
				p.Disown(x)
				break
			}
			idle = append(idle, x)
		}
	}
	for _, x := range idle {
		tensor.FillInto(x, math.NaN())
		p.Put(x)
	}
	return len(idle)
}

// TestForwardRentalsNotReadAfterReturn: the tree models train bit for bit
// the same in every rung whether or not, after every step, the engine pool's
// idle buffers are overwritten with NaN — so no forward activation the tape
// returned at the end of a step is read later — and within 1e-9 of the
// imperative engine. (JANUS and the interpreter already differ in the last
// bit on these models: they sum some gradients in a different order.)
func TestForwardRentalsNotReadAfterReturn(t *testing.T) {
	const steps = 8
	rungs := []struct {
		name               string
		unroll, specialize bool
	}{{"BASE", false, false}, {"UNRL", true, false}, {"SPCN", false, true}, {"UNRL+SPCN", true, true}}
	for _, name := range []string{"TreeRNN", "TreeLSTM"} {
		imp, impLosses := trainSteps(t, name, core.Config{Mode: core.Imperative, LR: 0.05, Seed: 9}, steps, false)
		for _, r := range rungs {
			t.Run(name+"/"+r.name, func(t *testing.T) {
				cfg := core.DefaultJanusConfig()
				cfg.LR, cfg.Seed = 0.05, 9
				cfg.Unroll, cfg.Specialize = r.unroll, r.specialize
				clean, cleanLosses := trainSteps(t, name, cfg, steps, false)
				jan, janLosses := trainSteps(t, name, cfg, steps, true)
				if jan.Stats().GraphSteps == 0 {
					t.Fatalf("no step ran on the graph: %+v", jan.Stats())
				}
				for i := range cleanLosses {
					if janLosses[i] != cleanLosses[i] || !closeRel(janLosses[i], impLosses[i]) {
						t.Fatalf("step %d loss: %.17g poisoned, %.17g clean, %.17g imperative", i, janLosses[i], cleanLosses[i], impLosses[i])
					}
				}
				sameParams(t, clean, jan, func(a, b float64) bool { return a == b })
				sameParams(t, imp, jan, closeRel)
			})
		}
	}
}

// trainSteps trains model name for n steps on a fresh engine, poisoning its
// pool after every step when asked, and returns the engine and the losses.
func trainSteps(t *testing.T, name string, cfg core.Config, n int, poison bool) (*core.Engine, []float64) {
	t.Helper()
	m, err := models.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cfg)
	inst, err := m.Build(e, 42)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	poisoned := 0
	for i := 0; i < n; i++ {
		loss, err := inst.Step(i)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		losses = append(losses, loss)
		if poison {
			poisoned += poisonIdle(core.EnginePool(e))
		}
	}
	if poison && poisoned == 0 {
		t.Fatalf("%s: the pool never held an idle buffer to poison", name)
	}
	return e, losses
}

// closeRel reports |a-b| <= 1e-9 * max(1, |a|, |b|).
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameParams requires got's parameters to match want's under eq.
func sameParams(t *testing.T, want, got *core.Engine, eq func(a, b float64) bool) {
	t.Helper()
	names := want.Store.Names()
	if g := got.Store.Names(); len(g) != len(names) {
		t.Fatalf("parameters %v, want %v", g, names)
	}
	for _, name := range names {
		w, g := want.Store.MustGet(name), got.Store.MustGet(name)
		for k, x := range w.Data() {
			if !eq(g.Data()[k], x) {
				t.Fatalf("%s[%d] = %.17g, want %.17g", name, k, g.Data()[k], x)
			}
		}
	}
}

// heapStateProgram recurses over a tree whose nodes carry state from one
// step to the next: each node reads the activation it stored last step and
// stores a new one, and a list of two. A branch on node data the test
// flips mid-training makes a speculation fail inside the recursion.
const heapStateProgram = `
class Node:
    def __init__(self, leaf, val, left, right):
        self.leaf = leaf
        self.val = val
        self.left = left
        self.right = right
        self.h = zeros([1, 2])
        self.pair = []

def embed(node):
    w = variable("w", [2, 2])
    if node.leaf:
        if node.val > 2.5:
            h = tanh(matmul(constant([[1.0, 0.5]]) * node.val, w) - node.h)
        else:
            h = tanh(matmul(constant([[1.0, 0.5]]) * node.val, w) + node.h)
    else:
        h = tanh(matmul(embed(node.left) + embed(node.right), w) + node.h)
    node.h = h * 0.5
    node.pair = [h, h + 1.0]
    return h

def loss_fn(tree):
    return reduce_mean(embed(tree) ** 2.0)

l1 = Node(True, 1.0, None, None)
l2 = Node(True, 2.0, None, None)
l3 = Node(True, 3.0, None, None)
inner = Node(False, 0.0, l1, l2)
root = Node(False, 0.0, inner, l3)
optimize(lambda: loss_fn(root))
`

// TestHeapStateSurvivesPoisonedPool: activations a recursive program stores
// on heap objects — lists of them — escape the step and stay intact while
// the pool's idle buffers are poisoned after every step, across a failed
// speculation inside the recursion, bit for bit as without poisoning and
// within 1e-9 of the imperative engine.
func TestHeapStateSurvivesPoisonedPool(t *testing.T) {
	const steps = 16
	run := func(cfg core.Config, poison bool) (*core.Engine, []string) {
		e := core.NewEngine(cfg)
		if err := e.Run(heapStateProgram); err != nil {
			t.Fatal(err)
		}
		// Each step first prints what the last one stored, after the pool
		// was poisoned.
		step := minipy.MustParse("print(root.pair[0], root.pair[1], l1.pair[1], l3.h)\noptimize(lambda: loss_fn(root))")
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				// A deep leaf takes the other branch from here on.
				if err := e.Run("l1.val = 3.0"); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.RunProgram(step); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if poison {
				poisonIdle(core.EnginePool(e))
			}
		}
		return e, strings.Split(strings.TrimSpace(e.Output()), "\n")
	}
	cfg := core.DefaultJanusConfig()
	cfg.Seed = 3
	imp, impOut := run(core.Config{Mode: core.Imperative, LR: cfg.LR, Seed: 3}, false)
	clean, cleanOut := run(cfg, false)
	jan, janOut := run(cfg, true)
	if st := jan.Stats(); st.GraphSteps == 0 || st.AssertFailures == 0 {
		t.Fatalf("want graph steps and a failed speculation, got %+v", st)
	}
	if !slices.Equal(janOut, cleanOut) {
		t.Fatalf("stored state with a poisoned pool:\n%v\nwithout:\n%v", janOut, cleanOut)
	}
	sameParams(t, clean, jan, func(a, b float64) bool { return a == b })
	sameParams(t, imp, jan, closeRel)
	if len(impOut) != len(janOut) {
		t.Fatalf("imperative printed %v, JANUS %v", impOut, janOut)
	}
}

// TestPoolInUseGaugeFlatUnderTapeTraining: janus_pool_in_use_elements (the
// engine pool's in-use count) does not grow with tape-mode training steps:
// the gradients the tape hands out and the activations that escape a step
// leave the pool's count as they leave the pool.
func TestPoolInUseGaugeFlatUnderTapeTraining(t *testing.T) {
	cfg := core.DefaultJanusConfig()
	cfg.Seed = 19
	e := core.NewEngine(cfg)
	if err := e.Run(heapStateProgram); err != nil {
		t.Fatal(err)
	}
	step := minipy.MustParse("optimize(lambda: loss_fn(root))")
	var gauge []int64
	for i := 1; i <= 60; i++ {
		if err := e.RunProgram(step); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%20 == 0 {
			gauge = append(gauge, e.TensorPoolStats().InUseElems)
		}
	}
	if e.Stats().GraphSteps == 0 {
		t.Fatalf("no step ran on the graph: %+v", e.Stats())
	}
	if gauge[0] != gauge[1] || gauge[1] != gauge[2] {
		t.Errorf("in-use elements after 20, 40 and 60 steps: %v, want them equal", gauge)
	}
}
