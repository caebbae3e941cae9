package core

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/minipy"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// linearProgram trains y = 2x - 3 with a tiny linear model. The loss function
// is a pure static program (the Figure 3 shape).
const linearProgram = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    b = variable("b", [1])
    pred = matmul(x, w) + b
    return mse(pred, y)

x = constant([[0.0], [1.0], [2.0], [3.0]])
y = constant([[-3.0], [-1.0], [1.0], [3.0]])
for step in range(200):
    optimize(lambda: loss_fn(x, y))
`

func finalLossOf(t *testing.T, e *Engine, src string) float64 {
	t.Helper()
	src = src + "\nprint(loss_fn(x, y))\n"
	if err := e.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := strings.TrimSpace(e.Output())
	lines := strings.Split(out, "\n")
	last := lines[len(lines)-1]
	// TensorVal repr looks like "Tensor[][0.0123]".
	start := strings.LastIndex(last, "[")
	end := strings.LastIndex(last, "]")
	if start < 0 || end <= start {
		t.Fatalf("cannot parse loss from %q", last)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(last[start+1:end]), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", last, err)
	}
	return v
}

func TestImperativeEngineTrainsLinearModel(t *testing.T) {
	e := NewEngine(Config{Mode: Imperative, LR: 0.05, Seed: 1})
	loss := finalLossOf(t, e, linearProgram)
	if loss > 0.05 {
		t.Fatalf("imperative loss %v", loss)
	}
	if e.Stats().ImperativeSteps != 200 {
		t.Fatalf("imperative steps %d", e.Stats().ImperativeSteps)
	}
	if e.Stats().GraphSteps != 0 {
		t.Fatal("imperative engine ran graphs")
	}
}

func TestJanusEngineConvertsAndTrains(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.LR = 0.05
	cfg.Seed = 1
	e := NewEngine(cfg)
	loss := finalLossOf(t, e, linearProgram)
	if loss > 0.05 {
		t.Fatalf("janus loss %v", loss)
	}
	if e.Stats().Conversions == 0 {
		t.Fatal("no graph conversion happened")
	}
	if e.Stats().GraphSteps < 190 {
		t.Fatalf("graph steps %d, expected most of 200", e.Stats().GraphSteps)
	}
	if e.Stats().ImperativeSteps != 3 {
		t.Fatalf("profiling iterations %d, want 3", e.Stats().ImperativeSteps)
	}
	if e.Stats().CacheHits == 0 {
		t.Fatal("graph cache never hit")
	}
}

func TestJanusMatchesImperativeTrajectory(t *testing.T) {
	// Same seed, same program: both engines must converge to comparable
	// parameters (identical up to float noise because updates are identical).
	imp := NewEngine(Config{Mode: Imperative, LR: 0.05, Seed: 7})
	if err := imp.Run(linearProgram); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultJanusConfig()
	cfg.LR = 0.05
	cfg.Seed = 7
	jan := NewEngine(cfg)
	if err := jan.Run(linearProgram); err != nil {
		t.Fatal(err)
	}
	wI := imp.Store.MustGet("w")
	wJ := jan.Store.MustGet("w")
	if !tensor.AllClose(wI, wJ, 1e-6) {
		t.Fatalf("weight divergence: imperative %v janus %v", wI, wJ)
	}
	bI := imp.Store.MustGet("b")
	bJ := jan.Store.MustGet("b")
	if !tensor.AllClose(bI, bJ, 1e-6) {
		t.Fatalf("bias divergence: %v vs %v", bI, bJ)
	}
}

// TestJanusMatchesImperativeOnBroadcastLoss: mse and cross_entropy broadcast
// their second argument in the interpreter, so the compiled graph must accept
// the same programs and walk the same trajectory.
func TestJanusMatchesImperativeOnBroadcastLoss(t *testing.T) {
	const program = `
def loss_fn(x, y, labels):
    w = variable("w", [1, 1])
    v = variable("v", [1, 3])
    return mse(matmul(x, w), y) + cross_entropy(matmul(x, v), labels)

x = constant([[0.0], [1.0], [2.0], [3.0]])
y = constant([1.5])
labels = constant([0.0, 1.0, 0.0])
for step in range(20):
    optimize(lambda: loss_fn(x, y, labels))
`
	imp := NewEngine(Config{Mode: Imperative, LR: 0.05, Seed: 7})
	if err := imp.Run(program); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultJanusConfig()
	cfg.LR = 0.05
	cfg.Seed = 7
	jan := NewEngine(cfg)
	if err := jan.Run(program); err != nil {
		t.Fatal(err)
	}
	if st := jan.Stats(); st.GraphSteps != 17 || st.Fallbacks != 0 {
		t.Fatalf("janus stats %+v, want 17 graph steps and no fallback", st)
	}
	for _, name := range []string{"w", "v"} {
		if vI, vJ := imp.Store.MustGet(name), jan.Store.MustGet(name); !tensor.AllClose(vI, vJ, 1e-9) {
			t.Fatalf("%s diverged: imperative %v janus %v", name, vI, vJ)
		}
	}
}

// TestMSEGradientUnderEnlargingBroadcast: mse(p[4,1], t[4]) averages over
// the 16 elements of the broadcast difference, so dL/dp_i = 2/16 sum_j
// (p_i - t_j) and dL/dt_j = -2/16 sum_i (p_i - t_j): pred and target both
// train, imperatively and under JANUS alike.
func TestMSEGradientUnderEnlargingBroadcast(t *testing.T) {
	const program = `
def loss_fn():
    return mse(variable("p", [4, 1]), variable("t", [4]))

for step in range(4):
    optimize(lambda: loss_fn())
`
	p0 := tensor.New([]int{4, 1}, []float64{0.5, -1, 2, 0.25})
	t0 := tensor.FromSlice([]float64{1, 0, -0.5, 3})
	// One SGD step from (p0, t0), by hand.
	const lr = 0.05
	wantP, wantT := p0.Clone(), t0.Clone()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := 2.0 / 16 * (p0.Data()[i] - t0.Data()[j])
			wantP.Data()[i] -= lr * d
			wantT.Data()[j] += lr * d
		}
	}
	run := func(cfg Config, steps int) *Engine {
		cfg.LR, cfg.Seed = lr, 7
		e := NewEngine(cfg)
		e.Store.Set("p", p0.Clone())
		e.Store.Set("t", t0.Clone())
		src := strings.Replace(program, "range(4)", "range("+strconv.Itoa(steps)+")", 1)
		if err := e.Run(src); err != nil {
			t.Fatal(err)
		}
		return e
	}
	one := run(Config{Mode: Imperative}, 1)
	if got := one.Store.MustGet("p"); !tensor.AllClose(got, wantP, 1e-12) {
		t.Fatalf("p after one step: %v, want %v", got, wantP)
	}
	if got := one.Store.MustGet("t"); !tensor.AllClose(got, wantT, 1e-12) {
		t.Fatalf("t after one step: %v, want %v", got, wantT)
	}
	imp, jan := run(Config{Mode: Imperative}, 4), run(DefaultJanusConfig(), 4)
	if st := jan.Stats(); st.GraphSteps == 0 {
		t.Fatalf("janus never ran a graph step: %+v", st)
	}
	for _, name := range []string{"p", "t"} {
		if vI, vJ := imp.Store.MustGet(name), jan.Store.MustGet(name); !tensor.AllClose(vI, vJ, 1e-12) {
			t.Fatalf("%s diverged: imperative %v janus %v", name, vI, vJ)
		}
	}
}

// cachedGraphKinds reports whether e's graph cache holds a static and a
// dynamic (tape-mode) training graph.
func cachedGraphKinds(e *Engine) (static, dynamic bool) {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	for _, fs := range e.cache.funcs {
		fs.mu.Lock()
		for _, c := range fs.entries {
			static = static || !c.res.Dynamic
			dynamic = dynamic || c.res.Dynamic
		}
		fs.mu.Unlock()
	}
	return static, dynamic
}

// janusMatchesImperative runs src imperatively and under JANUS (cfg) from
// the same seed and checks that the named variables end equal to 1e-12
// relative and that JANUS ran the expected kind of graph.
func janusMatchesImperative(t *testing.T, cfg Config, src string, wantDynamic bool, names ...string) {
	t.Helper()
	cfg.Seed = 23
	jan := NewEngine(cfg)
	if err := jan.Run(src); err != nil {
		t.Fatalf("janus: %v", err)
	}
	if st := jan.Stats(); st.GraphSteps == 0 {
		t.Fatalf("janus never ran a graph step: %+v (reason: %s)", st, jan.impReason())
	}
	if static, dynamic := cachedGraphKinds(jan); dynamic != wantDynamic || static == wantDynamic {
		t.Fatalf("cached graphs static=%v dynamic=%v, want dynamic=%v", static, dynamic, wantDynamic)
	}
	imp := NewEngine(Config{Mode: Imperative, LR: cfg.LR, Seed: cfg.Seed})
	if err := imp.Run(src); err != nil {
		t.Fatalf("imperative: %v", err)
	}
	for _, name := range names {
		vI, vJ := imp.Store.MustGet(name), jan.Store.MustGet(name)
		if !tensor.AllClose(vI, vJ, 1e-12) {
			t.Fatalf("%s diverged: imperative %v janus %v", name, vI, vJ)
		}
	}
}

// TestJanusMatchesImperativeOnIndexedVariable: w[i] on a variable of known
// shape converts to Slice+ReshapeLike (IndexAny where the shape is unknown),
// whose gradient must reach w in a static graph and in a dynamic (tape-mode)
// graph alike.
func TestJanusMatchesImperativeOnIndexedVariable(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		janusMatchesImperative(t, DefaultJanusConfig(), `
def loss_fn(x):
    w = variable("w", [3, 2])
    total = w[1] * x
    for i in range(3):
        total = total + w[i] * w[i]
    return reduce_mean(total * total)

x = constant([0.5, -1.0])
for step in range(8):
    optimize(lambda: loss_fn(x))
`, false, "w")
	})
	t.Run("dynamic", func(t *testing.T) {
		// Without unrolling the loop is a Loop op: a dynamic graph.
		cfg := DefaultJanusConfig()
		cfg.Unroll, cfg.Specialize = false, false
		janusMatchesImperative(t, cfg, `
def loss_fn(xs):
    w = variable("w", [3, 2])
    state = w[0]
    for x in xs:
        state = tanh(x * w[1] + state * w[-1])
    return reduce_mean(state * state)

xs = [constant([1.0, 0.5]), constant([-0.5, 2.0])]
for step in range(8):
    optimize(lambda: loss_fn(xs))
`, true, "w")
	})
	t.Run("recursive", func(t *testing.T) {
		// Invoke makes the graph dynamic; node.val reaches Mul as a plain
		// float next to a tracked tensor.
		janusMatchesImperative(t, DefaultJanusConfig(), `
class Node:
    def __init__(self, leaf, val, left, right):
        self.leaf = leaf
        self.val = val
        self.left = left
        self.right = right

def embed(node):
    w = variable("w", [3, 2])
    if node.leaf:
        return w[0] * node.val + w[2]
    return tanh(embed(node.left) * embed(node.right))

def loss_fn(tree):
    out = embed(tree)
    return reduce_mean(out * out)

root = Node(False, 0.0, Node(True, 1.0, None, None), Node(True, -2.0, None, None))
for step in range(8):
    optimize(lambda: loss_fn(root))
`, true, "w")
	})
}

// TestJanusMatchesImperativeOnTrackedExponent: in x ** p with p a variable,
// p trains by d/dp x**p = x**p log(x), imperatively and under JANUS alike.
func TestJanusMatchesImperativeOnTrackedExponent(t *testing.T) {
	const src = `
def loss_fn(x):
    p = variable("p", [2])
    return reduce_mean((x ** p - 1.5) * (x ** p - 1.5))

x = constant([[0.5, 2.0], [1.5, 3.0]])
for step in range(8):
    optimize(lambda: loss_fn(x))
`
	janusMatchesImperative(t, DefaultJanusConfig(), src, false, "p")
	e := NewEngine(Config{Mode: Imperative, LR: 0.1, Seed: 23})
	p0 := tensor.FromSlice([]float64{0.5, -0.25})
	e.Store.Set("p", p0.Clone())
	if err := e.Run(strings.Replace(src, "range(8)", "range(1)", 1)); err != nil {
		t.Fatal(err)
	}
	// One SGD step by hand: dL/dp_j = 2/4 sum_i (x_ij^p_j - 1.5) x_ij^p_j log x_ij.
	x := [][]float64{{0.5, 2.0}, {1.5, 3.0}}
	want := p0.Clone()
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			y := math.Pow(x[i][j], p0.Data()[j])
			want.Data()[j] -= 0.1 * 2.0 / 4 * (y - 1.5) * y * math.Log(x[i][j])
		}
	}
	if got := e.Store.MustGet("p"); !tensor.AllClose(got, want, 1e-12) {
		t.Fatalf("p after one step: %v, want %v", got, want)
	}
}

// TestJanusTrainsL1Loss: abs differentiates as sign(x), so an L1 loss
// trains w, imperatively and on a static JANUS graph, to the same bits.
func TestJanusTrainsL1Loss(t *testing.T) {
	const src = `
def loss_fn(x, y):
    w = variable("w", [2, 1])
    return reduce_mean(abs(matmul(x, w) - y))

x = constant([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [-2.0, 1.0]])
y = constant([[1.0], [-2.0], [4.0], [0.0]])
for step in range(20):
    optimize(lambda: loss_fn(x, y))
`
	w0 := tensor.New([]int{2, 1}, []float64{0.1883, 0.6952})
	run := func(cfg Config) *Engine {
		cfg.LR, cfg.Seed = 0.1, 23
		e := NewEngine(cfg)
		e.Store.Set("w", w0.Clone())
		if err := e.Run(src); err != nil {
			t.Fatal(err)
		}
		return e
	}
	imp, jan := run(Config{Mode: Imperative}), run(DefaultJanusConfig())
	if st := jan.Stats(); st.GraphSteps == 0 {
		t.Fatalf("janus never ran a graph step: %+v", st)
	}
	if static, dynamic := cachedGraphKinds(jan); !static || dynamic {
		t.Fatalf("cached graphs static=%v dynamic=%v, want a static graph only", static, dynamic)
	}
	wI, wJ := imp.Store.MustGet("w"), jan.Store.MustGet("w")
	if tensor.AllClose(wI, w0, 1e-3) {
		t.Fatalf("w did not train: %v", wI)
	}
	if !tensor.Equal(wI, wJ) {
		t.Fatalf("w diverged: imperative %v janus %v", wI, wJ)
	}
}

func TestJanusHandlesLoopsAndLists(t *testing.T) {
	// RNN-style accumulation loop over a captured list (Figure 1 shape,
	// without object state).
	src := `
def step(xs):
    w = variable("w", [2, 2])
    state = zeros([1, 2])
    outputs = []
    for x in xs:
        state = tanh(matmul(x, w) + state)
        outputs += [state]
    return reduce_mean(stack(outputs) ** 2.0)

xs = [constant([[1.0, 0.0]]), constant([[0.0, 1.0]]), constant([[1.0, 1.0]])]
for i in range(12):
    optimize(lambda: step(xs))
`
	cfg := DefaultJanusConfig()
	cfg.Seed = 3
	e := NewEngine(cfg)
	if err := e.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Stats().Conversions == 0 || e.Stats().GraphSteps == 0 {
		t.Fatalf("loop program not converted: %+v", e.Stats())
	}
	if e.Stats().AssertFailures != 0 {
		t.Fatalf("unexpected assumption failures: %+v", e.Stats())
	}
}

func TestJanusObjectStateCarriedAcrossIterations(t *testing.T) {
	// The paper's Figure 1: object attribute read and written inside the
	// optimized function; graph mode must keep the state passing correct via
	// PyGetAttr/PySetAttr with deferred write-back.
	src := `
class Model:
    def __init__(self):
        self.state = zeros([1, 2])
    def __call__(self, x):
        w = variable("w", [2, 2])
        s = tanh(matmul(x, w) + self.state)
        self.state = s
        return reduce_mean(s ** 2.0)

m = Model()
x = constant([[1.0, 2.0]])
for i in range(10):
    optimize(lambda: m(x))
print(reduce_sum(m.state))
`
	run := func(mode Mode) (string, *Engine) {
		cfg := DefaultJanusConfig()
		cfg.Mode = mode
		cfg.Seed = 5
		e := NewEngine(cfg)
		if err := e.Run(src); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return strings.TrimSpace(e.Output()), e
	}
	impOut, _ := run(Imperative)
	janOut, jan := run(Janus)
	if impOut != janOut {
		t.Fatalf("state divergence:\n imperative: %s\n janus:      %s", impOut, janOut)
	}
	if jan.Stats().GraphSteps == 0 {
		t.Fatalf("janus never used the graph: %+v", jan.Stats())
	}
}

func TestJanusBranchSpeculationAndFallback(t *testing.T) {
	// The branch is stable for 20 iterations, then flips: JANUS must assert,
	// fall back (correctly), distrust the branch, regenerate, and keep
	// producing results identical to the imperative engine.
	src := `
class Net:
    def __init__(self):
        self.training = True
    def loss(self, x):
        w = variable("w", [2, 1])
        h = matmul(x, w)
        if self.training:
            h = h * 2.0
        else:
            h = h * 0.5
        return reduce_mean(h ** 2.0)

net = Net()
x = constant([[1.0, 2.0]])
for i in range(30):
    if i == 20:
        net.training = False
    optimize(lambda: net.loss(x))
print(net.training)
`
	cfg := DefaultJanusConfig()
	cfg.Seed = 11
	jan := NewEngine(cfg)
	if err := jan.Run(src); err != nil {
		t.Fatalf("janus: %v", err)
	}
	if jan.Stats().AssertFailures == 0 {
		t.Fatal("expected an assumption failure when the branch flipped")
	}
	if jan.Stats().Fallbacks == 0 {
		t.Fatal("expected imperative fallback")
	}
	// Compare final weights with imperative reference.
	imp := NewEngine(Config{Mode: Imperative, LR: cfg.LR, Seed: 11})
	if err := imp.Run(src); err != nil {
		t.Fatalf("imperative: %v", err)
	}
	if !tensor.AllClose(imp.Store.MustGet("w"), jan.Store.MustGet("w"), 1e-6) {
		t.Fatalf("weights diverged after fallback:\n imp %v\n jan %v",
			imp.Store.MustGet("w"), jan.Store.MustGet("w"))
	}
}

func TestTraceEngineBakesBranchIncorrectly(t *testing.T) {
	// Same flipping-branch program: the tracing engine keeps using the
	// stale branch (silently wrong), so its weights must DIVERGE from the
	// imperative reference — reproducing the Figure 6(a) failure mode.
	src := `
class Net:
    def __init__(self):
        self.training = True
    def loss(self, x):
        w = variable("w", [2, 1])
        h = matmul(x, w)
        if self.training:
            h = h * 2.0
        else:
            h = h * 0.5
        return reduce_mean(h ** 2.0)

net = Net()
x = constant([[1.0, 2.0]])
for i in range(16):
    if i == 8:
        net.training = False
    optimize(lambda: net.loss(x))
`
	tr := NewEngine(Config{Mode: Trace, LR: 0.1, Seed: 13})
	if err := tr.Run(src); err != nil {
		t.Fatalf("trace: %v", err)
	}
	imp := NewEngine(Config{Mode: Imperative, LR: 0.1, Seed: 13})
	if err := imp.Run(src); err != nil {
		t.Fatalf("imperative: %v", err)
	}
	if tensor.AllClose(imp.Store.MustGet("w"), tr.Store.MustGet("w"), 1e-9) {
		t.Fatal("trace engine unexpectedly produced correct results despite baked branch")
	}
}

func TestTraceEngineLosesStatePassing(t *testing.T) {
	// Object state write inside the traced function is dropped: self.acc
	// stays at its initial value (the Figure 6(b) LM failure).
	src := `
class M:
    def __init__(self):
        self.acc = zeros([1])
    def step(self):
        w = variable("w", [1, 1])
        self.acc = self.acc + 1.0
        return reduce_mean(w ** 2.0)

m = M()
for i in range(6):
    optimize(lambda: m.step())
print(reduce_sum(m.acc))
`
	tr := NewEngine(Config{Mode: Trace, LR: 0.1, Seed: 17})
	if err := tr.Run(src); err != nil {
		t.Fatalf("trace: %v", err)
	}
	imp := NewEngine(Config{Mode: Imperative, LR: 0.1, Seed: 17})
	if err := imp.Run(src); err != nil {
		t.Fatalf("imperative: %v", err)
	}
	impOut := strings.TrimSpace(imp.Output())
	trOut := strings.TrimSpace(tr.Output())
	if impOut == trOut {
		t.Fatalf("trace engine unexpectedly preserved state: %s", trOut)
	}
	if !strings.Contains(impOut, "6") {
		t.Fatalf("imperative accumulator wrong: %s", impOut)
	}
	// Janus, in contrast, preserves the state exactly.
	cfg := DefaultJanusConfig()
	cfg.Seed = 17
	jan := NewEngine(cfg)
	if err := jan.Run(src); err != nil {
		t.Fatalf("janus: %v", err)
	}
	if strings.TrimSpace(jan.Output()) != impOut {
		t.Fatalf("janus state %s != imperative %s", jan.Output(), impOut)
	}
}

func TestJanusRecursionViaInvoke(t *testing.T) {
	// Tree-structured recursion (the TreeNN pattern): recursive user function
	// over an object graph.
	src := `
class Node:
    def __init__(self, leaf, val, left, right):
        self.leaf = leaf
        self.val = val
        self.left = left
        self.right = right

def embed(node):
    w = variable("w", [1, 1])
    if node.leaf:
        return matmul(constant([[1.0]]) * node.val, w)
    return tanh(embed(node.left) + embed(node.right))

def loss_fn(tree):
    out = embed(tree)
    return reduce_mean(out ** 2.0)

l1 = Node(True, 1.0, None, None)
l2 = Node(True, 2.0, None, None)
l3 = Node(True, 3.0, None, None)
inner = Node(False, 0.0, l1, l2)
root = Node(False, 0.0, inner, l3)
for i in range(8):
    optimize(lambda: loss_fn(root))
`
	cfg := DefaultJanusConfig()
	cfg.Seed = 19
	jan := NewEngine(cfg)
	if err := jan.Run(src); err != nil {
		t.Fatalf("janus: %v", err)
	}
	if jan.Stats().GraphSteps == 0 {
		t.Fatalf("recursion not executed on graph: %+v (reason: %s)", jan.Stats(), jan.impReason())
	}
	imp := NewEngine(Config{Mode: Imperative, LR: cfg.LR, Seed: 19})
	if err := imp.Run(src); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(imp.Store.MustGet("w"), jan.Store.MustGet("w"), 1e-6) {
		t.Fatalf("recursive model diverged: %v vs %v", imp.Store.MustGet("w"), jan.Store.MustGet("w"))
	}
	// Tracing must refuse recursion outright.
	tr := NewEngine(Config{Mode: Trace, LR: 0.1, Seed: 19})
	err := tr.Run(src)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("trace engine should reject recursion, got %v", err)
	}
}

func TestJanusImperativeOnlyFunctionFallsBack(t *testing.T) {
	// randn() has no graph representation (whitelist): the function must stay
	// on the imperative executor and still train.
	src := `
def loss_fn():
    w = variable("w", [2, 1])
    x = randn([1, 2])
    return reduce_mean(matmul(x, w) ** 2.0)

for i in range(6):
    optimize(lambda: loss_fn())
`
	cfg := DefaultJanusConfig()
	cfg.Seed = 23
	e := NewEngine(cfg)
	if err := e.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Stats().GraphSteps != 0 {
		t.Fatal("non-convertible function ran on the graph")
	}
	if e.Stats().ConversionFails == 0 {
		t.Fatal("conversion failure not recorded")
	}
	if e.Stats().ImperativeSteps != 6 {
		t.Fatalf("imperative steps %d", e.Stats().ImperativeSteps)
	}
}

func TestJanusShapeChangeIsCacheMissNotError(t *testing.T) {
	// Batch size changes mid-training (last partial batch): each signature
	// gets its own specialized graph; correctness is preserved.
	src := `
def loss_fn(x):
    w = variable("w", [2, 1])
    return reduce_mean(matmul(x, w) ** 2.0)

big = constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
small = constant([[1.0, 2.0]])
for i in range(8):
    optimize(lambda: loss_fn(big))
for i in range(4):
    optimize(lambda: loss_fn(small))
`
	cfg := DefaultJanusConfig()
	cfg.Seed = 29
	e := NewEngine(cfg)
	if err := e.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Stats().Conversions < 2 {
		t.Fatalf("expected one graph per shape, got %d conversions", e.Stats().Conversions)
	}
	if e.Stats().AssertFailures != 0 {
		t.Fatalf("shape change caused assertion failure: %+v", e.Stats())
	}
}

func TestJanusBaseModeLoopOp(t *testing.T) {
	// With Unroll off (BASE), the RNN loop must convert to a Loop op and
	// still train identically to the imperative engine.
	src := `
def step(xs):
    w = variable("w", [2, 2])
    state = zeros([1, 2])
    outputs = []
    for x in xs:
        state = tanh(matmul(x, w) + state)
        outputs += [state]
    return reduce_mean(stack(outputs) ** 2.0)

xs = [constant([[1.0, 0.0]]), constant([[0.0, 1.0]])]
for i in range(10):
    optimize(lambda: step(xs))
`
	cfg := Config{Mode: Janus, LR: 0.1, ProfileIters: 3, Unroll: false, Specialize: false, Seed: 31}
	base := NewEngine(cfg)
	if err := base.Run(src); err != nil {
		t.Fatalf("base: %v", err)
	}
	if base.Stats().GraphSteps == 0 {
		t.Fatalf("BASE mode did not run graphs: %+v", base.Stats())
	}
	imp := NewEngine(Config{Mode: Imperative, LR: 0.1, Seed: 31})
	if err := imp.Run(src); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(imp.Store.MustGet("w"), base.Store.MustGet("w"), 1e-6) {
		t.Fatalf("BASE diverged: %v vs %v", imp.Store.MustGet("w"), base.Store.MustGet("w"))
	}
}

func TestOptimizationReportPopulated(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.Seed = 37
	e := NewEngine(cfg)
	if err := e.Run(linearProgram); err != nil {
		t.Fatal(err)
	}
	if len(e.Stats().OptimizeReport) == 0 {
		t.Fatal("no optimizer pass activity recorded")
	}
}

func TestDisableAssertsStillCorrectWhenAssumptionsHold(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.DisableAsserts = true
	cfg.Seed = 41
	e := NewEngine(cfg)
	loss := finalLossOf(t, e, linearProgram)
	if loss > 0.05 {
		t.Fatalf("loss %v", loss)
	}
}

// impReason exposes the first imperative-only reason for test diagnostics.
func (e *Engine) impReason() string {
	if rs := e.cache.imperativeReasons(); len(rs) > 0 {
		return rs[0]
	}
	return ""
}

func TestSharedCacheHitsAcrossEngines(t *testing.T) {
	// Two engines sharing one store and one graph cache, running the SAME
	// parsed program (shared AST, so function identities match): graphs
	// converted by the first engine must be cache hits for the second —
	// the property the serving pool is built on.
	prog, err := minipy.Parse(linearProgram)
	if err != nil {
		t.Fatal(err)
	}
	store := vars.NewStore()
	cache := NewGraphCache()
	cfg := DefaultJanusConfig()
	cfg.LR = 0.05
	cfg.Seed = 1
	e1 := NewEngineShared(cfg, store, cache)
	if err := e1.RunProgram(prog); err != nil {
		t.Fatalf("engine 1: %v", err)
	}
	if e1.Stats().Conversions == 0 {
		t.Fatalf("engine 1 never converted: %+v", e1.Stats())
	}
	e2 := NewEngineShared(cfg, store, cache)
	if err := e2.RunProgram(prog); err != nil {
		t.Fatalf("engine 2: %v", err)
	}
	s2 := e2.Stats()
	if s2.Conversions != 0 {
		t.Fatalf("engine 2 reconverted despite the shared cache: %+v", s2)
	}
	if s2.ImperativeSteps != 0 {
		t.Fatalf("engine 2 re-profiled despite the shared profile: %+v", s2)
	}
	if s2.CacheHits == 0 || s2.GraphSteps == 0 {
		t.Fatalf("engine 2 did not hit the shared cache: %+v", s2)
	}
	if cache.Funcs() == 0 || cache.Entries() == 0 {
		t.Fatalf("cache empty: funcs=%d entries=%d", cache.Funcs(), cache.Entries())
	}
}

func TestSharedEnginesConcurrentSteps(t *testing.T) {
	// Engines sharing store+cache training concurrently must stay race-free
	// and keep counters consistent (run under -race to check the former).
	prog, err := minipy.Parse(`
def loss_fn(x, y):
    w = variable("w", [1, 1])
    return mse(matmul(x, w), y)

x = constant([[0.0], [1.0], [2.0], [3.0]])
y = constant([[-3.0], [-1.0], [1.0], [3.0]])
for step in range(40):
    optimize(lambda: loss_fn(x, y))
`)
	if err != nil {
		t.Fatal(err)
	}
	store := vars.NewStore()
	cache := NewGraphCache()
	cfg := DefaultJanusConfig()
	cfg.LR = 0.01
	cfg.Seed = 9
	const n = 4
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngineShared(cfg, store, cache)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			errs[i] = e.RunProgram(prog)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	var total Stats
	for _, e := range engines {
		total.Add(e.Stats())
	}
	if got := total.ImperativeSteps + total.GraphSteps; got != n*40 {
		t.Fatalf("steps accounted %d, want %d", got, n*40)
	}
	if total.Conversions == 0 || total.CacheHits == 0 {
		t.Fatalf("no shared-cache activity: %+v", total)
	}
}

// gradSinkProg is a two-parameter regression step; step() is named so
// Explain can find its training entry.
const gradSinkProg = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    b = variable("b", [1])
    return mse(matmul(x, w) + b, y)

x = constant([[0.0], [1.0], [2.0], [3.0]])
y = constant([[-3.0], [-1.0], [1.0], [3.0]])

def step():
    return loss_fn(x, y)

__loss = optimize(step)
`

// emission is one gradient handed to a sink: the tensor itself and a copy
// taken at emission, so a later write to the emitted tensor shows up.
type emission struct {
	name      string
	g, atEmit *tensor.Tensor
}

// recordingSink returns a sink appending to *got.
func recordingSink(got *[]emission) func(string, *tensor.Tensor) {
	return func(name string, g *tensor.Tensor) {
		*got = append(*got, emission{name, g, g.Clone()})
	}
}

// TestGradSinkDivertsUpdatesAndStreamsPerTensor checks the parameter-server
// hook: with a sink installed, local parameters never move, every watched
// variable's gradient is emitted once per step, top layer first, and the
// Janus engine's steady state is the static training graph — whose
// emissions are never written afterwards and match the imperative engine's.
func TestGradSinkDivertsUpdatesAndStreamsPerTensor(t *testing.T) {
	run := func(mode Mode) (e *Engine, steps [][]emission, w0 *tensor.Tensor) {
		cfg := DefaultJanusConfig()
		cfg.Mode = mode
		cfg.ProfileIters = 2
		cfg.Seed = 7
		e = NewEngine(cfg)
		// Parse once so the step function keeps one AST identity across steps
		// (as the model harnesses do); re-parsing would defeat the graph cache.
		driver := minipy.MustParse(gradSinkProg)
		for i := 0; i < 8; i++ {
			var got []emission
			e.SetGradSink(recordingSink(&got))
			if err := e.RunProgram(driver); err != nil {
				t.Fatalf("%v step %d: %v", mode, i, err)
			}
			steps = append(steps, got)
			if i == 0 {
				w0 = e.Store.MustGet("w")
			}
		}
		return e, steps, w0
	}
	e, steps, w0 := run(Janus)
	_, ref, _ := run(Imperative)
	for i, got := range steps {
		if len(got) != 2 {
			t.Fatalf("step %d emitted %v, want b and w once each", i, names(got))
		}
		// Past profiling the static graph runs: top layer first.
		if i >= e.cfg.ProfileIters && (got[0].name != "b" || got[1].name != "w") {
			t.Fatalf("graph step %d emitted %v, want b then w", i, names(got))
		}
		for _, em := range got {
			if !tensor.Equal(em.g, em.atEmit) {
				t.Fatalf("step %d: %s written after emission: %v -> %v", i, em.name, em.atEmit, em.g)
			}
			if want := emitted(ref[i], em.name); want == nil || !tensor.AllClose(em.g, want, 1e-9) {
				t.Fatalf("step %d: %s = %v, imperative emitted %v", i, em.name, em.g, want)
			}
		}
	}
	// Local parameters never moved: updates were diverted to the sink.
	if got := e.Store.MustGet("w"); !tensor.AllClose(got, w0, 0) {
		t.Fatalf("local parameter updated despite grad sink: %v -> %v", w0, got)
	}
	if st := e.Stats(); st.GraphSteps == 0 {
		t.Fatalf("no graph steps under grad sink: %+v", st)
	}
	rep, err := e.Explain("step")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.States) != 1 || len(rep.States[0].Graphs) != 1 || !rep.States[0].Graphs[0].Static {
		t.Fatalf("steady state under a sink is not one static graph: %+v", rep.States)
	}
}

// emitted returns the gradient emitted for name, or nil.
func emitted(ems []emission, name string) *tensor.Tensor {
	for _, em := range ems {
		if em.name == name {
			return em.g
		}
	}
	return nil
}

func names(ems []emission) []string {
	var out []string
	for _, em := range ems {
		out = append(out, em.name)
	}
	return out
}

// TestGradSinkReadAtRunTime: the sink is not part of a compiled graph. A
// function warmed locally onto the graph path sends its next step to a
// newly installed sink without reconverting, and clearing the sink resumes
// local updates on the same graph.
func TestGradSinkReadAtRunTime(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 2
	cfg.Seed = 7
	e := NewEngine(cfg)
	driver := minipy.MustParse(gradSinkProg)
	step := func() {
		t.Helper()
		if err := e.RunProgram(driver); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	before := e.Stats()
	if before.GraphSteps == 0 {
		t.Fatalf("warm-up never reached the graph path: %+v", before)
	}
	w0 := e.Store.MustGet("w").Clone()

	var got []emission
	e.SetGradSink(recordingSink(&got))
	step()
	if len(got) != 2 {
		t.Fatalf("sink saw %v, want b and w", names(got))
	}
	if w := e.Store.MustGet("w"); !tensor.Equal(w, w0) {
		t.Fatalf("local parameter moved under a sink: %v -> %v", w0, w)
	}

	e.SetGradSink(nil)
	step()
	if len(got) != 2 {
		t.Fatalf("cleared sink still called: %v", names(got))
	}
	if w := e.Store.MustGet("w"); tensor.Equal(w, w0) {
		t.Fatal("local updates did not resume after clearing the sink")
	}
	after := e.Stats()
	if after.Conversions != before.Conversions || after.GraphSteps != before.GraphSteps+2 {
		t.Fatalf("toggling the sink reconverted or left the graph path: %+v -> %+v", before, after)
	}
}

// TestGraphCacheLRUEviction fills a capacity-bounded cache with distinct
// shape-specialized graphs and checks that the least-recently-hit entries
// are evicted, hot entries survive, and evicted signatures reconvert as
// ordinary misses.
func TestGraphCacheLRUEviction(t *testing.T) {
	const capacity = 2
	cache := NewGraphCacheCap(capacity)
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Seed = 3
	e := NewEngineShared(cfg, vars.NewStore(), cache)
	if err := e.Run(`
def predict(x):
    w = variable("w", [2, 2])
    return matmul(x, w)
`); err != nil {
		t.Fatalf("load: %v", err)
	}
	call := func(rows int) {
		t.Helper()
		x := tensor.Zeros(rows, 2)
		if _, err := e.Call("predict", []minipy.Value{minipy.NewTensor(x)}); err != nil {
			t.Fatalf("predict rows=%d: %v", rows, err)
		}
	}
	// Warm past profiling, then compile one graph per distinct batch size.
	for i := 0; i < 2; i++ {
		call(1)
	}
	for rows := 1; rows <= capacity+2; rows++ {
		call(rows)
		call(rows) // a hit, so recency reflects this order
	}
	// Capacity enforcement is asynchronous; run it to completion here.
	cache.enforceCapacity()
	if got := cache.Entries(); got > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", got, capacity)
	}
	if cache.Evictions() == 0 {
		t.Fatal("no evictions recorded")
	}
	// The most recent signature must have survived: hitting it again is a
	// cache hit, not a reconversion.
	before := e.Stats().Conversions
	call(capacity + 2)
	if got := e.Stats().Conversions; got != before {
		t.Fatalf("most-recent entry was evicted: conversions %d -> %d", before, got)
	}
	// An evicted signature reconverts as an ordinary miss.
	call(1)
	if got := e.Stats().Conversions; got != before+1 {
		t.Fatalf("evicted signature did not reconvert: conversions %d -> %d", before, got)
	}
}

// TestEngineCallMalformedArgsError drives feeds with broken shapes through
// Engine.Call after a graph is compiled: the kernel panic recovery in the
// executor must surface an error to the caller (the serving layer adds its
// own panic guard for the imperative paths).
func TestEngineCallMalformedArgsError(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Specialize = false // shape-generic graph: bad shapes reach the kernels
	cfg.Seed = 3
	e := NewEngine(cfg)
	if err := e.Run(`
def predict(x):
    w = variable("w", [2, 2])
    return matmul(x, w)
`); err != nil {
		t.Fatalf("load: %v", err)
	}
	good := tensor.Zeros(1, 2)
	for i := 0; i < 3; i++ {
		if _, err := e.Call("predict", []minipy.Value{minipy.NewTensor(good)}); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.GraphSteps == 0 {
		t.Fatalf("graph never compiled: %+v", st)
	}
	bad := tensor.Zeros(1, 5)
	if _, err := e.Call("predict", []minipy.Value{minipy.NewTensor(bad)}); err == nil {
		t.Fatal("malformed call succeeded")
	}
	// The engine still serves good requests afterwards.
	if _, err := e.Call("predict", []minipy.Value{minipy.NewTensor(good)}); err != nil {
		t.Fatalf("engine poisoned after malformed call: %v", err)
	}
}

// TestCancellationLandsInsideGraphExecution: with the run context threaded
// into the graph executor, a deadline that expires while a long Loop graph
// is executing surfaces ErrCanceled promptly — inside the execution, not at
// the next step boundary.
func TestCancellationLandsInsideGraphExecution(t *testing.T) {
	cfg := Config{Mode: Janus, LR: 0.1, ProfileIters: 1,
		Seed: 7, PyOverheadNs: -1, Unroll: false, Specialize: true}
	e := NewEngine(cfg)
	if err := e.Run(`
def spin():
    acc = constant(0.0)
    for i in range(80000):
        acc = acc + 1.0
    return acc
`); err != nil {
		t.Fatal(err)
	}
	// First call profiles imperatively; the second converts and executes the
	// structured Loop graph.
	if _, err := e.CallNamed(context.Background(), "spin", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := e.CallNamed(ctx, "spin", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v — did not land inside the execution", elapsed)
	}

	// A custom cancellation cause (context.WithCancelCause) must map to
	// ErrCanceled too, with the cause preserved in the chain.
	cause := errors.New("shutting down")
	cctx, ccancel := context.WithCancelCause(context.Background())
	time.AfterFunc(30*time.Millisecond, func() { ccancel(cause) })
	_, err = e.CallNamed(cctx, "spin", nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("custom-cause cancellation: got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("custom cause lost from the chain: %v", err)
	}
}
