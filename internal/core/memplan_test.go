package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/minipy"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// lenetProgram is a small conv net training step — the kernels the memory
// plan accelerates (conv, pool, matmul, elementwise, cross-entropy).
const lenetProgram = `
def loss_fn(x, y):
    c1 = variable("c1", [4, 1, 3, 3])
    fc = variable("fc", [16, 4])
    b = variable("b", [4])
    h = relu(conv2d(x, c1, stride=1, pad=1))
    h = max_pool(h, 2, 2)
    flat = reshape(h, [4, 16])
    logits = matmul(flat, fc) + b
    return cross_entropy(logits, y)

x = randn([4, 1, 4, 4])
y = one_hot([0, 1, 2, 3], 4)
for step in range(40):
    optimize(lambda: loss_fn(x, y))
`

// trainedState runs src on a fresh engine and returns per-step losses plus
// the final parameter store.
func trainedState(t *testing.T, cfg Config, src string) ([]float64, map[string][]float64, Stats) {
	t.Helper()
	e := NewEngine(cfg)
	var losses []float64
	e.Define("record", &minipy.BuiltinVal{Name: "record", Fn: func(it *minipy.Interp, args []minipy.Value, kwargs map[string]minipy.Value) (minipy.Value, error) {
		tv := args[0].(*minipy.TensorVal)
		losses = append(losses, tv.T().Item())
		return minipy.None, nil
	}})
	if err := e.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	params := map[string][]float64{}
	for _, name := range e.Store.Names() {
		v, _ := e.Store.Get(name)
		params[name] = append([]float64(nil), v.Data()...)
	}
	return losses, params, e.Stats()
}

// TestMemoryPlanEngineEquivalence trains the same conv model with the plan
// on and off, and with the pass pipeline on and off: final parameters must be
// bit-identical, and the plan-on engine must show real pool traffic.
func TestMemoryPlanEngineEquivalence(t *testing.T) {
	src := lenetProgram
	base := DefaultJanusConfig()
	base.LR = 0.05
	base.Seed = 7

	off := base
	off.NoMemoryPlan = true
	_, paramsOff, statsOff := trainedState(t, off, src)
	if statsOff.PoolGets != 0 {
		t.Fatalf("plan-off engine rented pool buffers: %+v", statsOff)
	}

	on := base
	_, paramsOn, statsOn := trainedState(t, on, src)
	if statsOn.PoolGets == 0 || statsOn.PoolHits == 0 {
		t.Fatalf("plan-on engine shows no pool traffic: gets=%d hits=%d",
			statsOn.PoolGets, statsOn.PoolHits)
	}
	if statsOn.GraphSteps == 0 {
		t.Fatal("model never reached graph execution")
	}
	sameParams(t, "plan-on vs plan-off", paramsOn, paramsOff)

	// The pass pipeline is as invisible as the plan: with every pass off the
	// same bits come out.
	noPasses := base
	noPasses.DisablePasses = []string{"all"}
	_, paramsNoPasses, _ := trainedState(t, noPasses, src)
	sameParams(t, "passes-on vs passes-off", paramsOn, paramsNoPasses)
}

// sameParams requires two trained parameter sets to be bit-identical.
func sameParams(t *testing.T, what string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: param sets differ: %d vs %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing param %q", what, name)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: param %q[%d]: %v != %v", what, name, i, g[i], w[i])
			}
		}
	}
}

// TestSigHashMemoizedLookups: repeated Calls with a repeated concrete
// signature are served by the per-function hash index; a new signature goes
// through the slow path once, then hits.
func TestSigHashMemoizedLookups(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	e := NewEngine(cfg)
	if err := e.Run(`
def double(x):
    return x + x
`); err != nil {
		t.Fatal(err)
	}
	call := func(rows int) {
		t.Helper()
		arg := minipy.NewTensor(tensor.Full(2, rows, 3))
		out, err := e.Call("double", []minipy.Value{arg})
		if err != nil {
			t.Fatal(err)
		}
		got := out.(*minipy.TensorVal).T()
		if got.At(0, 0) != 4 {
			t.Fatalf("double returned %v", got)
		}
	}
	for i := 0; i < 6; i++ {
		call(2)
	}
	s1 := e.Stats()
	if s1.SigHashHits == 0 {
		t.Fatalf("no signature-hash hits after repeated calls: %+v", s1)
	}
	if s1.SigHashHits >= s1.CacheHits+1 {
		t.Fatalf("hash hits %d exceed cache hits %d", s1.SigHashHits, s1.CacheHits)
	}
	// A different shape converts separately, then memoizes too.
	for i := 0; i < 4; i++ {
		call(5)
	}
	s2 := e.Stats()
	if s2.SigHashHits <= s1.SigHashHits {
		t.Fatalf("second signature never hit the hash index: %+v", s2)
	}
}

// TestSigHashInvalidatedOnEviction: evicting a compiled graph (capacity LRU)
// must drop its hash-index entries — the next call reconverts instead of
// running a stale graph.
func TestSigHashInvalidatedOnEviction(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	e := NewEngineShared(cfg, vars.NewStore(), NewGraphCacheCap(1))
	if err := e.Run(`
def double(x):
    return x + x
`); err != nil {
		t.Fatal(err)
	}
	call := func(rows int, want float64) {
		t.Helper()
		arg := minipy.NewTensor(tensor.Full(want/2, rows, 2))
		out, err := e.Call("double", []minipy.Value{arg})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(*minipy.TensorVal).T().At(0, 0); got != want {
			t.Fatalf("double(%d rows) = %v, want %v", rows, got, want)
		}
	}
	// Alternate two signatures against a capacity-1 cache: every flip can
	// evict the other entry, and the hash index must follow.
	for i := 0; i < 8; i++ {
		call(2, 6)
		call(3, 10)
	}
	waitForEvictions(t, e)
	if e.Cache().Entries() > 1 {
		t.Fatalf("capacity not enforced: %d entries", e.Cache().Entries())
	}
}

func waitForEvictions(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if e.Cache().Entries() <= e.Cache().Capacity() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

var _ = fmt.Sprintf

// TestForwardControlFlowPassesInvisible: a forward-only graph never trains,
// so one with Invoke or Switch/Merge gets the structural passes too. Calls
// through the compiled graph must return the same bits with every pass off.
func TestForwardControlFlowPassesInvisible(t *testing.T) {
	const src = `
def chain(x, n):
    w = variable("w", [3, 3])
    h = tanh(matmul(x, w)) * 2.0 + 1.0
    if n <= 0:
        return h
    return h * 0.5 + chain(h, n - 1)

def gate(x):
    w = variable("w", [3, 3])
    h = matmul(x, w)
    if reduce_sum(h) > 0.0:
        h = relu(h) * 2.0 + 1.0
    else:
        h = tanh(h) - 1.0
    return h
`
	x := func(sign float64) minipy.Value {
		return minipy.NewTensor(tensor.FromRows([][]float64{{sign, 0.5, -0.25}, {0.75, sign, 1}}))
	}
	cases := []struct {
		fn, op string
		args   func(i int) []minipy.Value
	}{
		{"chain", "Invoke", func(i int) []minipy.Value {
			return []minipy.Value{x(1), minipy.NewTensor(tensor.Scalar(float64(i%3 + 1)))}
		}},
		{"gate", "Merge", func(i int) []minipy.Value { return []minipy.Value{x(float64(1-2*(i%2)) * 4)} }},
	}
	for _, c := range cases {
		t.Run(c.fn, func(t *testing.T) {
			outs := map[bool][]*tensor.Tensor{}
			for _, noPasses := range []bool{false, true} {
				cfg := DefaultJanusConfig()
				cfg.Seed = 5
				if noPasses {
					cfg.DisablePasses = []string{"all"}
				}
				e := NewEngine(cfg)
				if err := e.Run(src); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 8; i++ {
					out, err := e.Call(c.fn, c.args(i))
					if err != nil {
						t.Fatalf("call %d: %v", i, err)
					}
					outs[noPasses] = append(outs[noPasses], out.(*minipy.TensorVal).T())
				}
				if e.Stats().GraphSteps == 0 {
					t.Fatalf("no call ran a graph: %+v", e.Stats())
				}
				ops := 0
				for _, fs := range e.cache.states() {
					for _, en := range fs.entries {
						ops += en.res.Graph.CountOps()[c.op]
					}
				}
				if ops == 0 {
					t.Fatalf("no compiled graph holds %s", c.op)
				}
				if fused := e.Stats().OptimizeReport["fuse"]; !noPasses && fused == 0 {
					t.Fatal("the structural fuse pass never fired")
				}
			}
			for i, got := range outs[false] {
				if !tensor.Equal(got, outs[true][i]) {
					t.Fatalf("call %d: passes on %v, off %v", i, got, outs[true][i])
				}
			}
		})
	}
}
