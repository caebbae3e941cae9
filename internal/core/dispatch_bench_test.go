package core

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/minipy"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// dispatchProgram chains dispatchOps framework ops so per-call time divided
// by the op count isolates the interpreter's per-op dispatch cost.
const dispatchOps = 32

func dispatchSrc() string {
	src := "def f(x):\n    h = x + x\n"
	for i := 1; i < dispatchOps-1; i++ {
		if i%2 == 0 {
			src += "    h = h + x\n"
		} else {
			src += "    h = relu(h)\n"
		}
	}
	src += "    return reduce_sum(h)\n"
	return src
}

// BenchmarkDispatchOverhead measures the REAL per-op dispatch cost of the
// imperative interpreter (OpDelay simulation disabled): parse-once function,
// repeated calls, time divided by framework ops per call. Subtracting
// BenchmarkDispatchKernelOnly's per-op kernel time gives the pure dispatch
// overhead that DESIGN.md §5 calibrates PyOverheadNs against.
func BenchmarkDispatchOverhead(b *testing.B) {
	e := NewEngine(Config{Mode: Imperative, LR: 0.1, PyOverheadNs: -1})
	if err := e.Run(dispatchSrc()); err != nil {
		b.Fatal(err)
	}
	x := minipy.NewTensor(tensor.Full(0.5, 8, 8))
	args := []minipy.Value{x}
	if _, err := e.Call("f", args); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Call("f", args); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(dispatchOps)
	b.ReportMetric(perOp, "ns/frameworkop")
}

// BenchmarkDispatchKernelOnly runs the same op sequence through OpDef.Eval,
// the call the interpreter makes for each op — the compute floor beneath it.
func BenchmarkDispatchKernelOnly(b *testing.B) {
	x := tensor.Full(0.5, 8, 8)
	eval := func(op string, in ...graph.Val) graph.Val {
		v, err := graph.Lookup(op).Eval(&graph.Node{Op: op}, in)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eval("Add", x, x)
		for j := 1; j < dispatchOps-1; j++ {
			if j%2 == 0 {
				h = eval("Add", h, x)
			} else {
				h = eval("ReLU", h)
			}
		}
		eval("Sum", h)
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(dispatchOps)
	b.ReportMetric(perOp, "ns/frameworkop")
}

// BenchmarkGraphReplayPerOp is the symbolic-executor counterpart: steady-
// state graph replay of the same chain via a default-config Janus engine,
// per framework op.
func BenchmarkGraphReplayPerOp(b *testing.B) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.PyOverheadNs = -1
	e := NewEngine(cfg)
	if err := e.Run(dispatchSrc()); err != nil {
		b.Fatal(err)
	}
	x := minipy.NewTensor(tensor.Full(0.5, 8, 8))
	args := []minipy.Value{x}
	for i := 0; i < 3; i++ { // profile + convert
		if _, err := e.Call("f", args); err != nil {
			b.Fatal(err)
		}
	}
	if e.Stats().GraphSteps == 0 {
		b.Fatal("chain never reached graph execution")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Call("f", args); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(dispatchOps)
	b.ReportMetric(perOp, "ns/frameworkop")
}

// TestPooledEnginesSharedCacheConcurrent is the serving-pool shape: N
// engines, one store, one GraphCache, each engine replaying pooled graphs on
// its own goroutine. Run under -race in CI. Per-engine pools must never
// exchange buffers — every call must keep returning the exact expected
// value.
func TestPooledEnginesSharedCacheConcurrent(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	store := vars.NewStore()
	cache := NewGraphCache()
	const engines = 4
	const callsPer = 60
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for w := 0; w < engines; w++ {
		e := NewEngineShared(cfg, store, cache)
		if err := e.Run("def scaled(x):\n    return relu(x + x) * x\n"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, e *Engine) {
			defer wg.Done()
			base := float64(w + 1)
			x := minipy.NewTensor(tensor.Full(base, 4, 4))
			want := (base + base) * base // relu(2b)*b for b > 0
			for i := 0; i < callsPer; i++ {
				out, err := e.Call("scaled", []minipy.Value{x})
				if err != nil {
					errs <- err
					return
				}
				got := out.(*minipy.TensorVal).T()
				for _, v := range got.Data() {
					if v != want {
						errs <- errValue{w, i, v, want}
						return
					}
				}
			}
		}(w, e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Entries() == 0 {
		t.Fatal("shared cache never populated")
	}
}

type errValue struct {
	worker, call int
	got, want    float64
}

func (e errValue) Error() string {
	return "engine buffer corruption"
}
