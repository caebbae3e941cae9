package main

import (
	"context"
	"fmt"
	"math"

	janus "repro"
	"repro/internal/data"
	"repro/internal/minipy"
)

// trainWorkload is a single-client fn.Call train step on a local Runtime:
// train-cnn and train-tree, which differ in program and inputs only.
type trainWorkload struct {
	wname   string
	program string
	perOp   int // items one op trains on
	// gen draws the input pool from the seed and returns the feeds of each
	// pool slot, an injection hook for inputs that are not tensors, and the
	// input hash.
	gen func(w *trainWorkload, seed uint64) (feeds []janus.Feeds, inject func(*janus.Runtime), hash string)
	// ladder builds the lower rungs of the traced run.
	ladder func(w *trainWorkload) *ladderSpec

	feeds  []janus.Feeds
	inject func(*janus.Runtime)
	trees  []*data.Tree // train-tree only
	hash   string
	ref    []float64 // imperative losses of ops 0..refOps-1
}

func (w *trainWorkload) name() string      { return w.wname }
func (w *trainWorkload) clients() int      { return 1 }
func (w *trainWorkload) replicas() int     { return 1 }
func (w *trainWorkload) inputHash() string { return w.hash }

func (w *trainWorkload) items() int { return w.perOp }

func (w *trainWorkload) feed(i int) janus.Feeds { return w.feeds[i%len(w.feeds)] }

// runtime builds a fresh Runtime with the program compiled and the train
// step resolved. The simulated CPython dispatch delay is switched off: the
// benchmark measures this system, not a model of another one.
func (w *trainWorkload) runtime(engine janus.Engine) (*janus.Runtime, *janus.Function, error) {
	rt := janus.New(janus.Options{
		Engine: engine, Workers: computeThreads, Seed: modelSeed, LearningRate: learningRate,
	})
	rt.CoreEngine().Local.OpDelay = 0
	if w.inject != nil {
		w.inject(rt)
	}
	prog, err := rt.Compile(w.program)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", w.wname, err)
	}
	fn, err := prog.Func("train_step")
	if err != nil {
		return nil, nil, err
	}
	return rt, fn, nil
}

func trainLoss(fn *janus.Function, feeds janus.Feeds) (float64, error) {
	out, err := fn.Call(context.Background(), feeds)
	if err != nil {
		return 0, err
	}
	return out.Scalar()
}

func (w *trainWorkload) prepare(seed uint64) error {
	w.feeds, w.inject, w.hash = w.gen(w, seed)
	ref, err := w.reference(refOps)
	w.ref = ref
	return err
}

// reference trains n ops on the imperative engine: the independent path
// every graph-mode loss is compared against.
func (w *trainWorkload) reference(n int) ([]float64, error) {
	_, fn, err := w.runtime(janus.EngineImperative)
	if err != nil {
		return nil, err
	}
	ref := make([]float64, n)
	for i := range ref {
		if ref[i], err = trainLoss(fn, w.feed(i)); err != nil {
			return nil, fmt.Errorf("%s: reference op %d: %w", w.wname, i, err)
		}
	}
	return ref, nil
}

func (w *trainWorkload) boot() (system, error) {
	rt, fn, err := w.runtime(janus.EngineJanus)
	if err != nil {
		return nil, err
	}
	s := &trainSystem{w: w, rt: rt, fn: fn}
	for ; s.next < refOps; s.next++ {
		if err := s.op(0, s.next); err != nil {
			return nil, err
		}
		if rt.Stats().GraphSteps > 0 {
			s.profiled = s.next
			s.next++
			return s, nil
		}
	}
	return nil, fmt.Errorf("%s: no op reached the graph path in %d ops", w.wname, refOps)
}

type trainSystem struct {
	w    *trainWorkload
	rt   *janus.Runtime
	fn   *janus.Function
	next int // first op boot did not run
	// profiled is how many ops ran imperatively before the first graph op.
	profiled int
}

func (s *trainSystem) op(_, i int) error {
	loss, err := trainLoss(s.fn, s.w.feed(i))
	if err != nil {
		return err
	}
	return s.w.checkLoss(i, loss, 1e-9)
}

// checkLoss compares op i's loss with the imperative reference while one
// exists (within tol, relative), and requires any later loss to be finite.
func (w *trainWorkload) checkLoss(i int, loss, tol float64) error {
	if i < len(w.ref) {
		if !closeTo(loss, w.ref[i], tol) {
			return fmt.Errorf("loss %.12g is not within %g of the imperative reference %.12g", loss, tol, w.ref[i])
		}
	} else if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("loss is %v", loss)
	}
	return nil
}

func (s *trainSystem) booted() int { return s.next }

func (s *trainSystem) finish() error                    { return nil }
func (s *trainSystem) engineStats() (janus.Stats, bool) { return s.rt.Stats(), true }
func (s *trainSystem) close()                           {}

func newTrainCNN() *trainWorkload {
	return &trainWorkload{
		wname:   "train-cnn",
		program: cnnProgram,
		perOp:   cnnBatch,
		gen: func(_ *trainWorkload, seed uint64) ([]janus.Feeds, func(*janus.Runtime), string) {
			batches, hash := genImageBatches(seed, cnnBatches)
			feeds := make([]janus.Feeds, len(batches))
			for i, b := range batches {
				feeds[i] = janus.Feeds{"x": b.x, "y": b.y}
			}
			return feeds, nil, hash
		},
		ladder: cnnLadder,
	}
}

// treePoolValue turns generated trees into the heap objects the program
// walks, bound to the module-level name tree_pool.
func treePoolValue(trees []*data.Tree) *minipy.ListVal {
	cls := &minipy.ClassVal{Name: "TreeNode", Methods: map[string]*minipy.FuncVal{}}
	objs := make([]minipy.Value, len(trees))
	for i, t := range trees {
		objs[i] = t.ToMinipy(cls)
	}
	return &minipy.ListVal{Items: objs}
}

func newTrainTree() *trainWorkload {
	return &trainWorkload{
		wname:   "train-tree",
		program: treeProgram,
		perOp:   treesPerOp,
		gen: func(w *trainWorkload, seed uint64) ([]janus.Feeds, func(*janus.Runtime), string) {
			trees, hash := genTrees(seed, treePoolSize)
			w.trees = trees
			// Op i trains on pool trees [16i, 16i+16): consecutive windows,
			// so every seed sees the same cells per op in the same order.
			feeds := make([]janus.Feeds, treePoolSize/treesPerOp)
			for i := range feeds {
				idx := make([]float64, treesPerOp)
				for j := range idx {
					idx[j] = float64(i*treesPerOp + j)
				}
				feeds[i] = janus.Feeds{"idx": janus.FromSlice(idx)}
			}
			inject := func(rt *janus.Runtime) {
				// Trees are heap objects, not tensors, so they cannot ride
				// in Feeds; a fresh copy is bound per runtime because graph
				// execution reads them through the heap.
				rt.CoreEngine().Define("tree_pool", treePoolValue(trees))
			}
			return feeds, inject, hash
		},
		ladder: treeLadder,
	}
}

// imperativeOpMs is the median op time of the imperative engine: what setup
// pays per profiling iteration, and the ceiling an op falls back to.
func (w *trainWorkload) imperativeOpMs() (float64, error) {
	_, fn, err := w.runtime(janus.EngineImperative)
	if err != nil {
		return 0, err
	}
	win := loop{clients: 1, items: w.items(), fixedOps: 40, op: func(_, i int) error {
		_, err := trainLoss(fn, w.feed(i))
		return err
	}}.run()
	return p50(win), win.firstErr
}

// engineCounters fills the core.* count metrics from engine stats.
func engineCounters(m map[string]float64, hits, misses, conversions, fallbacks, assertFailures int) {
	if hits+misses > 0 {
		m["core.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m["core.conversions"] = float64(conversions)
	m["core.fallbacks"] = float64(fallbacks)
	m["core.assert_failures"] = float64(assertFailures)
}

// layers: fn.Call -> core.Engine.CallNamed on the same engine -> exec.Run on
// a harness-built graph -> kernels.
func (w *trainWorkload) layers(sys system, t *tracer) (map[string]float64, error) {
	s := sys.(*trainSystem)
	m := map[string]float64{}
	first := refOps
	plain := t.window(1, w.items(), first, s.op)
	top := t.measure("janus.fn_call", true, 1, w.items(), first, s.op)
	if top.failed > 0 {
		return nil, fmt.Errorf("traced window: %w", top.firstErr)
	}
	opMs := p50(top)
	// The harness's spans are built from timestamps every run takes anyway,
	// so the traced and plain windows run the same code on this workload.
	topRung(m, plain, top)

	eng := s.rt.CoreEngine()
	vals := make([]map[string]minipy.Value, len(w.feeds))
	for i, f := range w.feeds {
		vals[i] = make(map[string]minipy.Value, len(f))
		for name, t := range f {
			vals[i][name] = minipy.NewTensor(t)
		}
	}
	ctx := context.Background()
	coreMs := p50(t.measure("core.call_named", false, 1, w.items(), first, func(_, i int) error {
		_, err := eng.CallNamed(ctx, "train_step", vals[i%len(vals)])
		return err
	}))
	low, err := lowerRungs(t, w.ladder(w), first, m)
	if err != nil {
		return nil, err
	}
	m["janus.call_overhead_us"] = (opMs - coreMs) * 1e3
	m["core.call_overhead_us"] = (coreMs - low.graphMs) * 1e3
	m["profile.iters"] = float64(s.profiled)
	if ps := eng.TensorPoolStats(); ps.Gets > 0 {
		m["exec.pool_hit_rate"] = float64(ps.Hits) / float64(ps.Gets)
	}
	st := s.rt.Stats()
	engineCounters(m, st.CacheHits, st.CacheMisses, st.Conversions, st.Fallbacks, st.AssertFailures)
	t.attribute(m, opMs, layerTime{"janus", opMs - coreMs}, layerTime{"core", coreMs - low.graphMs},
		layerTime{"exec", low.exec}, layerTime{"autodiff", low.autodiff}, layerTime{"tensor", low.kernels})
	m["minipy.imperative_op_ms"], err = w.imperativeOpMs()
	return m, err
}

func cnnLadder(w *trainWorkload) *ladderSpec {
	return &ladderSpec{
		program: cnnProgram, lossFn: "cnn_loss", clients: 1, train: true,
		args: func(i int) []minipy.Value {
			f := w.feed(i)
			return []minipy.Value{minipy.NewTensor(f["x"]), minipy.NewTensor(f["y"])}
		},
		script: func() []kernelCall { return cnnKernels(cnnBatch) },
	}
}

func treeLadder(w *trainWorkload) *ladderSpec {
	pool := treePoolValue(w.trees)
	internal, leaves := 0, 0
	for _, t := range w.trees {
		i, l := treeNodes(t)
		internal, leaves = internal+i, leaves+l
	}
	windows := treePoolSize / treesPerOp
	return &ladderSpec{
		program: treeProgram, lossFn: "tlstm_loss", clients: 1, train: true,
		args: func(i int) []minipy.Value {
			at := (i % windows) * treesPerOp
			return []minipy.Value{&minipy.ListVal{Items: pool.Items[at : at+treesPerOp]}}
		},
		// The mean op: every window of 16 trees holds nearly the same number
		// of cells, and the leaf counts do not depend on the seed.
		script: func() []kernelCall { return treeKernels(internal/windows, leaves/windows, treesPerOp) },
	}
}
