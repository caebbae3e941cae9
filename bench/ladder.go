package main

import (
	"fmt"
	"time"

	"repro/internal/autodiff"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
	"repro/internal/minipy"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// The bypass ladder measures layers from outside: the same op is entered at
// the public API, then one layer lower, and so on down to bare kernels. Each
// rung is timed by the harness around the call; a layer's self time is its
// rung minus the rung below.

// tracer runs the rungs of one traced run and records their spans.
type tracer struct {
	rec      *recorder
	seconds  float64 // wall budget of the whole traced run
	fixedOps int     // when > 0 every rung runs exactly this many ops
	// parents maps op index -> span of that op on the rung above.
	parents map[int]int
	// shares is each layer's share of the op's wall time, for the report.
	shares map[string]float64
}

// rungShare is the part of the budget one rung gets: two top-rung windows
// (untraced, traced) and at most four lower rungs.
const rungShare = 1.0 / 6

// window runs one rung closed-loop for its share of the budget without
// recording spans.
func (t *tracer) window(clients, items, firstOp int, op func(client, i int) error) *window {
	return loop{
		clients: clients, items: items, firstOp: firstOp, op: op, fixedOps: t.fixedOps,
		length: time.Duration(t.seconds * rungShare * float64(time.Second)),
	}.run()
}

// measure runs one rung and records a span per op. Rungs below the top are
// replays parented to the same op on the rung above.
func (t *tracer) measure(name string, top bool, clients, items, firstOp int, op func(client, i int) error) *window {
	w := t.window(clients, items, firstOp, op)
	if top {
		t.parents = nil
	}
	ids := make(map[int]int, maxRungSpans)
	for k, s := range w.samples() {
		if k == maxRungSpans {
			break
		}
		ids[s.index] = t.rec.add(name, s.start, s.end, t.parents[s.index], s.index, !top)
	}
	t.parents = ids
	return w
}

// maxRungSpans caps the spans kept per rung: a rung of microsecond ops would
// otherwise write a span file of hundreds of megabytes. The rung's statistics
// still come from every op.
const maxRungSpans = 4096

// topRung fills the two metrics that compare the plain and the traced window
// of the op's public path.
func topRung(m map[string]float64, plain, traced *window) {
	ps := plain.stats()
	m["op_p99_ms"] = ps.p99
	m["obs.trace_overhead_frac"] = 1 - traced.stats().rate/ps.rate
}

// p50 is the median op latency of a window in ms.
func p50(w *window) float64 { return w.stats().p50 }

// kernel phases: where in an op a kernel runs. A static graph runs all three
// inside exec.Run; a tape-mode graph runs forward kernels in exec.Run,
// backward kernels in Tape.Gradient and the update in the optimizer.
const (
	phaseForward = iota
	phaseBackward
	phaseUpdate
)

// kernelTimes is one execution of a kernel script, in ms.
type kernelTimes struct {
	total, conv2d, matmul float64
	byPhase               [3]float64
}

func runScript(script []kernelCall) kernelTimes {
	var kt kernelTimes
	for _, k := range script {
		t0 := time.Now()
		for r := 0; r < k.repeat; r++ {
			k.run()
		}
		ms := msBetween(t0, time.Now())
		kt.total += ms
		kt.byPhase[k.phase] += ms
		switch k.kind {
		case "conv2d":
			kt.conv2d += ms
		case "matmul":
			kt.matmul += ms
		}
	}
	return kt
}

// ladderSpec is what the lower rungs of a workload need: the function the
// engine converts, its arguments per op, and the op's kernel script.
type ladderSpec struct {
	program string
	lossFn  string
	args    func(i int) []minipy.Value
	// script builds one op's kernel calls with their own buffers.
	script func() []kernelCall
	// clients is how many engines run this op at once in the workload; the
	// lower rungs run as many copies side by side so they share the cores
	// the same way.
	clients int
	train   bool
	// stream builds the graph the way a cluster replica does: gradients
	// leave through a sink as backprop finalizes them (tape mode) and no
	// local update is applied.
	stream bool
}

// coldTimes are the direct timings of the cold path, each the median of
// coldReps fresh runs, plus the counts read off the graph it produced.
type coldTimes struct {
	parseMs, convertMs, passesMs, memplanMs float64
	graphNodes, rewrites, nodesAfter        int
	inplaceFrac                             float64
}

const coldReps = 5

// treeHeap lets the executor read the tree objects of train-tree. Only reads
// occur: the model never writes to its inputs.
type treeHeap struct{}

func heapVal(v minipy.Value) graph.Val {
	switch x := v.(type) {
	case *minipy.TensorVal:
		return x.T()
	case minipy.IntVal:
		return int(x)
	case minipy.FloatVal:
		return float64(x)
	case minipy.BoolVal:
		return bool(x)
	case minipy.StrVal:
		return string(x)
	case minipy.NoneVal:
		return nil
	}
	return v
}

func (treeHeap) GetAttr(obj any, name string) (any, error) {
	o, ok := obj.(*minipy.ObjectVal)
	if !ok {
		return nil, fmt.Errorf("bench: GetAttr on %T", obj)
	}
	return heapVal(o.Attrs[name]), nil
}

func (treeHeap) GetSubscr(obj, key any) (any, error) {
	l, ok := obj.(*minipy.ListVal)
	i, err := graph.AsInt(key)
	if !ok || err != nil || i < 0 || i >= len(l.Items) {
		return nil, fmt.Errorf("bench: GetSubscr %T[%v]", obj, key)
	}
	return heapVal(l.Items[i]), nil
}

func (treeHeap) SetAttr(obj any, name string, v any) error {
	return fmt.Errorf("bench: unexpected heap write %s", name)
}

func (treeHeap) SetSubscr(obj, key, v any) error {
	return fmt.Errorf("bench: unexpected heap write [%v]", key)
}

// builtGraph is a graph the harness compiled itself with the same calls the
// engine makes (profile, ConvertCall, FinalizeTraining, Pipeline.Run), so
// exec.Run can be entered with no engine around it.
type builtGraph struct {
	spec   *ladderSpec
	engine *core.Engine // imperative: owns the interpreter and the store
	fn     *minipy.FuncVal
	res    *convert.Result
	pool   *tensor.Pool
	arena  *exec.Arena
	stats  exec.Stats
	opt    *autodiff.SGD
}

// buildGraph runs the cold path once, timing each stage.
func buildGraph(spec *ladderSpec) (*builtGraph, coldTimes, error) {
	var ct coldTimes
	ms := func(t0 time.Time) float64 { return msBetween(t0, time.Now()) }
	t0 := time.Now()
	if _, err := minipy.Parse(spec.program); err != nil {
		return nil, ct, err
	}
	ct.parseMs = ms(t0)
	e := core.NewEngine(core.Config{
		Mode: core.Imperative, LR: learningRate, Workers: computeThreads, Seed: modelSeed, PyOverheadNs: -1,
	})
	if err := e.Run(spec.program); err != nil {
		return nil, ct, err
	}
	fn, err := e.LookupFunc(spec.lossFn)
	if err != nil {
		return nil, ct, err
	}
	prof := profile.New()
	e.Local.Prof = prof
	for i := 0; i < profileIters; i++ {
		e.Local.Tape = autodiff.NewTape()
		if _, err := e.Local.CallFunction(fn, spec.args(i)); err != nil {
			return nil, ct, fmt.Errorf("profiling %s: %w", spec.lossFn, err)
		}
		prof.EndIteration()
	}
	e.Local.Prof, e.Local.Tape = nil, nil
	t0 = time.Now()
	res, err := convert.ConvertCall(fn, spec.args(profileIters), prof, e.Local.Builtins,
		convert.Options{Unroll: true, Specialize: true})
	if err != nil {
		return nil, ct, fmt.Errorf("converting %s: %w", spec.lossFn, err)
	}
	if spec.train {
		if spec.stream {
			res.Dynamic = true
		} else if err := convert.FinalizeTraining(res, learningRate); err != nil {
			res.Dynamic = true
		}
	}
	ct.convertMs = ms(t0)
	ct.graphNodes = res.Graph.NumNodes()
	t0 = time.Now()
	rep, err := passes.New(passes.Options{NoStructural: res.Dynamic}).Run(res.Graph)
	if err != nil {
		return nil, ct, err
	}
	ct.passesMs = ms(t0)
	ct.rewrites = rep.Total()
	ct.nodesAfter = res.Graph.NumNodes()
	t0 = time.Now()
	mp := graph.BuildMemoryPlan(res.Graph)
	ct.memplanMs = ms(t0)
	inplace := 0
	for _, in := range mp.InPlace {
		if in >= 0 {
			inplace++
		}
	}
	ct.inplaceFrac = float64(inplace) / float64(len(mp.InPlace))
	return &builtGraph{
		spec: spec, engine: e, fn: fn, res: res,
		pool: tensor.NewPool(), arena: exec.NewArena(), opt: &autodiff.SGD{LR: learningRate},
	}, ct, nil
}

// buildGraphMedian repeats the cold path and keeps the last graph with the
// median of each stage's time.
func buildGraphMedian(spec *ladderSpec) (*builtGraph, coldTimes, error) {
	var parse, conv, pass, mem []float64
	var bg *builtGraph
	var ct coldTimes
	for r := 0; r < coldReps; r++ {
		var err error
		if bg, ct, err = buildGraph(spec); err != nil {
			return nil, ct, err
		}
		parse, conv = append(parse, ct.parseMs), append(conv, ct.convertMs)
		pass, mem = append(pass, ct.passesMs), append(mem, ct.memplanMs)
	}
	ct.parseMs, ct.convertMs, ct.passesMs, ct.memplanMs = median(parse), median(conv), median(pass), median(mem)
	return bg, ct, nil
}

// graphRun is the timing of one execution of a built graph, in ms.
type graphRun struct{ exec, tape, apply float64 }

// run executes the graph for op i the way the engine does: a static graph is
// one exec.Run; a tape-mode graph is exec.Run, then backprop over the tape,
// then the optimizer (or the discarding sink of a streaming replica).
func (b *builtGraph) run(i int) (graphRun, error) {
	var gr graphRun
	_, leaves := convert.Flatten(b.fn, b.spec.args(i))
	feeds := make(map[string]graph.Val, len(leaves))
	for k, v := range leaves {
		feeds[fmt.Sprintf("f%d", k)] = heapVal(v)
	}
	opts := exec.Options{
		Workers: computeThreads, Store: b.engine.Store, Heap: treeHeap{},
		Pool: b.pool, Arena: b.arena, Stats: &b.stats,
	}
	var tape *autodiff.Tape
	if b.res.Dynamic && b.spec.train {
		tape = autodiff.NewTape()
		opts.Tape = tape
	}
	t0 := time.Now()
	out, err := exec.Run(b.res.Graph, feeds, opts)
	t1 := time.Now()
	gr.exec = msBetween(t0, t1)
	if err != nil {
		return gr, err
	}
	if tape == nil {
		return gr, nil
	}
	node, ok := out.Outputs[0].(*autodiff.Node)
	if !ok {
		return gr, fmt.Errorf("bench: tape-mode loss is %T", out.Outputs[0])
	}
	if b.spec.stream {
		tape.GradientStream(node, func(string, *tensor.Tensor) {})
		gr.tape = msBetween(t1, time.Now())
		return gr, nil
	}
	grads := tape.Gradient(node)
	t2 := time.Now()
	b.opt.Apply(b.engine.Store, grads)
	gr.tape = msBetween(t1, t2)
	gr.apply = msBetween(t2, time.Now())
	return gr, nil
}

// sighashNs times the signature hash the engine computes on every call to
// find its compiled graph.
func (b *builtGraph) sighashNs() float64 {
	args := b.spec.args(0)
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		convert.FlattenHash(b.fn, args)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// lowerSplit is what the two rungs every workload shares say about one op, in
// ms: the graph run as the engine performs it (exec.Run, plus backprop and
// the optimizer for a tape-mode graph), and how much of each part is kernels.
type lowerSplit struct {
	graphMs  float64 // exec.Run + Tape.Gradient + optimizer
	exec     float64 // exec.Run minus the kernels that run inside it
	autodiff float64 // backprop and optimizer minus the kernels inside them
	kernels  float64 // the whole kernel script
}

// lowerRungs measures exec.Run on harness-built graphs and the kernel
// scripts, and fills the metrics that follow from them.
func lowerRungs(t *tracer, spec *ladderSpec, firstOp int, m map[string]float64) (lowerSplit, error) {
	var split lowerSplit
	graphs := make([]*builtGraph, spec.clients)
	var ct coldTimes
	for c := range graphs {
		var err error
		if graphs[c], ct, err = buildGraphMedian(spec); err != nil {
			return split, err
		}
		for i := 0; i < 8; i++ { // first runs build the plan and fill the pool
			if _, err := graphs[c].run(i); err != nil {
				return split, fmt.Errorf("exec.Run on the harness-built graph: %w", err)
			}
		}
	}
	m["minipy.parse_ms"] = ct.parseMs
	m["convert.convert_ms"] = ct.convertMs
	m["convert.graph_nodes"] = float64(ct.graphNodes)
	m["passes.run_ms"] = ct.passesMs
	m["passes.rewrites"] = float64(ct.rewrites)
	m["passes.nodes_after"] = float64(ct.nodesAfter)
	m["graph.memplan_ms"] = ct.memplanMs
	m["graph.plan_inplace_frac"] = ct.inplaceFrac
	m["convert.sighash_ns"] = graphs[0].sighashNs()

	runs := make([][]graphRun, spec.clients)
	nodes0 := graphs[0].stats.OpsExecuted.Load()
	w := t.measure("exec.run", false, spec.clients, 1, firstOp, func(c, i int) error {
		gr, err := graphs[c].run(i)
		runs[c] = append(runs[c], gr)
		return err
	})
	if w.failed > 0 {
		return split, fmt.Errorf("exec.Run on the harness-built graph: %w", w.firstErr)
	}
	var ex, tp, ap, whole []float64
	for _, rs := range runs {
		for _, r := range rs {
			ex, tp, ap = append(ex, r.exec), append(tp, r.tape), append(ap, r.apply)
			whole = append(whole, r.exec+r.tape+r.apply)
		}
	}
	m["exec.run_ms"] = median(ex)
	m["exec.nodes_per_op"] = float64(graphs[0].stats.OpsExecuted.Load()-nodes0) / float64(len(runs[0]))
	m["autodiff.tape_ms_per_op"] = median(tp)
	m["autodiff.opt_apply_ms"] = median(ap)

	scripts := make([][]kernelCall, spec.clients)
	for c := range scripts {
		scripts[c] = spec.script()
	}
	kts := make([][]kernelTimes, spec.clients)
	t.measure("tensor.kernels", false, spec.clients, 1, firstOp, func(c, _ int) error {
		kts[c] = append(kts[c], runScript(scripts[c]))
		return nil
	})
	pick := func(f func(kernelTimes) float64) float64 {
		var xs []float64
		for _, ks := range kts {
			for _, kt := range ks {
				xs = append(xs, f(kt))
			}
		}
		return median(xs)
	}
	split.graphMs = median(whole)
	split.kernels = pick(func(k kernelTimes) float64 { return k.total })
	inExec := split.kernels
	if graphs[0].res.Dynamic && spec.train {
		inExec = pick(func(k kernelTimes) float64 { return k.byPhase[phaseForward] })
	}
	split.exec = m["exec.run_ms"] - inExec
	split.autodiff = split.graphMs - m["exec.run_ms"] - (split.kernels - inExec)
	m["tensor.kernel_ms_per_op"] = split.kernels
	m["tensor.conv2d_ms"] = pick(func(k kernelTimes) float64 { return k.conv2d })
	m["tensor.matmul_ms"] = pick(func(k kernelTimes) float64 { return k.matmul })
	m["tensor.flops_per_op"] = scriptFlops(scripts[0])
	if n := m["exec.nodes_per_op"]; n > 0 {
		m["exec.dispatch_ns_per_node"] = split.exec * 1e6 / n
	}
	return split, nil
}

// layerTime is one layer's self time within an op.
type layerTime struct {
	layer string
	ms    float64
}

// attribute turns the layers' self times into shares of the op's wall time
// (kept on the tracer for the report) and sets bench.unattributed_frac: the
// share the layers do not add up to. Self times are differences of medians of
// separately measured rungs, so they need not sum exactly; a negative one (a
// lower rung slower than the rung above) counts as zero.
func (t *tracer) attribute(m map[string]float64, opMs float64, layers ...layerTime) {
	t.shares = make(map[string]float64, len(layers))
	sum := 0.0
	for _, l := range layers {
		if l.ms > 0 {
			sum += l.ms
			t.shares[l.layer] = l.ms / opMs
		}
	}
	frac := (opMs - sum) / opMs
	if frac < 0 {
		frac = -frac
	}
	m["bench.unattributed_frac"] = frac
	m["tensor.kernel_share"] = t.shares["tensor"]
}
