package main

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
	"repro/internal/minipy"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// kernelsReport is the machine-readable result of `janusbench -kernels`,
// gated in CI by internal/tools/benchcheck (allocs/op ceiling and final
// loss; throughput is recorded, never gated).
type kernelsReport struct {
	Mode   string         `json:"mode"` // "kernels"
	CPUs   int            `json:"cpus"`
	MatMul []matmulResult `json:"matmul"`
	// LeNetForward is forward-only inference replay (calls/s).
	LeNetForward planAB `json:"lenet_forward"`
	// TrainStep is full LeNet train-step replay (items/s) at zero simulated
	// device time — the host-bound regime.
	TrainStep trainAB `json:"train_step"`
	// Elementwise is the steady-state allocation profile of a 64-op
	// elementwise chain replay.
	Elementwise elementwiseResult `json:"elementwise_chain"`
	// Passes is the graph pass-pipeline A/B: LeNet train-step replay with
	// the pipeline all-off, each pass alone, and all-on.
	Passes passesResult `json:"passes"`
}

type matmulResult struct {
	Size            int     `json:"size"`
	BlockedNs       float64 `json:"blocked_ns"`
	ParallelNs      float64 `json:"parallel_ns"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

type planAB struct {
	PlanOffPerSec float64 `json:"plan_off_per_sec"`
	PlanOnPerSec  float64 `json:"plan_on_per_sec"`
	// Speedup is plan-on vs plan-off (isolates the memory plan).
	Speedup float64 `json:"speedup"`
	// Per-call (forward) / per-step (train) latency percentiles of the
	// plan-on fast path, in milliseconds.
	PlanOnP50Ms float64 `json:"plan_on_p50_ms"`
	PlanOnP95Ms float64 `json:"plan_on_p95_ms"`
	PlanOnP99Ms float64 `json:"plan_on_p99_ms"`
}

type trainAB struct {
	planAB
	FinalLossOn  float64 `json:"final_loss_on"`
	FinalLossOff float64 `json:"final_loss_off"`
}

// passVariant is one pipeline configuration's measurement: the LeNet
// train-step replay throughput/loss plus the cached train graph's node
// count and total rewrites under that configuration.
type passVariant struct {
	// Config is "off" (pipeline disabled), a single pass name (that pass
	// alone), or "all" (full pipeline).
	Config      string  `json:"config"`
	Nodes       int     `json:"nodes"`
	Rewrites    int     `json:"rewrites"`
	ItemsPerSec float64 `json:"items_per_sec"`
	FinalLoss   float64 `json:"final_loss"`
}

type passesResult struct {
	Variants []passVariant `json:"variants"`
	// NodeDelta is nodes(all)/nodes(off) - 1 on the LeNet train graph.
	// Recorded, not gated: the pipeline may legitimately grow the node
	// count (im2col extraction adds shared Im2Col nodes) while shrinking
	// the work per replay.
	NodeDelta float64 `json:"node_delta"`
	// LossBitIdentical requires the all-on final loss to equal the all-off
	// final loss exactly — the pipeline must be semantics-preserving to the
	// last bit, not merely approximately correct. Gated by benchcheck.
	LossBitIdentical bool `json:"loss_bit_identical"`
	// SpeedupVsOff is all-on vs all-off items/s on the LeNet train step.
	SpeedupVsOff float64 `json:"speedup_vs_off"`
	// Fusion A/B on the dispatch-bound elementwise-chain replay (the §5
	// microbench fusion targets; LeNet's train graph has no single-consumer
	// elementwise chains — backprop keeps every intermediate alive — so the
	// fusion win is gated where fusion applies). NodeReduction is
	// 1 - nodes(fused)/nodes(unfused), gated >= 15% by benchcheck together
	// with bit-identical replay outputs.
	FusionNodesOff      int     `json:"fusion_nodes_off"`
	FusionNodesOn       int     `json:"fusion_nodes_on"`
	FusionNodeReduction float64 `json:"fusion_node_reduction"`
	FusionBitIdentical  bool    `json:"fusion_bit_identical"`
	// Pooled replay time of the same chain unfused vs fused.
	FusionNsOff float64 `json:"fusion_ns_per_replay_off"`
	FusionNsOn  float64 `json:"fusion_ns_per_replay_on"`
}

type elementwiseResult struct {
	Ops                 int     `json:"ops"`
	AllocsPerGraphopOff float64 `json:"allocs_per_graphop_off"`
	AllocsPerGraphopOn  float64 `json:"allocs_per_graphop_on"`
	ReplayAllocsOn      float64 `json:"replay_allocs_on"`
	NsPerReplayOff      float64 `json:"ns_per_replay_off"`
	NsPerReplayOn       float64 `json:"ns_per_replay_on"`
}

// kernelsBench regenerates the DESIGN.md kernel/memory-plan table: blocked
// vs blocked+parallel matmul, plan-on vs plan-off LeNet forward and
// train-step replay, and the steady-state allocation profile of elementwise
// replay.
func kernelsBench(warmup, steps int, jsonPath string) {
	rep := kernelsReport{Mode: "kernels", CPUs: runtime.NumCPU()}

	fmt.Printf("--- matmul: blocked vs blocked+parallel (%d CPUs) ---\n", rep.CPUs)
	fmt.Printf("%6s %12s %12s %9s\n", "size", "blocked", "parallel", "par/blk")
	for _, n := range []int{64, 128, 256} {
		r := matmulBench(n)
		rep.MatMul = append(rep.MatMul, r)
		fmt.Printf("%6d %10.0fns %10.0fns %8.2fx\n", n, r.BlockedNs, r.ParallelNs, r.ParallelSpeedup)
	}

	fmt.Printf("\n--- LeNet forward replay (inference Call: plan-off / plan-on) ---\n")
	rep.LeNetForward = lenetForwardBench()
	fmt.Printf("plan-off %8.0f   plan-on %8.0f calls/s   plan %.2fx\n",
		rep.LeNetForward.PlanOffPerSec, rep.LeNetForward.PlanOnPerSec, rep.LeNetForward.Speedup)
	fmt.Printf("plan-on call latency: p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		rep.LeNetForward.PlanOnP50Ms, rep.LeNetForward.PlanOnP95Ms, rep.LeNetForward.PlanOnP99Ms)

	fmt.Printf("\n--- LeNet train-step replay (zero device time: plan-off / plan-on) ---\n")
	rep.TrainStep = trainStepBench(warmup, steps)
	fmt.Printf("plan-off %8.1f (loss %.3f)   plan-on %8.1f items/s (loss %.3f)   plan %.2fx\n",
		rep.TrainStep.PlanOffPerSec, rep.TrainStep.FinalLossOff,
		rep.TrainStep.PlanOnPerSec, rep.TrainStep.FinalLossOn, rep.TrainStep.Speedup)
	fmt.Printf("plan-on step latency: p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		rep.TrainStep.PlanOnP50Ms, rep.TrainStep.PlanOnP95Ms, rep.TrainStep.PlanOnP99Ms)

	fmt.Printf("\n--- elementwise chain replay: allocations ---\n")
	rep.Elementwise = elementwiseBench()
	fmt.Printf("%d ops: plan-off %.2f allocs/op, plan-on %.3f allocs/op (%.0f allocs/replay); %0.fns -> %.0fns per replay\n",
		rep.Elementwise.Ops, rep.Elementwise.AllocsPerGraphopOff, rep.Elementwise.AllocsPerGraphopOn,
		rep.Elementwise.ReplayAllocsOn, rep.Elementwise.NsPerReplayOff, rep.Elementwise.NsPerReplayOn)

	fmt.Printf("\n--- pass pipeline A/B (LeNet train step: off / each-alone / all) ---\n")
	rep.Passes = passesBench(warmup, steps)
	fmt.Printf("%8s %7s %9s %10s %10s\n", "config", "nodes", "rewrites", "items/s", "loss")
	for _, v := range rep.Passes.Variants {
		fmt.Printf("%8s %7d %9d %10.1f %10.6f\n", v.Config, v.Nodes, v.Rewrites, v.ItemsPerSec, v.FinalLoss)
	}
	fmt.Printf("LeNet node delta %+.1f%%, all-on vs all-off %.2fx, loss bit-identical: %v\n",
		100*rep.Passes.NodeDelta, rep.Passes.SpeedupVsOff, rep.Passes.LossBitIdentical)
	fmt.Printf("fusion on elementwise replay: %d -> %d nodes (%.1f%% reduction), %.0fns -> %.0fns per replay, outputs bit-identical: %v\n",
		rep.Passes.FusionNodesOff, rep.Passes.FusionNodesOn,
		100*rep.Passes.FusionNodeReduction,
		rep.Passes.FusionNsOff, rep.Passes.FusionNsOn, rep.Passes.FusionBitIdentical)

	writeReport(jsonPath, rep)
}

// pctile returns the p-quantile (0..1) of samples by nearest-rank on a
// sorted copy; 0 when there are no samples.
func pctile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// timeIt runs f repeatedly for at least minDur and returns ns per call.
func timeIt(minDur time.Duration, f func()) float64 {
	f() // warm
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(start)
		if el >= minDur {
			return float64(el.Nanoseconds()) / float64(n)
		}
		n *= 4
	}
}

func matmulBench(n int) matmulResult {
	rng := tensor.NewRNG(uint64(n))
	a := rng.Randn(n, n)
	b := rng.Randn(n, n)
	dst := tensor.Zeros(n, n)
	r := matmulResult{Size: n}
	prev := tensor.SetKernelParallelism(1)
	r.BlockedNs = timeIt(60*time.Millisecond, func() { tensor.MatMulInto(dst, a, b) })
	tensor.SetKernelParallelism(runtime.NumCPU())
	r.ParallelNs = timeIt(60*time.Millisecond, func() { tensor.MatMulInto(dst, a, b) })
	tensor.SetKernelParallelism(prev)
	r.ParallelSpeedup = r.BlockedNs / r.ParallelNs
	return r
}

const lenetFwdSrc = `
def lenet_fwd(x):
    c1 = variable("lenet/c1", [4, 1, 3, 3])
    c2 = variable("lenet/c2", [8, 4, 3, 3])
    fc = variable("lenet/fc", [32, 4])
    b = variable("lenet/b", [4])
    h = relu(conv2d(x, c1, stride=1, pad=1))
    h = max_pool(h, 2, 2)
    h = relu(conv2d(h, c2, stride=1, pad=1))
    h = max_pool(h, 2, 2)
    flat = reshape(h, [8, 32])
    return matmul(flat, fc) + b
`

// lenetForwardBench times steady-state inference replay; the measurement is
// duration-bounded (timeIt), not step-count-bounded.
func lenetForwardBench() planAB {
	run := func(noPlan bool) (float64, []float64) {
		cfg := core.DefaultJanusConfig()
		cfg.ProfileIters = 1
		cfg.PyOverheadNs = -1
		cfg.NoMemoryPlan = noPlan
		e := core.NewEngine(cfg)
		if err := e.Run(lenetFwdSrc); err != nil {
			fmt.Printf("lenet forward setup failed: %v\n", err)
			return 0, nil
		}
		rng := tensor.NewRNG(11)
		x := minipy.NewTensor(rng.Randn(8, 1, 8, 8))
		args := []minipy.Value{x}
		for i := 0; i < 3; i++ {
			if _, err := e.Call("lenet_fwd", args); err != nil {
				fmt.Printf("lenet forward failed: %v\n", err)
				return 0, nil
			}
		}
		ns := timeIt(200*time.Millisecond, func() {
			if _, err := e.Call("lenet_fwd", args); err != nil {
				panic(err)
			}
		})
		// Per-call latency distribution for the report's percentiles.
		samples := make([]float64, 0, 200)
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := e.Call("lenet_fwd", args); err != nil {
				panic(err)
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return 1e9 / ns, samples
	}
	var out planAB
	var samples []float64
	out.PlanOffPerSec, _ = run(true)
	out.PlanOnPerSec, samples = run(false)
	out.PlanOnP50Ms = pctile(samples, 0.50)
	out.PlanOnP95Ms = pctile(samples, 0.95)
	out.PlanOnP99Ms = pctile(samples, 0.99)
	if out.PlanOffPerSec > 0 {
		out.Speedup = out.PlanOnPerSec / out.PlanOffPerSec
	}
	return out
}

// trainRun trains LeNet for warmup+steps under cfg and returns steady-state
// throughput (items/s over the post-warmup curve window), final loss,
// post-warmup per-step milliseconds, and the engine (whose graph cache holds
// the compiled train graph for node-count inspection).
func trainRun(m *models.Model, cfg core.Config, warmup, steps int) (float64, float64, []float64, *core.Engine) {
	pts, e, err := models.Curve(m, cfg, 42, warmup+steps)
	if err != nil || len(pts) <= warmup {
		fmt.Printf("train-step measurement failed: %v\n", err)
		return 0, 0, nil, e
	}
	window := pts[len(pts)-1].Seconds
	if warmup > 0 {
		window -= pts[warmup-1].Seconds
	}
	if window <= 0 {
		window = 1e-9
	}
	th := float64((len(pts)-warmup)*m.ItemsPerStep) / window
	// Post-warmup per-step durations (ms) from the cumulative curve.
	var stepMs []float64
	for i := warmup; i < len(pts); i++ {
		prev := 0.0
		if i > 0 {
			prev = pts[i-1].Seconds
		}
		stepMs = append(stepMs, (pts[i].Seconds-prev)*1e3)
	}
	return th, pts[len(pts)-1].Loss, stepMs, e
}

func trainStepBench(warmup, steps int) trainAB {
	m, err := models.Get("LeNet")
	if err != nil {
		fmt.Println(err)
		return trainAB{}
	}
	measure := func(noPlan bool) (float64, float64, []float64) {
		cfg := core.DefaultJanusConfig()
		cfg.LR = 0.05
		cfg.PyOverheadNs = -1 // zero simulated device/dispatch time: host-bound
		cfg.NoMemoryPlan = noPlan
		// One training run yields both numbers: steady-state throughput from
		// the post-warmup curve window, final loss from the last point.
		th, loss, stepMs, _ := trainRun(m, cfg, warmup, steps)
		return th, loss, stepMs
	}
	var out trainAB
	out.PlanOffPerSec, out.FinalLossOff, _ = measure(true)
	var stepMs []float64
	out.PlanOnPerSec, out.FinalLossOn, stepMs = measure(false)
	out.PlanOnP50Ms = pctile(stepMs, 0.50)
	out.PlanOnP95Ms = pctile(stepMs, 0.95)
	out.PlanOnP99Ms = pctile(stepMs, 0.99)
	if out.PlanOffPerSec > 0 {
		out.Speedup = out.PlanOnPerSec / out.PlanOffPerSec
	}
	return out
}

// passesBench A/Bs the graph pass pipeline on LeNet train-step replay:
// all passes off, each pass alone, all passes on. Every variant trains the
// same curve (same seed, same steps) so final losses are directly
// bit-comparable; node counts come from the engine's compiled-graph cache
// after training.
func passesBench(warmup, steps int) passesResult {
	m, err := models.Get("LeNet")
	if err != nil {
		fmt.Println(err)
		return passesResult{}
	}
	names := passes.Names()
	measure := func(config string, disable []string) passVariant {
		cfg := core.DefaultJanusConfig()
		cfg.LR = 0.05
		cfg.PyOverheadNs = -1
		cfg.DisablePasses = disable
		th, loss, _, e := trainRun(m, cfg, warmup, steps)
		v := passVariant{Config: config, ItemsPerSec: th, FinalLoss: loss}
		if e != nil {
			sum := e.PassSummary()
			v.Nodes = sum.Nodes
			for _, n := range sum.Rewrites {
				v.Rewrites += n
			}
		}
		return v
	}

	var res passesResult
	res.Variants = append(res.Variants, measure("off", []string{"all"}))
	for _, p := range names {
		// Disable every pass except p.
		var disable []string
		for _, q := range names {
			if q != p {
				disable = append(disable, q)
			}
		}
		res.Variants = append(res.Variants, measure(p, disable))
	}
	res.Variants = append(res.Variants, measure("all", nil))

	off, on := res.Variants[0], res.Variants[len(res.Variants)-1]
	if off.Nodes > 0 {
		res.NodeDelta = float64(on.Nodes)/float64(off.Nodes) - 1
	}
	res.LossBitIdentical = on.FinalLoss == off.FinalLoss && on.FinalLoss > 0
	if off.ItemsPerSec > 0 {
		res.SpeedupVsOff = on.ItemsPerSec / off.ItemsPerSec
	}

	// Fusion A/B on the elementwise-chain replay: same graph builder the
	// allocation microbench uses, full pipeline applied to one copy.
	gOff := elementwiseChain(64)
	gOn := elementwiseChain(64)
	passes.Optimize(gOn)
	res.FusionNodesOff = gOff.NumNodes()
	res.FusionNodesOn = gOn.NumNodes()
	if res.FusionNodesOff > 0 {
		res.FusionNodeReduction = 1 - float64(res.FusionNodesOn)/float64(res.FusionNodesOff)
	}
	rng := tensor.NewRNG(3)
	feeds := map[string]graph.Val{"x": rng.Randn(8, 32), "y": rng.Randn(8, 32)}
	optsOff := exec.Options{Pool: tensor.NewPool()}
	optsOn := exec.Options{Pool: tensor.NewPool()}
	rOff, err1 := exec.Run(gOff, feeds, optsOff)
	rOn, err2 := exec.Run(gOn, feeds, optsOn)
	if err1 == nil && err2 == nil && len(rOff.Outputs) == len(rOn.Outputs) {
		res.FusionBitIdentical = true
		for i := range rOff.Outputs {
			a, okA := rOff.Outputs[i].(*tensor.Tensor)
			b, okB := rOn.Outputs[i].(*tensor.Tensor)
			if !okA || !okB || !tensor.Equal(a, b) {
				res.FusionBitIdentical = false
			}
		}
		res.FusionNsOff = timeIt(100*time.Millisecond, func() {
			if _, err := exec.Run(gOff, feeds, optsOff); err != nil {
				panic(err)
			}
		})
		res.FusionNsOn = timeIt(100*time.Millisecond, func() {
			if _, err := exec.Run(gOn, feeds, optsOn); err != nil {
				panic(err)
			}
		})
	}
	return res
}

// elementwiseChain mirrors the exec benchmark graph: alternating unary and
// binary elementwise ops.
func elementwiseChain(ops int) *graph.Graph {
	g := graph.New()
	x := g.Placeholder("x")
	y := g.Placeholder("y")
	cur := x.P()
	for i := 0; i < ops; i++ {
		switch i % 4 {
		case 0:
			cur = g.Add("ReLU", nil, cur).P()
		case 1:
			cur = g.Add("Add", nil, cur, y.P()).P()
		case 2:
			cur = g.Add("Tanh", nil, cur).P()
		case 3:
			cur = g.Add("Mul", nil, cur, y.P()).P()
		}
	}
	g.Outputs = []graph.Port{cur}
	return g
}

func elementwiseBench() elementwiseResult {
	const ops = 64
	rng := tensor.NewRNG(3)
	feeds := map[string]graph.Val{"x": rng.Randn(8, 32), "y": rng.Randn(8, 32)}
	res := elementwiseResult{Ops: ops}
	for _, planOn := range []bool{false, true} {
		g := elementwiseChain(ops)
		// Metrics attached as in production: the allocs/op gate covers the
		// instrumented replay path (sampled kernel timers included).
		opts := exec.Options{Metrics: exec.NewMetrics(obs.NewRegistry())}
		if planOn {
			opts.Pool = tensor.NewPool()
			opts.Arena = exec.NewArena()
		}
		if _, err := exec.Run(g, feeds, opts); err != nil {
			fmt.Printf("elementwise replay failed: %v\n", err)
			return res
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := exec.Run(g, feeds, opts); err != nil {
				panic(err)
			}
		})
		ns := timeIt(100*time.Millisecond, func() {
			if _, err := exec.Run(g, feeds, opts); err != nil {
				panic(err)
			}
		})
		nodes := float64(g.NumNodes())
		if planOn {
			res.AllocsPerGraphopOn = allocs / nodes
			res.ReplayAllocsOn = allocs
			res.NsPerReplayOn = ns
		} else {
			res.AllocsPerGraphopOff = allocs / nodes
			res.NsPerReplayOff = ns
		}
	}
	return res
}
