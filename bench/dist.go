package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	janus "repro"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/ps"
	"repro/internal/tensor"
)

const (
	distReplicas = 2
	distShards   = 2
	// distTolerance is how far a round's loss may sit from the single-engine
	// imperative loss on the same batch.
	distTolerance = 0.02
)

// distWorkload is one fn.Call per data-parallel round of the train-cnn model
// on an in-process janus.Cluster: the global batch is split across two
// replicas that pull from, and stream gradients to, a two-shard parameter
// server. It reuses train-cnn's inputs and reference, so the two workloads
// differ by the parameter-server path only.
type distWorkload struct{ *trainWorkload }

func newDistStep() *distWorkload {
	w := &distWorkload{newTrainCNN()}
	w.wname = "dist-step"
	return w
}

func (w *distWorkload) replicas() int { return distReplicas }

func (w *distWorkload) boot() (system, error) {
	cl, err := janus.NewCluster(cnnProgram, janus.TrainOptions{
		Options: janus.Options{
			Workers: computeThreads, Seed: modelSeed, LearningRate: learningRate, ProfileIterations: profileIters,
		},
		Replicas: distReplicas, Shards: distShards, Optimizer: "sgd",
	})
	if err != nil {
		return nil, err
	}
	fn, err := cl.Func("train_step")
	if err != nil {
		return nil, err
	}
	s := &distSystem{w: w, cl: cl, fn: fn}
	// The Cluster API exposes no engine counters, so boot runs the profiling
	// rounds plus one: with ProfileIterations fixed, that round is the first
	// on the graph path. The traced run builds the same cluster from
	// internal/ps and checks GraphSteps there.
	for ; s.next <= profileIters; s.next++ {
		if err := s.op(0, s.next); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type distSystem struct {
	w    *distWorkload
	cl   *janus.Cluster
	fn   *janus.Function
	next int
}

func (s *distSystem) op(_, i int) error {
	loss, err := trainLoss(s.fn, s.w.feed(i))
	if err != nil {
		return err
	}
	return s.w.checkLoss(i, loss, distTolerance)
}

func (s *distSystem) booted() int { return s.next }

// finish checks that every server-side parameter is finite after the run.
func (s *distSystem) finish() error {
	params, err := s.cl.Parameters()
	if err != nil {
		return err
	}
	if len(params) == 0 {
		return fmt.Errorf("dist-step: the server holds no parameters")
	}
	for name, t := range params {
		for _, v := range t.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dist-step: parameter %s holds %v after the run", name, v)
			}
		}
	}
	return nil
}

func (s *distSystem) engineStats() (janus.Stats, bool) { return janus.Stats{}, false }
func (s *distSystem) close()                           {}

// timingTransport wraps the parameter server's transport and notes the
// interval of every pull and push, tagged with the round in flight.
type timingTransport struct {
	ps.Transport
	round  atomic.Int64
	mu     sync.Mutex
	events []psEvent
}

type psEvent struct {
	name       string
	round      int
	start, end time.Time
}

func (t *timingTransport) note(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.events = append(t.events, psEvent{name, int(t.round.Load()), start, end})
	t.mu.Unlock()
}

func (t *timingTransport) Pull(ctx context.Context, shard int, have int64) (map[string]*tensor.Tensor, int64, int64, error) {
	defer t.note("ps.pull", time.Now())
	return t.Transport.Pull(ctx, shard, have)
}

func (t *timingTransport) PushGrad(ctx context.Context, shard, worker int, step int64, grads map[string]*tensor.Tensor) (int64, error) {
	defer t.note("ps.push", time.Now())
	return t.Transport.PushGrad(ctx, shard, worker, step, grads)
}

// psCluster is the cluster of janus.NewCluster rebuilt from internal/ps, so
// the transport can be wrapped and the replicas' engines read.
type psCluster struct {
	w       *distWorkload
	trans   *timingTransport
	cluster *ps.Cluster
	engines []*core.Engine
	bodies  []psEvent // one per replica step: the engine call inside the round
	mu      sync.Mutex
}

func newPSCluster(w *distWorkload) (*psCluster, error) {
	server, err := ps.NewServer(ps.Config{
		Shards: distShards, LR: learningRate, Workers: distReplicas, Optimizer: "sgd",
	})
	if err != nil {
		return nil, err
	}
	c := &psCluster{w: w, trans: &timingTransport{Transport: server}}
	c.cluster, err = ps.NewClusterOver(c.trans, ps.ClusterConfig{
		Workers: distReplicas,
		Engine: core.Config{
			Mode: core.Janus, LR: learningRate, ProfileIters: profileIters, Unroll: true, Specialize: true,
			Workers: computeThreads, Seed: modelSeed, PyOverheadNs: -1,
		},
		Build: func(id int, e *core.Engine) (ps.StepFunc, error) {
			if err := e.Run(cnnProgram); err != nil {
				return nil, err
			}
			c.engines = append(c.engines, e)
			return func(i int) (float64, error) { return c.replicaStep(id, e, i) }, nil
		},
	})
	return c, err
}

// replicaStep is one replica's share of round i: its contiguous slice of the
// batch through the engine.
func (c *psCluster) replicaStep(id int, e *core.Engine, i int) (float64, error) {
	feeds := c.w.feed(i)
	per := cnnBatch / distReplicas
	vals := make(map[string]minipy.Value, len(feeds))
	for name, t := range feeds {
		vals[name] = minipy.NewTensor(tensor.SliceAxis(t, 0, id*per, (id+1)*per))
	}
	start := time.Now()
	out, err := e.CallNamed(context.Background(), "train_step", vals)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.bodies = append(c.bodies, psEvent{"core.call_named", i, start, end})
	c.mu.Unlock()
	ts, err := minipy.Tensors(out)
	if err != nil || len(ts) != 1 {
		return 0, fmt.Errorf("dist-step: train_step returned %v", out)
	}
	return ts[0].Item(), nil
}

// round runs every replica's step i concurrently and waits for all of them:
// what one fn.Call on the janus.Cluster does.
func (c *psCluster) round(_, i int) error {
	c.trans.round.Store(int64(i))
	workers := c.cluster.Workers()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for k, w := range workers {
		wg.Add(1)
		go func(k int, w *ps.Worker) {
			defer wg.Done()
			_, _, errs[k] = w.Step(i)
		}(k, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layers: fn.Call on the cluster -> (pulls, replica engine calls, streamed
// pushes: real nested spans from the wrapped transport) -> exec.Run in tape
// mode with a gradient sink -> kernels at half the batch.
func (w *distWorkload) layers(sys system, t *tracer) (map[string]float64, error) {
	s := sys.(*distSystem)
	m := map[string]float64{}
	first := refOps
	plain := t.window(1, cnnBatch, first, s.op)

	c, err := newPSCluster(w)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2*profileIters+2; i++ {
		if err := c.round(0, i); err != nil {
			return nil, fmt.Errorf("dist-step: warming the traced cluster: %w", err)
		}
	}
	var graphSteps int
	for _, e := range c.engines {
		graphSteps += e.Stats().GraphSteps
	}
	if graphSteps == 0 {
		return nil, fmt.Errorf("dist-step: the traced cluster never reached the graph path")
	}
	c.trans.events, c.bodies = nil, nil
	stats0 := workerTotals(c.cluster.Workers())
	top := t.measure("janus.cluster_call", true, 1, cnnBatch, first, c.round)
	if top.failed > 0 {
		return nil, fmt.Errorf("traced window: %w", top.firstErr)
	}
	stats1 := workerTotals(c.cluster.Workers())
	var pulls, pushes, bodies []float64
	for _, ev := range append(c.trans.events, c.bodies...) {
		t.rec.add(ev.name, ev.start, ev.end, t.parents[ev.round], ev.round, false)
		ms := msBetween(ev.start, ev.end)
		switch ev.name {
		case "ps.pull":
			pulls = append(pulls, ms)
		case "ps.push":
			pushes = append(pushes, ms)
		default:
			bodies = append(bodies, ms)
		}
	}
	ops := float64(top.ops())
	opMs := p50(top)
	bodyMs := median(bodies)
	topRung(m, plain, top)
	m["ps.pull_ms"], m["ps.push_ms"] = mean(pulls), mean(pushes)
	m["ps.pulls_per_op"] = float64(stats1.Pulls-stats0.Pulls) / ops
	m["ps.pushes_per_op"] = float64(stats1.Pushes-stats0.Pushes) / ops
	m["ps.bytes_pulled_per_op"] = float64(stats1.BytesPulled-stats0.BytesPulled) / ops
	m["ps.bytes_pushed_per_op"] = float64(stats1.BytesPushed-stats0.BytesPushed) / ops
	m["ps.stale_drops"] = float64(stats1.StaleDrops - stats0.StaleDrops)
	m["ps.retries"] = 0 // Retries is 0: no retrying transport is in the path

	// The same rows on one engine with no parameter server: train-cnn.
	single, err := w.trainWorkload.boot()
	if err != nil {
		return nil, err
	}
	singleMs := p50(t.window(1, cnnBatch, first, single.op))
	m["ps.overhead_frac"] = 1 - singleMs/p50(plain)

	per := cnnBatch / distReplicas
	spec := &ladderSpec{
		program: cnnProgram, lossFn: "cnn_loss", clients: distReplicas, train: true, stream: true,
		args: func(i int) []minipy.Value {
			f := w.feed(i)
			return []minipy.Value{
				minipy.NewTensor(tensor.SliceAxis(f["x"], 0, 0, per)),
				minipy.NewTensor(tensor.SliceAxis(f["y"], 0, 0, per)),
			}
		},
		script: func() []kernelCall { return cnnKernels(per) },
	}
	low, err := lowerRungs(t, spec, first, m)
	if err != nil {
		return nil, err
	}
	// One processor runs the replicas one after the other, so a round holds
	// every replica's engine call, graph run and kernels in sequence; the
	// per-replica medians are scaled to the round before they are compared
	// with it.
	for _, name := range []string{"tensor.kernel_ms_per_op", "tensor.conv2d_ms", "tensor.matmul_ms", "tensor.flops_per_op"} {
		m[name] *= distReplicas
	}
	bodyMs *= distReplicas
	m["core.call_overhead_us"] = (bodyMs - low.graphMs*distReplicas) * 1e3
	var st core.Stats
	for _, e := range c.engines {
		st.Add(e.Stats())
	}
	engineCounters(m, st.CacheHits, st.CacheMisses, st.Conversions, st.Fallbacks, st.AssertFailures)
	m["profile.iters"] = profileIters
	m["janus.call_overhead_us"] = (p50(plain) - opMs) * 1e3
	t.attribute(m, opMs, layerTime{"ps", opMs - bodyMs}, layerTime{"core", bodyMs - low.graphMs*distReplicas},
		layerTime{"exec", low.exec * distReplicas}, layerTime{"autodiff", low.autodiff * distReplicas},
		layerTime{"tensor", low.kernels * distReplicas})
	m["minipy.imperative_op_ms"], err = w.imperativeOpMs()
	return m, err
}

func workerTotals(workers []*ps.Worker) ps.WorkerStats {
	var total ps.WorkerStats
	for _, w := range workers {
		st := w.Stats()
		total.Pulls += st.Pulls
		total.Pushes += st.Pushes
		total.StaleDrops += st.StaleDrops
		total.BytesPulled += st.BytesPulled
		total.BytesPushed += st.BytesPushed
	}
	return total
}
