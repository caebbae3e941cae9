package ps

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// slowedBuild wraps mlpBuild so one worker sleeps per step — a reliable
// laggard under free-running execution.
func slowedBuild(seed uint64, batch, slowWorker int, delay time.Duration) func(int, *core.Engine) (StepFunc, error) {
	inner := mlpBuild(seed, batch)
	return func(id int, e *core.Engine) (StepFunc, error) {
		step, err := inner(id, e)
		if err != nil || id != slowWorker {
			return step, err
		}
		return func(i int) (float64, error) {
			time.Sleep(delay)
			return step(i)
		}, nil
	}
}

// TestClusterAsyncSmoke is the CI async smoke test: a 2-worker free-running
// cluster makes training progress with no round barrier (run under -race).
func TestClusterAsyncSmoke(t *testing.T) {
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: 2, Shards: 2, LR: cfg.LR, Staleness: 4, Engine: cfg,
		Build: mlpBuild(42, 8),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.RunAsync(context.Background(), 10)
	if err != nil {
		t.Fatalf("async run: %v", err)
	}
	first := res.WorkerLosses[0][0]
	if final := res.FinalLoss(); final >= first {
		t.Fatalf("no free-running training progress: first %.4f, final %.4f", first, final)
	}
	ws := cluster.Workers()[0].Stats()
	if ws.Pushes == 0 || ws.PullsFresh == 0 {
		t.Fatalf("worker exchanged no parameters: %+v", ws)
	}
}

// runFreeInterleaved drives the free-running protocol RunAsync runs — pull
// with clock fast-forward, local step, streamed pushes, stale pushes dropped
// by the server — on the calling goroutine under one fixed interleaving, so
// the outcome does not depend on how the OS schedules worker goroutines.
// Workers take turns as the laggard: it pulls, `window` steps of the other
// workers complete, then it computes and pushes, so its gradients are that
// many steps old and its clock lags the freshest step by window-1. The
// window ramps from 0 to 4 and back; under staleness bound 2 the pushes of a
// window of 4 are rejected. Worker w covers global batch indices s*N+w, as in
// RunAsync.
func runFreeInterleaved(t *testing.T, c *Cluster, steps int) (res AsyncResult) {
	t.Helper()
	n := len(c.workers)
	res = AsyncResult{StepsPerWorker: steps, WorkerLosses: make([][]float64, n)}
	for _, w := range c.workers {
		w.freeRunning = true
		defer func(w *Worker) { w.freeRunning = false }(w)
	}
	left := func(wi int) bool { return len(res.WorkerLosses[wi]) < steps }
	// step runs one local step of worker wi; during runs between its pull and
	// its compute+push.
	step := func(wi int, during func()) {
		w := c.workers[wi]
		loss, stale, err := w.Do(func() (float64, error) {
			during()
			return w.step(len(res.WorkerLosses[wi])*n + wi)
		})
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
		res.WorkerLosses[wi] = append(res.WorkerLosses[wi], loss)
		res.Stale += stale
	}
	// pick advances a shared round-robin cursor to the next worker, other
	// than skip, that still has steps to run (-1 when there is none).
	cursor := -1
	pick := func(skip int) int {
		for k := 0; k < n; k++ {
			cursor++
			if wi := cursor % n; wi != skip && left(wi) {
				return wi
			}
		}
		return -1
	}
	windows := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for turn := 0; ; turn++ {
		laggard := pick(-1)
		if laggard < 0 {
			return res
		}
		step(laggard, func() {
			for k := 0; k < windows[turn%len(windows)]; k++ {
				if wi := pick(laggard); wi >= 0 {
					step(wi, func() {})
				}
			}
		})
	}
}

// TestAsyncConvergesNearBarriered is the tentpole acceptance check: a
// 4-worker free-running cluster under staleness bound 2 converges to within
// 10% of the barriered run's final loss on the same data. The free-running
// side runs under runFreeInterleaved's fixed schedule: with real goroutines
// the number of stale-dropped gradients — lost steps at a fixed step budget —
// follows the host's scheduling, and the comparison with it. RunAsync itself,
// goroutines and backoff included, then runs the same cluster under a bar
// that holds for any schedule: it trains, every worker finishes its budget,
// and every stale drop is accounted for.
func TestAsyncConvergesNearBarriered(t *testing.T) {
	const workers, batch = 4, 8
	rounds := 50
	if testing.Short() {
		rounds = 25
	}
	cfg := workerEngineConfig()
	mk := func(staleness int) *Cluster {
		t.Helper()
		cluster, err := NewCluster(ClusterConfig{
			Workers: workers, Shards: 4, LR: cfg.LR * workers,
			Staleness: staleness, Engine: cfg, Build: mlpBuild(42, batch),
		})
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		return cluster
	}

	sync := mk(0)
	syncRes, err := sync.Run(rounds)
	if err != nil {
		t.Fatalf("barriered run: %v", err)
	}
	barrierFinal := mean(syncRes.Losses[len(syncRes.Losses)-4:])

	asyncRes := runFreeInterleaved(t, mk(2), rounds)
	asyncFinal := asyncRes.FinalLoss()

	t.Logf("barriered final %.4f; async(staleness 2) final %.4f; stale %d",
		barrierFinal, asyncFinal, asyncRes.Stale)
	if asyncRes.Stale == 0 {
		t.Fatalf("the interleaving produced no stale drops: the staleness bound went unexercised")
	}
	first := syncRes.Losses[0]
	if asyncFinal >= first*0.7 {
		t.Fatalf("async cluster did not train: initial %.4f, final %.4f", first, asyncFinal)
	}
	// Acceptance bar: within 10% of the barriered final loss (plus a small
	// absolute epsilon so single-batch noise near zero cannot flake).
	if asyncFinal > barrierFinal*1.10+0.02 {
		t.Fatalf("async converged too far from barriered: barriered %.4f, async %.4f",
			barrierFinal, asyncFinal)
	}

	live := mk(2)
	liveRes, err := live.RunAsync(context.Background(), rounds)
	if err != nil {
		t.Fatalf("async run: %v", err)
	}
	t.Logf("RunAsync initial %.4f, final %.4f; stale %d, backoffs %d", first, liveRes.FinalLoss(), liveRes.Stale, liveRes.Backoffs)
	if final := liveRes.FinalLoss(); final >= first*0.7 {
		t.Fatalf("RunAsync did not train: initial %.4f, final %.4f", first, final)
	}
	var drops int64
	for _, w := range live.Workers() {
		ws := w.Stats()
		if ws.Steps != int64(rounds) {
			t.Fatalf("worker %d completed %d/%d steps", w.ID, ws.Steps, rounds)
		}
		drops += ws.StaleDrops
	}
	if drops != liveRes.Stale {
		t.Fatalf("workers recorded %d stale drops, the run reported %d", drops, liveRes.Stale)
	}
}

// TestAsyncSlowWorkerStalenessContention: a deliberately slow worker under a
// tight staleness bound has its late pushes rejected (ErrStale), backs off,
// and re-pulls — and the cluster still converges. The laggard re-enters the
// staleness window on every re-pull instead of erroring out or lagging
// forever.
func TestAsyncSlowWorkerStalenessContention(t *testing.T) {
	const workers, batch = 3, 8
	steps := 30
	if testing.Short() {
		steps = 15
	}
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: workers, Shards: 2, LR: cfg.LR * workers,
		Staleness: 0, Engine: cfg,
		Build: slowedBuild(42, batch, 0, 2*time.Millisecond),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.RunAsync(context.Background(), steps)
	if err != nil {
		t.Fatalf("async run with laggard: %v", err)
	}
	slow := cluster.Workers()[0].Stats()
	t.Logf("laggard stats: %+v; cluster stale %d, backoffs %d", slow, res.Stale, res.Backoffs)
	if res.Stale == 0 {
		t.Fatalf("tight bound with a laggard produced no stale rejections: %+v", res)
	}
	if slow.Backoffs == 0 {
		t.Fatalf("laggard never backed off: %+v", slow)
	}
	// The laggard recovered: it completed all its steps and kept landing
	// pushes after re-pulls (not every gradient it streamed was dropped).
	if slow.Steps != int64(steps) {
		t.Fatalf("laggard completed %d/%d steps", slow.Steps, steps)
	}
	if slow.Pushes == 0 {
		t.Fatalf("every laggard push was dropped — re-pull did not re-enter the window: %+v", slow)
	}
	first := res.WorkerLosses[1][0]
	if final := res.FinalLoss(); final >= first*0.8 {
		t.Fatalf("cluster with laggard did not converge: first %.4f, final %.4f", first, final)
	}
}

// TestAsyncOverHTTPStaleRoundTrip proves the async-path staleness protocol
// over the real HTTP transport, deterministically: while a worker's step is
// executing (after its pull), a "fresher replica" (a raw client) advances
// the shard's step clock far past the bound, so the worker's streamed
// pushes for that step come back as 409s. The worker must record them as
// stale drops (the errors.Is(ErrStale) round trip), not fail the step — and
// its next pull must fast-forward its clock so subsequent pushes land.
func TestAsyncOverHTTPStaleRoundTrip(t *testing.T) {
	server := mustServer(t, Config{Shards: 1, LR: 0.05, Workers: 1, Staleness: 0})
	ts := httptest.NewServer(NewHandler(server))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	e := core.NewEngine(workerEngineConfig())
	step, err := mlpBuild(42, 8)(0, e)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w, err := NewWorker(0, e, step, client)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := w.Bootstrap(0); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	params, _, _, err := client.Pull(context.Background(), 0, -1)
	if err != nil || len(params) == 0 {
		t.Fatalf("pull: params=%v err=%v", params, err)
	}
	var name string
	for n := range params {
		name = n
		break
	}
	zero := map[string]*tensor.Tensor{name: tensor.Zeros(params[name].Shape()...)}

	// A free-running step: the worker pulls (clock syncs to the current
	// shard step), then the body advances the shard clock to 100 before
	// backprop streams this step's gradients — every one of them now lags
	// by ~100 > bound 0, so each comes back 409 and must be dropped, with
	// the backoff firing.
	injected := false
	losses, stale, err := w.RunFree(context.Background(), 1, func(int) (float64, error) {
		injected = true
		if _, err := client.PushGrad(context.Background(), 0, -1, 100, zero); err != nil {
			return 0, err
		}
		return step(1)
	})
	if err != nil || len(losses) != 1 || !injected {
		t.Fatalf("step with injected fresher clock: losses=%v err=%v", losses, err)
	}
	if stale == 0 {
		t.Fatal("no stale drops — the 409→ErrStale round trip never happened")
	}
	if got := w.Stats().StaleDrops; got == 0 {
		t.Fatalf("worker stats recorded no stale drops: %+v", w.Stats())
	}
	if got := w.Stats().Backoffs; got == 0 {
		t.Fatalf("stale step did not back off: %+v", w.Stats())
	}
	if st := server.Stats(); st.StaleDrops == 0 {
		t.Fatalf("server recorded no stale rejections: %+v", st)
	}

	// Recovery: the next free-running step's pull fast-forwards the worker
	// clock to the injected step, so its pushes are accepted again.
	before := w.Stats().Pushes
	if _, stale, err = w.RunFree(context.Background(), 1, func(int) (float64, error) { return step(2) }); err != nil {
		t.Fatalf("recovery step: %v", err)
	}
	if stale != 0 {
		t.Fatalf("recovery step still stale: %d drops", stale)
	}
	if w.Stats().Pushes <= before {
		t.Fatalf("recovery step pushed nothing: %+v", w.Stats())
	}
}

// TestAsyncCancellation: RunAsync honors context cancellation between local
// steps and reports ErrCanceled.
func TestAsyncCancellation(t *testing.T) {
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: 2, Shards: 2, LR: cfg.LR, Staleness: 4, Engine: cfg,
		Build: slowedBuild(42, 8, 0, time.Millisecond),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(15*time.Millisecond, cancel)
	_, err = cluster.RunAsync(ctx, 10_000)
	if err == nil {
		t.Fatal("canceled async run succeeded")
	}
}

// TestServerSideOptimizers: momentum and adam run server-side — per-tensor
// state keyed by variable name — and both still converge under free-running
// execution; the server reports the configured optimizer.
func TestServerSideOptimizers(t *testing.T) {
	for _, opt := range []string{"momentum", "adam"} {
		opt := opt
		t.Run(opt, func(t *testing.T) {
			cfg := workerEngineConfig()
			lr := cfg.LR
			if opt == "adam" {
				lr = 0.01 // conventional Adam scale; SGD-size steps diverge
			}
			cluster, err := NewCluster(ClusterConfig{
				Workers: 2, Shards: 2, LR: lr, Staleness: 4, Optimizer: opt,
				Engine: cfg, Build: mlpBuild(42, 8),
			})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if got := cluster.Server().Stats().Optimizer; got != opt {
				t.Fatalf("server optimizer %q, want %q", got, opt)
			}
			res, err := cluster.RunAsync(context.Background(), 15)
			if err != nil {
				t.Fatalf("async run: %v", err)
			}
			first := res.WorkerLosses[0][0]
			if final := res.FinalLoss(); final >= first {
				t.Fatalf("%s made no progress: first %.4f, final %.4f", opt, first, final)
			}
		})
	}
}

// TestUnknownOptimizerRejected: a bad optimizer name fails server
// construction up front with a clear error.
func TestUnknownOptimizerRejected(t *testing.T) {
	if _, err := NewServer(Config{Optimizer: "adagrad"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

// TestBarrieredNeverStale pins the synchronous invariant the free-running
// mode must not erode: a round-barriered run at staleness 0 rejects
// nothing, because worker clocks count rounds locally and identically — a
// worker pulling late in a round must never fast-forward past its peers'
// push clocks (that mechanism is free-running-only).
func TestBarrieredNeverStale(t *testing.T) {
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: 4, Shards: 4, LR: cfg.LR * 4, Staleness: 0, Engine: cfg,
		Build: mlpBuild(42, 8),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.Run(12)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stale != 0 {
		t.Fatalf("barriered run at staleness 0 dropped %d gradients", res.Stale)
	}
}
