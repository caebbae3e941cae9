package janus

import (
	"context"
	"errors"
	"net/http/httptest"
	"repro/internal/ps"
	"repro/internal/serve"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// regression fixture shared by the handle tests: y = 2x learned by a [1,1]
// weight.
const regressionSrc = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    return mse(matmul(x, w), y)

def train_step(x, y):
    return optimize(lambda: loss_fn(x, y))

def train(x, y):
    loss = constant(0.0)
    for i in range(100):
        loss = optimize(lambda: loss_fn(x, y))
    return loss
`

func regressionData() (x, y *tensor.Tensor) {
	return tensor.FromRows([][]float64{{1}, {2}}), tensor.FromRows([][]float64{{2}, {4}})
}

func TestCompileFuncCallLocal(t *testing.T) {
	rt := New(Options{Seed: 1, LearningRate: 0.1})
	prog, err := rt.Compile(regressionSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := prog.Func("train")
	if err != nil {
		t.Fatal(err)
	}
	if got := fn.Params(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Params() = %v, want [x y]", got)
	}
	x, y := regressionData()
	out, err := fn.Call(context.Background(), Feeds{"x": x, "y": y})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := out.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("final loss %v, want < 0.01", loss)
	}
	w, err := rt.Parameter("w")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(w, tensor.FromRows([][]float64{{2}}), 0.05) {
		t.Fatalf("w = %v, want ~2", w)
	}
	if st := rt.Stats(); st.Conversions == 0 || st.GraphSteps == 0 {
		t.Fatalf("janus engine did not convert under the handle API: %+v", st)
	}
}

func TestFuncUnknownName(t *testing.T) {
	rt := New(Options{Seed: 1})
	prog, err := rt.Compile(regressionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Func("nope"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("Func(nope): got %v, want ErrUnknownFunction", err)
	}
}

func TestCallFeedValidation(t *testing.T) {
	rt := New(Options{Seed: 1})
	prog, err := rt.Compile(regressionSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.MustFunc("train_step")
	x, y := regressionData()
	_, err = fn.Call(context.Background(), Feeds{"x": x, "z": y})
	if err == nil || !strings.Contains(err.Error(), `no parameter "z"`) ||
		!strings.Contains(err.Error(), "x, y") {
		t.Fatalf("unknown feed: got %v, want a clear error naming the signature", err)
	}
	_, err = fn.Call(context.Background(), Feeds{"x": x})
	if err == nil || !strings.Contains(err.Error(), `missing feed for parameter "y"`) {
		t.Fatalf("missing feed: got %v, want a missing-parameter error", err)
	}
}

// TestCallCancellationAllOrNothing is the acceptance test for context
// threading: cancelling a Call that is inside a long training loop must (1)
// stop it promptly with ErrCanceled and (2) leave parameters exactly equal
// to some whole number of completed steps — never a half-applied step.
func TestCallCancellationAllOrNothing(t *testing.T) {
	const src = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    return mse(matmul(x, w), y)

def train_step(x, y):
    return optimize(lambda: loss_fn(x, y))

def train_forever(x, y):
    for i in range(1000000):
        optimize(lambda: loss_fn(x, y))
    return constant(0.0)
`
	x, y := regressionData()
	// Imperative engine on both sides: the step sequence is deterministic,
	// so a canceled run's parameters must match a reference prefix exactly.
	rt := New(Options{Engine: EngineImperative, Seed: 9, LearningRate: 0.01})
	prog, err := rt.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.MustFunc("train_forever")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fn.Call(ctx, Feeds{"x": x, "y": y})
		done <- err
	}()
	// Cancel only after the loop has demonstrably completed a few steps, so
	// the cancellation provably lands mid-loop (Stats is race-safe).
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().ImperativeSteps < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the training loop")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want the context cause wrapped too", err)
	}
	steps := rt.Stats().ImperativeSteps
	if steps < 1 || steps >= 1000000 {
		t.Fatalf("cancellation landed at %d steps, want mid-loop", steps)
	}
	got, err := rt.Parameter("w")
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the identical engine stepped one optimize() at a time;
	// collect the parameter after every completed step and require the
	// canceled run to match one of the prefixes bit-for-bit.
	ref := New(Options{Engine: EngineImperative, Seed: 9, LearningRate: 0.01})
	refProg, err := ref.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	step := refProg.MustFunc("train_step")
	match := -1
	for k := 0; k <= steps+1; k++ {
		w, err := ref.Parameter("w")
		if k > 0 && err != nil {
			t.Fatal(err)
		}
		if err == nil && tensor.SameShape(w, got) && tensor.Equal(w, got) {
			match = k
			break
		}
		if _, err := step.Call(context.Background(), Feeds{"x": x, "y": y}); err != nil {
			t.Fatal(err)
		}
	}
	if match < 0 {
		t.Fatalf("canceled parameters (%v after %d counted steps) match no whole-step prefix — a step was half-applied", got, steps)
	}
}

// TestServedFunctionBatches drives the Server backend: concurrent handle
// calls with the same named-feed signature must coalesce into batched
// executions and return per-request rows.
func TestServedFunctionBatches(t *testing.T) {
	srv := NewServer(ServerOptions{
		PoolSize: 2,
		MaxBatch: 4,
		Options:  Options{Seed: 3, ProfileIterations: 1},
	})
	prog, err := srv.Compile(`
def scale(x, s):
    return x * s
`)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := prog.Func("scale")
	if err != nil {
		t.Fatal(err)
	}
	call := func(v float64) (float64, error) {
		out, err := fn.Call(context.Background(), Feeds{
			"x": tensor.FromRows([][]float64{{v}}),
			"s": tensor.FromRows([][]float64{{2}}),
		})
		if err != nil {
			return 0, err
		}
		y := out.Tensor()
		if y == nil || y.Size() != 1 {
			return 0, errors.New("want one 1-element tensor out")
		}
		return y.Data()[0], nil
	}
	// Warm sequentially (profiling+conversion), then hammer concurrently.
	for i := 0; i < 3; i++ {
		if got, err := call(3); err != nil || got != 6 {
			t.Fatalf("warm call = %v, %v (want 6)", got, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := call(float64(i))
			if err == nil && got != float64(2*i) {
				err = errors.New("wrong row scattered back")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent call %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.BatchedRequests == 0 {
		t.Fatalf("no batching observed: %+v", st)
	}
	// The multi-feed signature batches only when feed shapes agree; a
	// scalar feed (no batch dimension) must be rejected up front.
	_, err = fn.Call(context.Background(), Feeds{
		"x": tensor.Scalar(1), "s": tensor.FromRows([][]float64{{2}})})
	if err == nil || !strings.Contains(err.Error(), "leading batch dimension") {
		t.Fatalf("scalar feed: got %v, want a clear batch-dimension error", err)
	}
}

// TestSentinelStatusRoundTrip proves the errors.Is round trip through the
// serving HTTP status mapping in both directions, and through a live 404.
func TestSentinelStatusRoundTrip(t *testing.T) {
	for _, e := range []error{ErrOverloaded, ErrAcquireTimeout, ErrUnknownFunction, ErrCanceled} {
		status := serve.StatusForError(e)
		back := ErrorFromStatus(status, e.Error())
		if !errors.Is(back, e) {
			t.Fatalf("round trip lost %v (status %d, got %v)", e, status, back)
		}
	}
	if !errors.Is(ErrorFromStatus(409, "stale"), ErrStale) {
		t.Fatal("409 did not map to ErrStale")
	}

	// Live wire check: calling an unknown function over HTTP yields 404,
	// which maps back to ErrUnknownFunction.
	srv := NewServer(ServerOptions{PoolSize: 1, Options: Options{Seed: 1}})
	if _, err := srv.Compile("def f(x):\n    return x\n"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/call", "application/json",
		strings.NewReader(`{"fn": "missing", "feeds": {"x": [[1.0]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown function over HTTP: status %d, want 404", resp.StatusCode)
	}
	if err := ErrorFromStatus(resp.StatusCode, "missing"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("mapped %v, want ErrUnknownFunction", err)
	}
}

// TestClusterFunctionTrains drives the distributed backend end to end: a
// 2-replica cluster around the in-process sharded parameter server, trained
// purely through the public handle API, must converge like the local run.
func TestClusterFunctionTrains(t *testing.T) {
	cl, err := NewCluster(regressionSrc, TrainOptions{
		Replicas: 2,
		Options:  Options{Seed: 5, LearningRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := cl.Func("train_step")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromRows([][]float64{{1}, {2}, {3}, {4}})
	y := tensor.FromRows([][]float64{{2}, {4}, {6}, {8}})
	var loss float64
	for i := 0; i < 120; i++ {
		out, err := fn.Call(context.Background(), Feeds{"x": x, "y": y})
		if err != nil {
			t.Fatal(err)
		}
		if loss, err = out.Scalar(); err != nil {
			t.Fatal(err)
		}
	}
	if loss > 0.05 {
		t.Fatalf("distributed training did not converge: final loss %v", loss)
	}
	w, err := cl.Parameter("w")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(w, tensor.FromRows([][]float64{{2}}), 0.1) {
		t.Fatalf("server-side w = %v, want ~2", w)
	}
	st := cl.Stats()
	if st.Pushes == 0 || st.Steps == 0 {
		t.Fatalf("no gradient traffic recorded: %+v", st)
	}
	// Feed-splitting guardrails: too few rows and scalar feeds fail clearly.
	if _, err := fn.Call(context.Background(), Feeds{
		"x": tensor.FromRows([][]float64{{1}}),
		"y": tensor.FromRows([][]float64{{2}}),
	}); err == nil || !strings.Contains(err.Error(), "cannot be split") {
		t.Fatalf("1 row across 2 workers: got %v, want a clear split error", err)
	}
}

// TestClusterCallCancellation: cancelling a distributed Call returns
// ErrCanceled and the cluster stays usable for the next round.
func TestClusterCallCancellation(t *testing.T) {
	const src = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    return mse(matmul(x, w), y)

def slow_round(x, y):
    loss = constant(0.0)
    for i in range(200000):
        loss = optimize(lambda: loss_fn(x, y))
    return loss

def train_step(x, y):
    return optimize(lambda: loss_fn(x, y))
`
	cl, err := NewCluster(src, TrainOptions{
		Replicas: 2,
		Options:  Options{Engine: EngineImperative, Seed: 5, LearningRate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cl.Func("slow_round")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromRows([][]float64{{1}, {2}})
	y := tensor.FromRows([][]float64{{2}, {4}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := slow.Call(ctx, Feeds{"x": x, "y": y})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cluster cancellation did not stop the round")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	// The cluster remains consistent and trainable after the canceled round.
	step, err := cl.Func("train_step")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step.Call(context.Background(), Feeds{"x": x, "y": y}); err != nil {
		t.Fatalf("post-cancel round failed: %v", err)
	}
}

// TestClusterOverExternalServer drives the TrainOptions.ServerAddr path: a
// public-API cluster whose replicas talk HTTP to a janusps-style parameter
// server in another "process" (an httptest server over ps.NewHandler).
func TestClusterOverExternalServer(t *testing.T) {
	psrv, err := ps.NewServer(ps.Config{Shards: 2, LR: 0.05, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ps.NewHandler(psrv))
	defer ts.Close()
	cl, err := NewCluster(regressionSrc, TrainOptions{
		Replicas:   2,
		ServerAddr: ts.URL,
		Options:    Options{Seed: 5, LearningRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	step, err := cl.Func("train_step")
	if err != nil {
		t.Fatal(err)
	}
	feeds := Feeds{
		"x": tensor.FromRows([][]float64{{1}, {2}, {3}, {4}}),
		"y": tensor.FromRows([][]float64{{2}, {4}, {6}, {8}}),
	}
	var loss float64
	for i := 0; i < 80; i++ {
		out, err := step.Call(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if loss, err = out.Scalar(); err != nil {
			t.Fatal(err)
		}
	}
	if loss > 0.05 {
		t.Fatalf("training over HTTP transport did not converge: final loss %v", loss)
	}
	if st := psrv.Stats(); st.Pushes == 0 {
		t.Fatalf("no pushes reached the external server: %+v", st)
	}
}

// TestZeroFeedCallAllBackends: a no-parameter handle call must behave the
// same on every backend (the serve batcher has nothing to coalesce, so it
// executes directly instead of rejecting the empty feed set).
func TestZeroFeedCallAllBackends(t *testing.T) {
	const src = `
def answer():
    return constant([[42.0]])
`
	rt := New(Options{Seed: 1})
	prog, err := rt.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{PoolSize: 1, Options: Options{Seed: 1}})
	sprog, err := srv.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Program{"local": prog, "server": sprog} {
		fn, err := p.Func("answer")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := fn.Call(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: zero-feed call: %v", name, err)
		}
		if got := out.Tensor(); got == nil || got.Data()[0] != 42 {
			t.Fatalf("%s: got %v, want 42", name, got)
		}
	}
}

// TestNoFeedNameIsReserved: "#0" — once the internal key of a positional
// path — binds like any other name, so it fails as an unknown parameter.
func TestNoFeedNameIsReserved(t *testing.T) {
	srv := NewServer(ServerOptions{PoolSize: 1, Options: Options{Seed: 1}})
	if _, err := srv.Compile("def f(x):\n    return x\n"); err != nil {
		t.Fatal(err)
	}
	_, err := srv.srv.Pool().CallNamed(context.Background(), "f",
		map[string]*tensor.Tensor{"#0": tensor.FromRows([][]float64{{1}})})
	if err == nil || !strings.Contains(err.Error(), `no parameter "#0"`) {
		t.Fatalf(`feed "#0": got %v, want an unknown-parameter error`, err)
	}
}

// TestBatchedTrainStepScalarLoss: concurrent same-signature train-step
// handle calls merge into one step over the concatenated batch, and every
// merged caller receives the shared scalar loss instead of an error.
func TestBatchedTrainStepScalarLoss(t *testing.T) {
	srv := NewServer(ServerOptions{
		PoolSize: 1, // one worker: calls arriving while it is busy queue and merge
		MaxBatch: 4,
		Options:  Options{Seed: 3, LearningRate: 0.01},
	})
	if _, err := srv.Compile(regressionSrc); err != nil {
		t.Fatal(err)
	}
	fn, err := srv.Func("train_step")
	if err != nil {
		t.Fatal(err)
	}
	x, y := regressionData()
	const calls = 6
	var wg sync.WaitGroup
	losses := make([]float64, calls)
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := fn.Call(context.Background(), Feeds{"x": x, "y": y})
			if err == nil {
				losses[i], err = out.Scalar()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("merged train call %d: %v", i, err)
		}
		if losses[i] <= 0 {
			t.Fatalf("merged train call %d: loss %v, want positive scalar", i, losses[i])
		}
	}
	if st := srv.Stats(); st.BatchedRequests < calls {
		t.Logf("note: only %d of %d requests batched (timing)", st.BatchedRequests, calls)
	}
}

// TestClusterSecondFunctionBootstraps: two handles on one cluster using
// disjoint variable sets must each bootstrap (register their variables with
// the parameter server) on their own first Call.
func TestClusterSecondFunctionBootstraps(t *testing.T) {
	const src = `
def loss_a(x, y):
    wa = variable("wa", [1, 1])
    return mse(matmul(x, wa), y)

def loss_b(x, y):
    wb = variable("wb", [1, 1])
    return mse(matmul(x, wb), y)

def train_a(x, y):
    return optimize(lambda: loss_a(x, y))

def train_b(x, y):
    return optimize(lambda: loss_b(x, y))
`
	cl, err := NewCluster(src, TrainOptions{
		Replicas: 2,
		Options:  Options{Seed: 5, LearningRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	feeds := Feeds{
		"x": tensor.FromRows([][]float64{{1}, {2}}),
		"y": tensor.FromRows([][]float64{{2}, {4}}),
	}
	for _, name := range []string{"train_a", "train_b"} {
		fn, err := cl.Func(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := fn.Call(context.Background(), feeds); err != nil {
				t.Fatalf("%s call %d: %v", name, i, err)
			}
		}
	}
	for _, p := range []string{"wa", "wb"} {
		if _, err := cl.Parameter(p); err != nil {
			t.Fatalf("parameter %q not registered server-side: %v", p, err)
		}
	}
}

// TestClusterAsyncHandleTrains drives the free-running mode through the
// public handle API: each Call is an async epoch (AsyncSteps local steps per
// replica with no per-step barrier, staleness bound arbitrating), with a
// server-side momentum optimizer holding its state keyed by variable name.
func TestClusterAsyncHandleTrains(t *testing.T) {
	cl, err := NewCluster(regressionSrc, TrainOptions{
		Replicas:   2,
		Staleness:  2,
		Async:      true,
		AsyncSteps: 10,
		// Momentum's asymptotic step gain is 1/(1-mu) = 10x the base rate;
		// 0.005 keeps the effective rate (~0.05) safely inside the stable
		// region for this quadratic regardless of async push ordering.
		Optimizer: "momentum",
		Options:   Options{Seed: 5, LearningRate: 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := cl.Func("train_step")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromRows([][]float64{{1}, {2}, {3}, {4}})
	y := tensor.FromRows([][]float64{{2}, {4}, {6}, {8}})
	var loss float64
	for i := 0; i < 12; i++ {
		out, err := fn.Call(context.Background(), Feeds{"x": x, "y": y})
		if err != nil {
			t.Fatal(err)
		}
		if loss, err = out.Scalar(); err != nil {
			t.Fatal(err)
		}
	}
	if loss > 0.05 {
		t.Fatalf("async distributed training did not converge: final loss %v", loss)
	}
	w, err := cl.Parameter("w")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(w, tensor.FromRows([][]float64{{2}}), 0.1) {
		t.Fatalf("server-side w = %v, want ~2", w)
	}
	// 12 calls x 2 replicas x 10 free-running steps each, plus 2 bootstrap
	// runs that don't count as worker steps.
	st := cl.Stats()
	if st.Steps != 12*2*10 {
		t.Fatalf("free-running steps %d, want %d", st.Steps, 12*2*10)
	}
}

// TestClusterAsyncRejectsBadOptimizer: an unknown TrainOptions.Optimizer
// fails NewCluster up front.
func TestClusterAsyncRejectsBadOptimizer(t *testing.T) {
	if _, err := NewCluster(regressionSrc, TrainOptions{Optimizer: "adagrad"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}
