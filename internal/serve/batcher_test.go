package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// holdWorkers claims every worker of p, so later requests queue; the returned
// release hands them all back.
func holdWorkers(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	held := make([]*core.Engine, p.cfg.Workers)
	for i := range held {
		e, err := p.acquire(context.Background())
		if err != nil {
			t.Fatalf("hold worker %d: %v", i, err)
		}
		held[i] = e
	}
	return func() {
		for _, e := range held {
			p.release(e)
		}
	}
}

// waitQueued blocks until exactly n requests wait for a worker.
func waitQueued(t *testing.T, p *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.queued.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", p.queued.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitQueued starts one predict call per input index behind a busy pool,
// in order, each queued before the next starts; wait collects the results
// and checks every caller got its own rows back.
func submitQueued(t *testing.T, p *Pool, first, n int) (wait func()) {
	t.Helper()
	got := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	base := p.queued.Load()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = predict(p, input(first+i))
		}(i)
		waitQueued(t, p, base+int64(i)+1)
	}
	return func() {
		t.Helper()
		wg.Wait()
		w, _ := p.Store().Get("w")
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("queued request %d: %v", i, errs[i])
			}
			if want := tensor.MatMul(input(first+i), w); !tensor.AllClose(got[i], want, 1e-9) {
				t.Fatalf("queued request %d got another caller's rows: %v, want %v", i, got[i], want)
			}
		}
	}
}

// TestIdlePoolRunsLoneRequestAfterGather: with a worker free, a request is a
// batch of one and the only wait on its path is the fixed gather.
func TestIdlePoolRunsLoneRequestAfterGather(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)
	before, waitBefore := p.Stats(), p.metrics.batchWait.Sum()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := predict(p, input(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	after := p.Stats()
	if got := after.Batches - before.Batches; got != n {
		t.Fatalf("%d sequential requests ran %d batches, want one batch of one each", n, got)
	}
	if got := after.BatchedRequests - before.BatchedRequests; got != n {
		t.Fatalf("batched %d requests, want %d", got, n)
	}
	// Each request is pending for gather and no longer; the slack is for a
	// loaded test machine's timer wake-ups.
	waited := time.Duration((p.metrics.batchWait.Sum() - waitBefore) * float64(time.Second))
	if waited < n*gather || waited > n*(gather+5*time.Millisecond) {
		t.Fatalf("%d requests on an idle pool spent %v pending in batch groups, want about %v", n, waited, n*gather)
	}
}

// TestGatherCoalescesConcurrentArrivals: requests of one signature that
// arrive within gather of each other on an idle pool run as one execution.
func TestGatherCoalescesConcurrentArrivals(t *testing.T) {
	p := newTestPool(t, Config{Workers: 4, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)
	// Whether a wave lands inside one gather is up to the scheduler, so the
	// assertion is over many waves: coalescing must be the common case.
	const waves, n = 20, 4
	before := p.Stats()
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := predict(p, input(i)); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	after := p.Stats()
	if reqs, batches := after.BatchedRequests-before.BatchedRequests, after.Batches-before.Batches; reqs != waves*n || batches > waves*n/2 {
		t.Fatalf("%d waves of %d concurrent requests ran %d batches over %d requests, want mostly one batch per wave",
			waves, n, batches, reqs)
	}
}

// TestBusyPoolDrainsQueueAsOneBatch: what queues while every worker is busy
// is exactly what the next free worker runs — one execution of N rows, or
// ceil(N/MaxBatch) executions past the cap — and rows scatter back to the
// right callers.
func TestBusyPoolDrainsQueueAsOneBatch(t *testing.T) {
	for _, tc := range []struct{ n, wantBatches int }{{5, 1}, {8, 1}, {19, 3}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			p := newTestPool(t, Config{Workers: 1, MaxBatch: 8, MaxQueue: 32, Engine: janusConfig(1)})
			warm(t, p, input(0), 3)
			before := p.Stats()
			release := holdWorkers(t, p)
			wait := submitQueued(t, p, 0, tc.n)
			release()
			wait()
			after := p.Stats()
			if got := after.Batches - before.Batches; got != int64(tc.wantBatches) {
				t.Fatalf("%d queued requests ran as %d executions, want %d", tc.n, got, tc.wantBatches)
			}
			if got := after.BatchedRequests - before.BatchedRequests; got != int64(tc.n) {
				t.Fatalf("batched %d requests, want %d", got, tc.n)
			}
			if len(p.batcher.groups) != 0 || p.queued.Load() != 0 || len(p.idle) != 1 {
				t.Fatalf("pool not quiescent: %d groups, %d queued, %d idle workers",
					len(p.batcher.groups), p.queued.Load(), len(p.idle))
			}
		})
	}
}

// TestQueuedSignaturesDrainOldestFirst: two signatures queued behind a busy
// pool run as two batches, in arrival order.
func TestQueuedSignaturesDrainOldestFirst(t *testing.T) {
	// Imperative workers, so each execution's print lands in the worker's
	// output in execution order.
	p := NewPool(Config{Workers: 1, Engine: core.Config{Mode: core.Imperative, PyOverheadNs: -1}})
	if _, err := p.Load("def first(x):\n    print(\"first\")\n    return x\n\ndef second(x):\n    print(\"second\")\n    return x\n"); err != nil {
		t.Fatal(err)
	}
	release := holdWorkers(t, p)
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for i, fn := range []string{"first", "first", "first", "second", "second"} {
		wg.Add(1)
		go func(i int, fn string) {
			defer wg.Done()
			outs, err := p.CallNamed(context.Background(), fn, map[string]*tensor.Tensor{"x": input(i)})
			if err == nil && !bitEqual(outs[0], input(i)) {
				err = fmt.Errorf("request %d (%s) got %v, want its own row back", i, fn, outs[0])
			}
			errs <- err
		}(i, fn)
		waitQueued(t, p, int64(i)+1)
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Batches != 2 || st.BatchedRequests != 5 {
		t.Fatalf("ran %d batches over %d requests, want 2 over 5", st.Batches, st.BatchedRequests)
	}
	if got := p.engines[0].Output(); got != "first\nsecond\n" {
		t.Fatalf("execution order %q, want the older signature first", got)
	}
}

// TestCanceledQueuedRequestLeavesItsGroup: a queued request whose context is
// canceled returns at once, frees its MaxQueue slot, and neither wedges its
// group nor cancels its batch-mates — even when it was first in line for the
// worker.
func TestCanceledQueuedRequestLeavesItsGroup(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxQueue: 3, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)
	before := p.Stats()
	release := holdWorkers(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := p.CallNamed(ctx, "predict", map[string]*tensor.Tensor{"x": input(9)})
		canceled <- err
	}()
	waitQueued(t, p, 1)
	waitMates := submitQueued(t, p, 1, 2)
	cancel()
	if err := <-canceled; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled queued request: got %v, want core.ErrCanceled", err)
	}
	// The slot came back: with MaxQueue 3 a third waiter is admitted again.
	waitQueued(t, p, 2)
	waitLate := submitQueued(t, p, 3, 1)

	release()
	waitMates()
	waitLate()
	after := p.Stats()
	if b, r := after.Batches-before.Batches, after.BatchedRequests-before.BatchedRequests; b != 1 || r != 3 {
		t.Fatalf("survivors ran as %d batches of %d requests, want 1 batch of 3", b, r)
	}
	if len(p.batcher.groups) != 0 || p.queued.Load() != 0 {
		t.Fatalf("canceled request left state behind: %d groups, %d queued", len(p.batcher.groups), p.queued.Load())
	}
	if _, err := predict(p, input(4)); err != nil {
		t.Fatalf("pool wedged after a canceled queued request: %v", err)
	}
}

// postCallFeeds posts one /v1/call body and returns the status and reply; a
// transport failure reads as status 0 with the error as the reply.
func postCallFeeds(ts *httptest.Server, body string) (int, string) {
	resp, err := ts.Client().Post(ts.URL+"/v1/call", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

const predictBody = `{"fn": "predict", "feeds": {"x": [[1.0, 2.0]]}}`

// TestBatchedCallBackpressureStatuses: the queue bound and the worker-wait
// timeout hold for batched calls and surface as 429 and 503.
func TestBatchedCallBackpressureStatuses(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxQueue: 1, AcquireTimeout: 300 * time.Millisecond,
		Engine: janusConfig(1)})
	ts := httptest.NewServer(NewServerWith(p).Handler())
	defer ts.Close()
	release := holdWorkers(t, p)

	queued := make(chan int, 1)
	go func() {
		status, _ := postCallFeeds(ts, predictBody)
		queued <- status
	}()
	waitQueued(t, p, 1)
	if status, body := postCallFeeds(ts, predictBody); status != http.StatusTooManyRequests {
		t.Fatalf("arrival past MaxQueue -> %d %s, want 429", status, body)
	}
	if status := <-queued; status != http.StatusServiceUnavailable {
		t.Fatalf("queued batched call -> %d, want 503 after AcquireTimeout", status)
	}
	if len(p.batcher.groups) != 0 || p.queued.Load() != 0 {
		t.Fatalf("refused requests left state behind: %d groups, %d queued", len(p.batcher.groups), p.queued.Load())
	}
	release()
	if status, body := postCallFeeds(ts, predictBody); status != http.StatusOK {
		t.Fatalf("call after the overload -> %d %s", status, body)
	}
	if st := p.Stats(); st.Rejected != 1 || st.TimedOut != 1 || st.Batches != 1 {
		t.Fatalf("rejected %d, timed out %d, batches %d; want 1, 1, 1", st.Rejected, st.TimedOut, st.Batches)
	}
}

// TestBatcherWavesStress hammers the batcher with concurrent waves of
// requests on a saturated one-worker pool and on a four-worker pool, checking
// every scattered row. Run under -race in CI.
func TestBatcherWavesStress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := newTestPool(t, Config{Workers: workers, MaxBatch: 4, Engine: janusConfig(1)})
			warm(t, p, input(0), 3)
			w, _ := p.Store().Get("w")
			before := p.Stats()

			const goroutines, waves = 12, 6
			errs := make(chan error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < waves; r++ {
						i := g*waves + r
						got, err := predict(p, input(i))
						if err != nil {
							errs <- fmt.Errorf("goroutine %d wave %d: %v", g, r, err)
							return
						}
						if want := tensor.MatMul(input(i), w); !tensor.AllClose(got, want, 1e-9) {
							errs <- fmt.Errorf("goroutine %d wave %d: got %v want %v", g, r, got, want)
							return
						}
						// Jitter so waves straddle executions.
						time.Sleep(time.Duration(i%3) * 300 * time.Microsecond)
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			after := p.Stats()
			if got := after.BatchedRequests - before.BatchedRequests; got != goroutines*waves {
				t.Fatalf("batched %d requests, want %d", got, goroutines*waves)
			}
			if len(p.batcher.groups) != 0 || p.queued.Load() != 0 || len(p.idle) != workers {
				t.Fatalf("pool not quiescent: %d groups, %d queued, %d of %d workers idle",
					len(p.batcher.groups), p.queued.Load(), len(p.idle), workers)
			}
		})
	}
}

// TestZeroRowFeedRejected: a zero-row batched feed is a client error on
// bucketed and exact pools alike — in-process and over HTTP — and the pool
// serves the next request. (With bucketing on it used to reach padRows and
// panic outside guard, killing the process.)
func TestZeroRowFeedRejected(t *testing.T) {
	for _, bucket := range []bool{true, false} {
		t.Run(fmt.Sprintf("bucket=%v", bucket), func(t *testing.T) {
			p := newTestPool(t, Config{Workers: 1, BucketBatch: bucket, Engine: janusConfig(1)})
			_, err := p.CallNamed(context.Background(), "predict",
				map[string]*tensor.Tensor{"x": tensor.New([]int{0, 2}, nil)})
			if err == nil || !strings.Contains(err.Error(), "zero rows") {
				t.Fatalf("zero-row feed: got %v, want a clear zero-rows error", err)
			}
			ts := httptest.NewServer(NewServerWith(p).Handler())
			defer ts.Close()
			status, body := postCallFeeds(ts, `{"fn": "predict", "feeds": {"x": []}}`)
			if status < 400 || status >= 500 || !strings.Contains(body, "zero rows") {
				t.Fatalf("zero-row body -> %d %s, want a 4xx naming the zero rows", status, body)
			}
			if status, body := postCallFeeds(ts, predictBody); status != http.StatusOK {
				t.Fatalf("call after the zero-row request -> %d %s", status, body)
			}
		})
	}
}

// TestBatchAssemblyPanicIsRequestError: stacking and scattering run under
// guard, so a batch that panics during assembly fails its requests and hands
// the worker back instead of taking the process down.
func TestBatchAssemblyPanicIsRequestError(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Engine: janusConfig(1)})
	mk := func(x *tensor.Tensor) *inferReq {
		return &inferReq{ctx: context.Background(), feeds: []feed{{name: "x", t: x}},
			rows: x.Dim(0), enq: time.Now(), done: make(chan struct{})}
	}
	// Mismatched per-item shapes never share a group; forcing them into one
	// batch makes tensor.Concat panic.
	batch := []*inferReq{mk(input(0)), mk(tensor.New([]int{1, 5}, make([]float64, 5)))}
	e, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.batcher.run(e, "predict", batch)
	for i, r := range batch {
		<-r.done
		if r.err == nil || !strings.Contains(r.err.Error(), "request failed") {
			t.Fatalf("request %d: err = %v, want the recovered panic", i, r.err)
		}
	}
	if _, err := predict(p, input(1)); err != nil {
		t.Fatalf("pool broken after a panicking batch: %v", err)
	}
}

// TestSharedBatchIgnoresMemberCancellation: a batch of more than one runs to
// completion whatever its members' contexts say, while a batch of one honors
// its caller's context end to end.
func TestSharedBatchIgnoresMemberCancellation(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Engine: janusConfig(1)})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func(ctx context.Context, i int) *inferReq {
		return &inferReq{ctx: ctx, feeds: []feed{{name: "x", t: input(i)}},
			rows: 1, enq: time.Now(), done: make(chan struct{})}
	}
	runBatch := func(batch ...*inferReq) {
		t.Helper()
		e, err := p.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p.batcher.run(e, "predict", batch)
	}
	shared := []*inferReq{mk(gone, 1), mk(context.Background(), 2)}
	runBatch(shared...)
	w, _ := p.Store().Get("w")
	for i, r := range shared {
		if r.err != nil {
			t.Fatalf("member %d of a shared batch: %v", i, r.err)
		}
		if want := tensor.MatMul(input(i+1), w); !tensor.AllClose(r.outs[0], want, 1e-9) {
			t.Fatalf("member %d got %v, want %v", i, r.outs[0], want)
		}
	}
	alone := mk(gone, 3)
	runBatch(alone)
	if !errors.Is(alone.err, core.ErrCanceled) {
		t.Fatalf("batch of one under a canceled context: err = %v, want core.ErrCanceled", alone.err)
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

var spaceBlock = bytes.Repeat([]byte{' '}, 64<<10)

func (spaces) Read(b []byte) (int, error) { return copy(b, spaceBlock), nil }

// TestOversizedBodyRefused: a body past maxBodyBytes is refused with 413
// instead of being buffered, and the server keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	srv := NewServerWith(newTestPool(t, Config{Workers: 1, Engine: janusConfig(1)}))
	body := io.MultiReader(io.LimitReader(spaces{}, maxBodyBytes), strings.NewReader(predictBody))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/call", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body -> %d %s, want 413", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/call", bytes.NewReader([]byte(predictBody))))
	if rec.Code != http.StatusOK {
		t.Fatalf("call after the oversized body -> %d %s", rec.Code, rec.Body)
	}
}

// TestRaggedFloatLiteralRejected: the float64 arm of jsonToTensor (values
// from a decoder without UseNumber) refuses a number where a nested row is
// due, like the json.Number arm.
func TestRaggedFloatLiteralRejected(t *testing.T) {
	// Three values for a [3, 1] shape: only the depth check can tell.
	if got, err := jsonToTensor([]any{[]any{1.0}, 2.0, 3.0}); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged float literal: got %v, %v, want a ragged-literal error", got, err)
	}
	if got, err := jsonToTensor([]any{[]any{1.0, 2.0}}); err != nil || got.Dim(1) != 2 {
		t.Fatalf("well-formed float literal: %v, %v", got, err)
	}
}
