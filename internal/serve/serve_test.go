package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// modelProgram is the serving fixture: a batch-parallel inference function
// over a shared trainable parameter, plus a training-step entry point.
const modelProgram = `
def predict(x):
    w = variable("w", [2, 3])
    return matmul(x, w)

def loss_fn(x, y):
    w = variable("w", [2, 3])
    return mse(matmul(x, w), y)

def train_step(x, y):
    return optimize(lambda: loss_fn(x, y))
`

func janusConfig(profileIters int) core.Config {
	cfg := core.DefaultJanusConfig()
	cfg.ProfileIters = profileIters
	cfg.Seed = 42
	cfg.PyOverheadNs = -1 // don't simulate Python dispatch cost in tests
	return cfg
}

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p := NewPool(cfg)
	if _, err := p.Load(modelProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// predict runs one batched predict call and returns its single output.
func predict(p *Pool, x *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := p.CallNamed(context.Background(), "predict", map[string]*tensor.Tensor{"x": x})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// warm drives enough predict requests through the pool to get past profiling
// and leave a compiled graph in the cache.
func warm(t *testing.T, p *Pool, x *tensor.Tensor, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := predict(p, x); err != nil {
			t.Fatalf("warm predict: %v", err)
		}
	}
}

func input(i int) *tensor.Tensor {
	return tensor.New([]int{1, 2}, []float64{float64(i % 7), float64(i%5) - 2})
}

func TestConcurrentCallNamedMatchesSequential(t *testing.T) {
	p := newTestPool(t, Config{Workers: 4, MaxBatch: 8, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)

	w, ok := p.Store().Get("w")
	if !ok {
		t.Fatal("variable w never created")
	}
	expected := func(i int) *tensor.Tensor { return tensor.MatMul(input(i), w) }

	const clients, perClient = 16, 25
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := p.NewSession()
			for r := 0; r < perClient; r++ {
				i := c*perClient + r
				got, err := sess.CallNamed(context.Background(), "predict",
					map[string]*tensor.Tensor{"x": input(i)})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				if !tensor.AllClose(got[0], expected(i), 1e-9) {
					errs <- fmt.Errorf("client %d req %d: got %v want %v", c, r, got[0], expected(i))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := p.Stats()
	if st.Requests < clients*perClient {
		t.Fatalf("requests %d, want >= %d", st.Requests, clients*perClient)
	}
	if st.GraphSteps == 0 {
		t.Fatalf("no graph execution happened: %+v", st)
	}
}

func TestBatchedEqualsUnbatched(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 8, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)

	// Unbatched reference: direct Call bypasses the batcher entirely.
	const n = 24
	want := make([]*tensor.Tensor, n)
	for i := range want {
		out, err := p.Call("predict", []minipy.Value{minipy.NewTensor(input(i))})
		if err != nil {
			t.Fatalf("unbatched call %d: %v", i, err)
		}
		want[i] = out.(*minipy.TensorVal).T()
	}

	// Batched: all n at once through the batcher.
	got := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = predict(p, input(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("batched infer %d: %v", i, errs[i])
		}
		if !tensor.AllClose(got[i], want[i], 1e-9) {
			t.Fatalf("batched result %d diverges: got %v want %v", i, got[i], want[i])
		}
	}
	if st := p.Stats(); st.Batches == 0 || st.BatchedRequests < n {
		t.Fatalf("batcher never coalesced: %+v", st)
	}
}

func TestCrossSessionGraphCacheHit(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 1, Engine: janusConfig(1)})
	a, b := p.NewSession(), p.NewSession()

	// Session A: one profiling run, then the conversion.
	for i := 0; i < 3; i++ {
		if _, err := a.CallNamed(context.Background(), "predict", map[string]*tensor.Tensor{"x": input(i)}); err != nil {
			t.Fatalf("session a: %v", err)
		}
	}
	st := p.Stats()
	if st.Conversions != 1 {
		t.Fatalf("session a conversions = %d, want 1", st.Conversions)
	}
	hitsAfterA := st.CacheHits

	// Session B, same signature: must hit A's graph, never reconvert.
	if _, err := b.CallNamed(context.Background(), "predict", map[string]*tensor.Tensor{"x": input(9)}); err != nil {
		t.Fatalf("session b: %v", err)
	}
	st = p.Stats()
	if st.Conversions != 1 {
		t.Fatalf("session b triggered a reconversion: %d conversions", st.Conversions)
	}
	if st.CacheHits <= hitsAfterA {
		t.Fatalf("session b did not hit the shared cache: hits %d -> %d", hitsAfterA, st.CacheHits)
	}
	if st.CachedGraphs == 0 || st.CachedFuncs == 0 {
		t.Fatalf("cache reports no entries: %+v", st)
	}
}

func TestTrainingThroughPoolConverges(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 4, Engine: janusConfig(2)})
	x := minipy.NewTensor(tensor.New([]int{4, 2}, []float64{0, 0, 1, 0, 0, 1, 1, 1}))
	// Target: y = x @ [[1,2,3],[4,5,6]].
	wTrue := tensor.New([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	y := minipy.NewTensor(tensor.MatMul(x.T(), wTrue))

	var lastLoss float64
	sess := p.NewSession()
	for i := 0; i < 300; i++ {
		out, err := sess.Call("train_step", []minipy.Value{x, y})
		if err != nil {
			t.Fatalf("train_step %d: %v", i, err)
		}
		lastLoss = out.(*minipy.TensorVal).T().Item()
	}
	if lastLoss > 0.01 {
		t.Fatalf("training through the pool did not converge: loss %v", lastLoss)
	}
	st := p.Stats()
	if st.GraphSteps == 0 {
		t.Fatalf("training never ran on the graph executor: %+v", st)
	}
}

// TestMalformedCallReturnsError drives a malformed feed through the pool: a
// kernel panic deep in the executor must come back as a request error, and
// the pool must keep serving afterwards.
func TestMalformedCallReturnsError(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 1, Engine: janusConfig(1)})
	warm(t, p, input(0), 3)

	// predict expects [n, 2] against w [2, 3]; a [1, 5] input breaks matmul.
	bad := tensor.New([]int{1, 5}, []float64{1, 2, 3, 4, 5})
	if _, err := p.Call("predict", []minipy.Value{minipy.NewTensor(bad)}); err == nil {
		t.Fatal("malformed call succeeded")
	}
	// The offending request must not have poisoned the pool.
	if _, err := predict(p, input(1)); err != nil {
		t.Fatalf("pool broken after malformed call: %v", err)
	}
}

// TestBackpressureRejectsWhenQueueFull saturates a 1-worker pool through a
// long-running call and checks that excess arrivals fail fast with
// ErrOverloaded instead of queueing without bound.
func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxQueue: 1, AcquireTimeout: 5 * time.Second,
		Engine: janusConfig(1)})

	block := make(chan struct{})
	// Occupy the lone worker directly so the pool has zero idle engines.
	e, err := p.acquire(context.Background())
	if err != nil {
		t.Fatalf("prime acquire: %v", err)
	}
	go func() {
		<-block
		p.release(e)
	}()

	// One waiter is admitted (MaxQueue=1)...
	admitted := make(chan error, 1)
	go func() {
		_, err := p.Call("predict", []minipy.Value{minipy.NewTensor(input(0))})
		admitted <- err
	}()
	// Give the admitted waiter time to enter the queue.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// ...and the next arrival is rejected immediately.
	start := time.Now()
	_, err = p.Call("predict", []minipy.Value{minipy.NewTensor(input(1))})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow arrival: got %v, want ErrOverloaded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("rejection took %v, want fail-fast", time.Since(start))
	}
	close(block)
	if err := <-admitted; err != nil {
		t.Fatalf("admitted waiter failed: %v", err)
	}
	if st := p.Stats(); st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
}

// TestBackpressureTimesOutWaiters checks the 503 path: a queued request
// gives up after AcquireTimeout.
func TestBackpressureTimesOutWaiters(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxQueue: 4, AcquireTimeout: 30 * time.Millisecond,
		Engine: janusConfig(1)})
	e, err := p.acquire(context.Background())
	if err != nil {
		t.Fatalf("prime acquire: %v", err)
	}
	defer p.release(e)

	start := time.Now()
	_, err = p.Call("predict", []minipy.Value{minipy.NewTensor(input(0))})
	if !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("queued call: got %v, want ErrAcquireTimeout", err)
	}
	if el := time.Since(start); el < 30*time.Millisecond || el > 5*time.Second {
		t.Fatalf("timeout fired after %v, want ~30ms", el)
	}
	if st := p.Stats(); st.TimedOut == 0 {
		t.Fatalf("timeout not counted: %+v", st)
	}
}

// TestSessionStateIsSessionAffine is the /v1/run fix: globals bound by a
// session's scripts must follow the session across workers, and must be
// invisible to other sessions.
func TestSessionStateIsSessionAffine(t *testing.T) {
	// Two workers, so consecutive requests routinely land on different
	// engines; the counter must survive regardless.
	p := newTestPool(t, Config{Workers: 2, Engine: janusConfig(1)})
	a, b := p.NewSession(), p.NewSession()

	if _, err := a.Exec("counter = 0"); err != nil {
		t.Fatalf("init: %v", err)
	}
	for i := 1; i <= 6; i++ {
		out, err := a.Exec("counter = counter + 1\nprint(counter)")
		if err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		if want := fmt.Sprintf("%d\n", i); out != want {
			t.Fatalf("increment %d printed %q, want %q", i, out, want)
		}
	}
	// Session B must not see A's counter.
	if _, err := b.Exec("print(counter)"); err == nil {
		t.Fatal("session B sees session A's globals")
	}
	// Session-defined functions are callable via Call and close over
	// session state.
	if _, err := a.Exec("def bump(d):\n    global counter\n    counter = counter + d\n    return counter"); err != nil {
		t.Fatalf("def: %v", err)
	}
	funcsBefore := p.Cache().Funcs()
	for i := 0; i < 4; i++ {
		out, err := a.Call("bump", []minipy.Value{minipy.IntVal(10)})
		if err != nil {
			t.Fatalf("bump %d: %v", i, err)
		}
		if got := int(out.(minipy.IntVal)); got != 6+10*(i+1) {
			t.Fatalf("bump %d returned %d, want %d", i, got, 6+10*(i+1))
		}
	}
	// Session-defined functions run on the interpreter and must not grow
	// the shared graph cache's per-function bookkeeping.
	if got := p.Cache().Funcs(); got != funcsBefore {
		t.Fatalf("session function leaked into the shared cache: funcs %d -> %d", funcsBefore, got)
	}
	// Loaded module functions still resolve through the session.
	if _, err := a.Call("predict", []minipy.Value{minipy.NewTensor(input(0))}); err != nil {
		t.Fatalf("module function through session: %v", err)
	}
}

// TestSessionlessRunIsEphemeralAndParallel pins the sessionless /v1/run
// semantics: scripts run in a throwaway module scope (no state leaks onto
// workers or across requests) and requests do not serialize on any shared
// session.
func TestSessionlessRunIsEphemeralAndParallel(t *testing.T) {
	srv := NewServer(Config{Workers: 4, Engine: janusConfig(1)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/load", map[string]any{"program": modelProgram})

	// A sessionless script's bindings vanish with the request...
	postJSON(t, ts.Client(), ts.URL+"/v1/run", map[string]any{"program": "leak = 41"})
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		bytes.NewReader([]byte(`{"program": "print(leak)"}`)))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("sessionless state leaked across requests")
	}
	// ...while reads still see the loaded module definitions, concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := postJSON(t, ts.Client(), ts.URL+"/v1/run",
				map[string]any{"program": "print(predict(constant([[1.0, 2.0]])))"})
			if out["output"] == "" {
				errs <- fmt.Errorf("no output")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheEndpointAndEviction drives distinct graph signatures through a
// capacity-bounded pool and checks both the LRU eviction and the /v1/cache
// inspection endpoint.
func TestCacheEndpointAndEviction(t *testing.T) {
	const capacity = 3
	srv := NewServer(Config{Workers: 2, MaxBatch: 1,
		CacheCapacity: capacity, Engine: janusConfig(1)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/load", map[string]any{"program": modelProgram})

	// Each distinct batch size specializes to its own compiled graph.
	for rows := 1; rows <= capacity+3; rows++ {
		x := make([][]float64, rows)
		for r := range x {
			x[r] = []float64{float64(r), 1}
		}
		for i := 0; i < 3; i++ { // past profiling, then compile
			postJSON(t, ts.Client(), ts.URL+"/v1/call", map[string]any{"fn": "predict", "feeds": map[string]any{"x": x}})
		}
	}

	// Capacity enforcement runs on a background goroutine; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Pool().Cache().Entries() > capacity && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Pool().Cache().Entries(); got > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", got, capacity)
	}
	if srv.Pool().Cache().Evictions() == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	defer resp.Body.Close()
	var info struct {
		Capacity  int   `json:"capacity"`
		Entries   int   `json:"entries"`
		Evictions int64 `json:"evictions"`
		Hits      int64 `json:"hits"`
		EntryList []struct {
			Signature []string `json:"signature"`
			Hits      int64    `json:"hits"`
		} `json:"entry_list"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode /v1/cache: %v", err)
	}
	if info.Capacity != capacity || info.Evictions == 0 || len(info.EntryList) == 0 {
		t.Fatalf("cache endpoint reports %+v", info)
	}
	if info.Entries != len(info.EntryList) {
		t.Fatalf("entries %d != listed %d", info.Entries, len(info.EntryList))
	}
}

// --- HTTP front end -------------------------------------------------------------

func postJSON(t *testing.T, client *http.Client, url string, body any) map[string]any {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s -> %d: %v", url, resp.StatusCode, out["error"])
	}
	return out
}

func TestHTTPServesConcurrentClients(t *testing.T) {
	srv := NewServer(Config{Workers: 4, MaxBatch: 8, Engine: janusConfig(1)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/load", map[string]any{"program": modelProgram})

	// Warm sequentially so w exists and the graph is compiled.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/call",
			map[string]any{"fn": "predict", "feeds": map[string]any{"x": [][]float64{{1, 2}}}})
	}
	w, ok := srv.Pool().Store().Get("w")
	if !ok {
		t.Fatal("w missing after warmup")
	}

	// The acceptance bar: >= 8 concurrent clients against one loaded model,
	// each opening its own session, all receiving correct per-request rows
	// (the batched named-feed call itself is sessionless).
	const clients, perClient = 10, 12
	const maxConcurrentRows = 8 // the pool's MaxBatch: bound on distinct batched shapes
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", map[string]any{})
			sid, _ := resp["session"].(string)
			if sid == "" {
				errs <- fmt.Errorf("client %d: no session id", c)
				return
			}
			for r := 0; r < perClient; r++ {
				i := c*perClient + r
				in := input(i)
				resp := postJSON(t, ts.Client(), ts.URL+"/v1/call",
					map[string]any{"fn": "predict", "feeds": map[string]any{
						"x": [][]float64{{in.At(0, 0), in.At(0, 1)}}}})
				outputs, _ := resp["outputs"].([]any)
				if len(outputs) != 1 {
					errs <- fmt.Errorf("client %d req %d: outputs %v", c, r, resp["outputs"])
					return
				}
				got, err := jsonRows(outputs[0])
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				want := tensor.MatMul(in, w)
				if !tensor.AllClose(got, want, 1e-9) {
					errs <- fmt.Errorf("client %d req %d: got %v want %v", c, r, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Stats endpoint must reflect the shared cache amortizing conversions.
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.CacheHits == 0 {
		t.Fatalf("no cross-client cache hits: %+v", st)
	}
	// Shape specialization compiles one graph per distinct batch size, so a
	// handful of conversions serve the whole fleet of requests.
	if st.Conversions > 1+maxConcurrentRows {
		t.Fatalf("conversions not amortized across clients: %d for %d requests", st.Conversions, st.Requests)
	}
	if st.Sessions < clients {
		t.Fatalf("sessions %d, want >= %d", st.Sessions, clients)
	}
}

// jsonRows decodes a nested-array tensor response back into a tensor.
func jsonRows(v any) (*tensor.Tensor, error) {
	rows, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("output is %T", v)
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		cols, ok := r.([]any)
		if !ok {
			return nil, fmt.Errorf("row %d is %T", i, r)
		}
		out[i] = make([]float64, len(cols))
		for j, c := range cols {
			f, ok := c.(float64)
			if !ok {
				return nil, fmt.Errorf("cell %d,%d is %T", i, j, c)
			}
			out[i][j] = f
		}
	}
	return tensor.FromRows(out), nil
}

func TestHTTPRunAndCall(t *testing.T) {
	srv := NewServer(Config{Workers: 2, Engine: janusConfig(1)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/load", map[string]any{"program": modelProgram})
	out := postJSON(t, ts.Client(), ts.URL+"/v1/run",
		map[string]any{"program": "print(1 + 2)"})
	if got := out["output"]; got != "3\n" {
		t.Fatalf("run output %q, want %q", got, "3\n")
	}
	res := postJSON(t, ts.Client(), ts.URL+"/v1/call",
		map[string]any{"fn": "predict", "x": nil, "args": []any{[][]float64{{0, 0}}}})
	if _, ok := res["result"].([]any); !ok {
		t.Fatalf("call result %T, want tensor rows", res["result"])
	}
}

// TestAcquireHonorsContext: a canceled context fails the worker wait with
// core.ErrCanceled instead of parking until AcquireTimeout.
func TestAcquireHonorsContext(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxQueue: 4, AcquireTimeout: 10 * time.Second,
		Engine: janusConfig(1)})
	e, err := p.acquire(context.Background())
	if err != nil {
		t.Fatalf("prime acquire: %v", err)
	}
	defer p.release(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = p.CallCtx(ctx, "predict", []minipy.Value{minipy.NewTensor(input(0))})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled acquire: got %v, want core.ErrCanceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("canceled acquire took %v, want immediate", time.Since(start))
	}
}

// TestScalarFeedRejectedUpFront: a feed without a leading batch dimension
// is a clear client error, not a recovered kernel panic.
func TestScalarFeedRejectedUpFront(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Engine: janusConfig(1)})
	_, err := p.CallNamed(context.Background(), "predict", map[string]*tensor.Tensor{"x": tensor.Scalar(3)})
	if err == nil || !strings.Contains(err.Error(), "leading batch dimension") {
		t.Fatalf("scalar named feed: got %v, want a clear batch-dimension error", err)
	}
}

// TestCallNamedUnknownFeedName: binding failures name the real signature.
func TestCallNamedUnknownFeedName(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Engine: janusConfig(1)})
	_, err := p.CallNamed(context.Background(), "predict",
		map[string]*tensor.Tensor{"bogus": input(0)})
	if err == nil || !strings.Contains(err.Error(), `no parameter "bogus"`) {
		t.Fatalf("unknown feed name: got %v, want a clear binding error", err)
	}
}

// TestStatusRoundTripServe: sentinel identities survive the HTTP status
// mapping in both directions.
func TestStatusRoundTripServe(t *testing.T) {
	for _, e := range []error{ErrOverloaded, ErrAcquireTimeout, core.ErrUnknownFunction, core.ErrCanceled} {
		status := StatusForError(fmt.Errorf("wrapped: %w", e))
		if back := ErrorForStatus(status, "msg"); !errors.Is(back, e) {
			t.Fatalf("round trip lost %v via status %d (got %v)", e, status, back)
		}
	}
	if StatusForError(errors.New("other")) != http.StatusUnprocessableEntity {
		t.Fatal("default status changed")
	}
}
