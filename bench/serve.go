package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	janus "repro"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// checkEvery is how often a /v1/call reply is decoded and compared with the
// imperative result; the other replies are read and discarded, as a client
// that trusts its server would.
const checkEvery = 64

// opHeader carries the harness's op index to the handler hook, so the
// handler's span can name the client span that caused it.
const opHeader = "Bench-Op"

// serveWorkload is P keep-alive HTTP clients posting one-row named feeds to
// /v1/call on an in-process janus.Server with the default batcher.
type serveWorkload struct {
	rows   []*tensor.Tensor
	bodies [][]byte
	ref    [][]float64 // imperative outputs per pool row
	hash   string
}

func (w *serveWorkload) name() string      { return "serve-call" }
func (w *serveWorkload) clients() int      { return parallelism }
func (w *serveWorkload) replicas() int     { return parallelism }
func (w *serveWorkload) items() int        { return 1 }
func (w *serveWorkload) inputHash() string { return w.hash }

// callBody is the JSON body of one /v1/call with the given rows as feed x.
func callBody(rows ...*tensor.Tensor) []byte {
	x := make([][]float64, len(rows))
	for i, r := range rows {
		x[i] = r.Data()
	}
	body, err := json.Marshal(map[string]any{"fn": "predict", "feeds": map[string]any{"x": x}})
	if err != nil {
		panic(err) // floats and strings always marshal
	}
	return body
}

// imperativePredict compiles the MLP on the imperative engine: the reference
// every reply is compared with.
func imperativePredict() (*janus.Function, error) {
	rt := janus.New(janus.Options{Engine: janus.EngineImperative, Seed: modelSeed})
	rt.CoreEngine().Local.OpDelay = 0
	prog, err := rt.Compile(mlpProgram)
	if err != nil {
		return nil, err
	}
	return prog.Func("predict")
}

func (w *serveWorkload) prepare(seed uint64) error {
	w.rows, w.hash = genRows(seed, mlpRows)
	w.bodies = make([][]byte, len(w.rows))
	for i, r := range w.rows {
		w.bodies[i] = callBody(r)
	}
	fn, err := imperativePredict()
	if err != nil {
		return err
	}
	w.ref = make([][]float64, len(w.rows))
	for i, r := range w.rows {
		out, err := fn.Call(context.Background(), janus.Feeds{"x": r})
		if err != nil {
			return fmt.Errorf("serve-call: reference row %d: %w", i, err)
		}
		w.ref[i] = append([]float64(nil), out.Tensor().Data()...)
	}
	return nil
}

// hookedHandler passes requests through to the server's handler; the traced
// run installs a hook that sees each request's op index and interval.
type hookedHandler struct {
	inner http.Handler
	hook  atomic.Pointer[func(op int, start, end time.Time)]
}

func (h *hookedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	hook := h.hook.Load()
	if hook == nil {
		h.inner.ServeHTTP(rw, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(rw, r)
	if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
		(*hook)(op, start, time.Now())
	}
}

type serveSystem struct {
	w       *serveWorkload
	srv     *janus.Server
	handler *hookedHandler
	ts      *httptest.Server
	client  *http.Client
	next    int
	tagOps  atomic.Bool // traced run: send opHeader
}

func (w *serveWorkload) boot() (system, error) {
	srv := janus.NewServer(janus.ServerOptions{
		Options:  janus.Options{Workers: computeThreads, Seed: modelSeed, ProfileIterations: profileIters},
		PoolSize: parallelism,
	})
	if _, err := srv.Compile(mlpProgram); err != nil {
		return nil, err
	}
	h := &hookedHandler{inner: srv.Handler()}
	s := &serveSystem{
		w: w, srv: srv, handler: h, ts: httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: parallelism, MaxIdleConnsPerHost: parallelism,
		}},
	}
	for ; s.next < refOps; s.next++ {
		if err := s.op(0, s.next); err != nil {
			s.close()
			return nil, err
		}
		if srv.Stats().GraphSteps > 0 {
			s.next++
			break
		}
	}
	if srv.Stats().GraphSteps == 0 {
		s.close()
		return nil, fmt.Errorf("serve-call: no request reached the graph path in %d requests", refOps)
	}
	// The batcher coalesces up to P one-row requests, and each batch height
	// is its own compiled graph. Convert the remaining heights now, with one
	// multi-row request each, so none is left for the timed window.
	for k := 2; k <= parallelism; k++ {
		rows, want := make([]*tensor.Tensor, k), make([][]float64, k)
		for j := range rows {
			rows[j], want[j] = w.rows[j], w.ref[j]
		}
		raw, err := s.post(callBody(rows...), -1)
		if err == nil {
			err = compareReply(raw, want)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("serve-call: %d-row request: %w", k, err)
		}
	}
	return s, nil
}

// post sends one /v1/call and returns the reply body, read to the end so the
// keep-alive connection is reused. op >= 0 is tagged onto the request when
// the traced run asked for tags.
func (s *serveSystem) post(body []byte, op int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/call", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 && s.tagOps.Load() {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// compareReply decodes a reply and compares its single output, row by row,
// with the imperative results.
func compareReply(raw []byte, want [][]float64) error {
	var reply struct {
		Outputs [][][]float64 `json:"outputs"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil || len(reply.Outputs) != 1 {
		return fmt.Errorf("bad reply %q: %v", raw, err)
	}
	return compareRows(reply.Outputs[0], want)
}

func compareRows(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("reply has %d rows, want %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d has %d values, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			if !closeTo(got[r][c], want[r][c], 1e-9) {
				return fmt.Errorf("row %d col %d: %v differs from the imperative result %v", r, c, got[r][c], want[r][c])
			}
		}
	}
	return nil
}

// op posts pool row i; every checkEvery-th reply, and every reply among the
// first refOps, is compared with the reference.
func (s *serveSystem) op(_, i int) error {
	row := i % len(s.w.rows)
	raw, err := s.post(s.w.bodies[row], i)
	if err != nil || (i%checkEvery != 0 && i >= refOps) {
		return err
	}
	return compareReply(raw, [][]float64{s.w.ref[row]})
}

func (s *serveSystem) booted() int { return s.next }

func (s *serveSystem) finish() error                    { return nil }
func (s *serveSystem) engineStats() (janus.Stats, bool) { return s.srv.Stats().Stats, true }

func (s *serveSystem) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
}

// promValue sums the samples of one series family in Prometheus text whose
// label set contains want ("" matches every sample of the family).
func promValue(text, family, want string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) || !strings.Contains(line, want) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name with the same prefix
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// layers: HTTP POST -> Function.Call on the pool (serve.Pool.CallNamed) ->
// core.Engine.CallNamed at the batch height the pool ran -> exec.Run ->
// kernels.
func (w *serveWorkload) layers(sys system, t *tracer) (map[string]float64, error) {
	s := sys.(*serveSystem)
	m := map[string]float64{}
	first := refOps

	plain := t.window(w.clients(), 1, first, s.op)
	before := s.srv.Stats()
	var metrics0 bytes.Buffer
	if err := s.srv.WriteMetrics(&metrics0); err != nil {
		return nil, err
	}
	type handled struct {
		op         int
		start, end time.Time
	}
	events := make(chan handled, 1<<16) // roomy: drained only after the window
	hook := func(op int, start, end time.Time) {
		select {
		case events <- handled{op, start, end}:
		default:
		}
	}
	s.handler.hook.Store(&hook)
	s.tagOps.Store(true)
	top := t.measure("http.post_v1_call", true, w.clients(), 1, first, s.op)
	s.handler.hook.Store(nil)
	s.tagOps.Store(false)
	close(events)
	for ev := range events {
		t.rec.add("serve.handler", ev.start, ev.end, t.parents[ev.op], ev.op, false)
	}
	after := s.srv.Stats()
	var metrics1 bytes.Buffer
	if err := s.srv.WriteMetrics(&metrics1); err != nil {
		return nil, err
	}
	if top.failed > 0 {
		return nil, fmt.Errorf("traced window: %w", top.firstErr)
	}
	opMs := p50(top)
	topRung(m, plain, top)
	batches := float64(after.Batches - before.Batches)
	if batches > 0 {
		m["serve.avg_batch"] = float64(after.BatchedRequests-before.BatchedRequests) / batches
	}
	delta := func(family, label string) float64 {
		return promValue(metrics1.String(), family, label) - promValue(metrics0.String(), family, label)
	}
	timer, full := delta("janus_serve_batch_flushes_total", `reason="timer"`), delta("janus_serve_batch_flushes_total", `reason="full"`)
	if timer+full > 0 {
		m["serve.flush_timer_frac"] = timer / (timer + full)
	}
	m["serve.rejects"] = delta("janus_serve_rejected_total", "")

	// The same rows through the pool with no HTTP around them.
	fn, err := s.srv.Func("predict")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	poolW := t.measure("serve.pool_call_named", false, w.clients(), 1, first, func(_, i int) error {
		_, err := fn.Call(ctx, janus.Feeds{"x": w.rows[i%len(w.rows)]})
		return err
	})
	if poolW.failed > 0 {
		return nil, fmt.Errorf("pool rung: %w", poolW.firstErr)
	}
	poolMs := p50(poolW)

	// One engine, the batch the pool's workers saw, no batcher.
	height := int(m["serve.avg_batch"] + 0.5)
	if height < 1 {
		height = 1
	}
	batch := func(i int) *tensor.Tensor {
		parts := make([]*tensor.Tensor, height)
		for j := range parts {
			parts[j] = w.rows[(i*height+j)%len(w.rows)]
		}
		return tensor.Concat(0, parts...)
	}
	batchVals := make([]map[string]minipy.Value, 64)
	for i := range batchVals {
		batchVals[i] = map[string]minipy.Value{"x": minipy.NewTensor(batch(i))}
	}
	eng := core.NewEngine(core.Config{
		Mode: core.Janus, LR: learningRate, ProfileIters: profileIters, Unroll: true, Specialize: true,
		Workers: computeThreads, Seed: modelSeed, PyOverheadNs: -1,
	})
	if err := eng.Run(mlpProgram); err != nil {
		return nil, err
	}
	engineCall := func(_, i int) error {
		_, err := eng.CallNamed(ctx, "predict", batchVals[i%len(batchVals)])
		return err
	}
	for i := 0; i < 2*profileIters+2; i++ {
		if err := engineCall(0, i); err != nil {
			return nil, err
		}
	}
	if eng.Stats().GraphSteps == 0 {
		return nil, fmt.Errorf("serve-call: standalone engine never reached the graph path")
	}
	coreMs := p50(t.measure("core.call_named", false, 1, height, first, engineCall))

	spec := &ladderSpec{
		program: mlpProgram, lossFn: "predict", clients: 1,
		args:   func(i int) []minipy.Value { return []minipy.Value{batchVals[i%len(batchVals)]["x"]} },
		script: func() []kernelCall { return mlpKernels(height) },
	}
	low, err := lowerRungs(t, spec, first, m)
	if err != nil {
		return nil, err
	}
	m["serve.http_json_ms"] = opMs - poolMs
	m["serve.batch_wait_ms"] = poolMs - coreMs
	m["core.call_overhead_us"] = (coreMs - low.graphMs) * 1e3
	ps := eng.TensorPoolStats()
	if ps.Gets > 0 {
		m["exec.pool_hit_rate"] = float64(ps.Hits) / float64(ps.Gets)
	}
	m["serve.json_decode_us"], m["serve.json_encode_us"] = jsonCosts(w.bodies[0], w.ref[0])
	m["profile.iters"] = profileIters
	engineCounters(m, after.CacheHits, after.CacheMisses, after.Conversions, after.Fallbacks, after.AssertFailures)
	t.attribute(m, opMs, layerTime{"serve.http_json", opMs - poolMs}, layerTime{"serve.batch_wait", poolMs - coreMs},
		layerTime{"core", coreMs - low.graphMs}, layerTime{"exec", low.exec}, layerTime{"tensor", low.kernels})

	// The imperative ceiling: what a request costs when it falls back.
	ifn, err := imperativePredict()
	if err != nil {
		return nil, err
	}
	m["minipy.imperative_op_ms"] = p50(loop{clients: 1, items: 1, fixedOps: 200, op: func(_, i int) error {
		_, err := ifn.Call(ctx, janus.Feeds{"x": w.rows[i%len(w.rows)]})
		return err
	}}.run())
	return m, nil
}

// jsonCosts times decoding a request body and encoding a reply the way the
// /v1/call handler does (encoding/json into untyped values), in microseconds.
func jsonCosts(body []byte, out []float64) (decodeUs, encodeUs float64) {
	const n = 2000
	var req struct {
		Fn    string         `json:"fn"`
		Feeds map[string]any `json:"feeds"`
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req.Feeds = nil
		_ = json.Unmarshal(body, &req) // body was produced by json.Marshal
	}
	decodeUs = float64(time.Since(t0).Nanoseconds()) / n / 1e3
	row := make([]any, len(out))
	for i, v := range out {
		row[i] = v
	}
	reply := map[string]any{"outputs": []any{[]any{row}}}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		_, _ = json.Marshal(reply) // floats always marshal
	}
	encodeUs = float64(time.Since(t0).Nanoseconds()) / n / 1e3
	return decodeUs, encodeUs
}
