package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Server is the HTTP+JSON front end over a Pool — the transport cmd/janusd
// listens on. Endpoints:
//
//	POST /v1/load     {"program": "..."}                → {"output": "..."}
//	POST /v1/sessions {}                                → {"session": "s1"}
//	POST /v1/run      {"session"?, "program": "..."}    → {"output": "..."}
//	POST /v1/call     {"session"?, "fn", "args": [...]} → {"result": ...}
//	POST /v1/call     {"fn", "feeds": {"x": [[...]]}}   → {"outputs": [...]}  (batched, named feeds)
//	GET  /v1/stats                                      → Stats JSON
//	GET  /v1/cache                                      → graph-cache inspection
//	GET  /v1/trace    ?n=16                             → recent request traces (merged span trees)
//	GET  /v1/profile  ?fn=name                          → per-graph op profiles (always-on executor profiler)
//	GET  /v1/explain  ?fn=name                          → deopt explainability (which assumptions failed, at what cost)
//	GET  /metrics                                       → Prometheus text exposition
//	GET  /healthz                                       → {"ok": true}
//
// Tensors are nested JSON arrays; scalars, strings and booleans map to the
// corresponding minipy values (integral numbers become ints).
//
// Module state defined by /v1/run is session-affine: names bound by a
// session's scripts live with the session and are visible to its later /run
// and /call requests on any worker. Sessionless requests (empty session id)
// are stateless and fully parallel: /v1/run executes in a throwaway module
// scope and /v1/call resolves against the loaded module globals — open a
// session to keep state across requests. Under overload, requests fail with
// 429 (wait queue full) or 503 (timed out waiting for a worker) instead of
// queueing without bound; unknown functions are 404 and executions stopped
// by client disconnect are 499 (see StatusForError/ErrorForStatus for the
// sentinel round trip). Request bodies over maxBodyBytes are refused with
// 413.
type Server struct {
	pool *Pool
	mux  *http.ServeMux

	sessMu   sync.Mutex
	sessions map[string]*Session
	anon     *Session

	// traces rings the most recent finished request traces for GET
	// /v1/trace; traceSeq hands out request-scoped trace IDs.
	traces   *obs.TraceLog
	traceSeq atomic.Int64
}

// traceRing is how many finished request traces GET /v1/trace can look
// back over.
const traceRing = 64

// NewServer builds a Pool from cfg and wires the HTTP handlers.
func NewServer(cfg Config) *Server {
	return NewServerWith(NewPool(cfg))
}

// NewServerWith wraps an existing pool.
func NewServerWith(p *Pool) *Server {
	s := &Server{pool: p, sessions: make(map[string]*Session), traces: obs.NewTraceLog(traceRing)}
	s.anon = p.NewSession()
	s.sessions[s.anon.ID] = s.anon
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessions)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/call", s.handleCall)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.Handle("GET /metrics", p.Registry().Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return s
}

// Pool returns the underlying session pool.
func (s *Server) Pool() *Pool { return s.pool }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}

// StatusClientClosedRequest is the non-standard HTTP status (nginx's 499)
// reporting a request abandoned by its client: the serving layer uses it
// for executions stopped by context cancellation.
const StatusClientClosedRequest = 499

// StatusForError maps a request error onto its HTTP status: backpressure
// rejections become 429 (queue full) and 503 (acquire timeout) so clients
// can distinguish "back off" from "bad request"; unknown functions are 404;
// canceled executions are 499. ErrorForStatus is its inverse, so sentinel
// identities round-trip through the wire.
func StatusForError(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrAcquireTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrUnknownFunction):
		return http.StatusNotFound
	case errors.Is(err, core.ErrCanceled):
		return StatusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// ErrorForStatus reconstructs the sentinel error a non-2xx serving response
// encodes, wrapping the server-reported message so errors.Is works on the
// client side exactly as it does in-process.
func ErrorForStatus(status int, msg string) error {
	switch status {
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrAcquireTimeout, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", core.ErrUnknownFunction, msg)
	case StatusClientClosedRequest:
		return fmt.Errorf("%w: %s", core.ErrCanceled, msg)
	default:
		return fmt.Errorf("serve: status %d: %s", status, msg)
	}
}

// failStatus is the internal shorthand the handlers use.
func failStatus(err error) int { return StatusForError(err) }

// maxBodyBytes bounds one request body. Tensors travel as JSON text (some
// 20 bytes per element), so this admits feeds of a few million elements and
// refuses a body that would otherwise be buffered without limit.
const maxBodyBytes = 64 << 20

// decode reads the JSON request body into into. On failure it has written
// the error response — 413 for a body over maxBodyBytes, 400 otherwise — and
// returns false.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.UseNumber()
	err := dec.Decode(into)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, err)
	return false
}

// session resolves the optional "session" request field; empty selects the
// shared anonymous session.
func (s *Server) session(id string) (*Session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if id == "" {
		return s.anon, nil
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown session %q", id)
	}
	return sess, nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Program string `json:"program"`
	}
	if !decode(w, r, &req) {
		return
	}
	out, err := s.pool.Load(req.Program)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"output": out})
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	s.sessMu.Lock()
	if len(s.sessions) >= s.pool.Config().MaxSessions {
		s.sessMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: session limit reached (%d); free sessions with DELETE /v1/sessions/{id}", s.pool.Config().MaxSessions))
		return
	}
	sess := s.pool.NewSession()
	s.sessions[sess.ID] = sess
	s.sessMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"session": sess.ID})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if id == s.anon.ID {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: cannot delete the shared anonymous session"))
		return
	}
	if _, ok := s.sessions[id]; !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
		return
	}
	delete(s.sessions, id)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Program string `json:"program"`
	}
	if !decode(w, r, &req) {
		return
	}
	var out string
	var err error
	if req.Session == "" {
		// Sessionless: throwaway module scope, any worker, no serialization.
		out, err = s.pool.ExecEphemeral(r.Context(), req.Program)
	} else {
		var sess *Session
		if sess, err = s.session(req.Session); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		out, err = sess.ExecCtx(r.Context(), req.Program)
	}
	if err != nil {
		writeErr(w, failStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"output": out})
}

func (s *Server) handleCall(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string         `json:"session"`
		Fn      string         `json:"fn"`
		Args    []any          `json:"args"`
		Feeds   map[string]any `json:"feeds"`
		// Shared names feeds the function reads whole (weight-like inputs):
		// they are broadcast to the batch rather than stacked per-row.
		Shared []string `json:"shared"`
	}
	if !decode(w, r, &req) {
		return
	}
	ctx, finish := s.startTrace(r, req.Fn)
	defer finish()
	if req.Feeds != nil {
		// Named-feed form: tensors addressed by parameter name, executed
		// through the request batcher (same-signature calls coalesce). The
		// batched path resolves against the loaded module globals, so it is
		// sessionless by construction.
		if len(req.Args) > 0 || req.Session != "" {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf(`serve: "feeds" cannot be combined with "args" or "session"`))
			return
		}
		feeds := make(map[string]*tensor.Tensor, len(req.Feeds))
		for name, v := range req.Feeds {
			t, err := jsonToTensor(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("feed %q: %w", name, err))
				return
			}
			feeds[name] = t
		}
		outs, err := s.pool.CallNamedShared(ctx, req.Fn, feeds, req.Shared)
		if err != nil {
			writeErr(w, failStatus(err), err)
			return
		}
		results := make([]any, len(outs))
		for i, t := range outs {
			results[i] = tensorToJSON(t)
		}
		writeJSON(w, http.StatusOK, struct {
			Outputs []any `json:"outputs"`
		}{results})
		return
	}
	if len(req.Shared) > 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf(`serve: "shared" only applies to the named-feed form ("feeds")`))
		return
	}
	var sess *Session
	var err error
	if req.Session != "" {
		if sess, err = s.session(req.Session); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
	}
	args := make([]minipy.Value, len(req.Args))
	for i, a := range req.Args {
		if args[i], err = jsonToValue(a); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("arg %d: %w", i, err))
			return
		}
	}
	var out minipy.Value
	if sess == nil {
		// Sessionless: stateless call on any worker, no serialization.
		out, err = s.pool.CallCtx(ctx, req.Fn, args)
	} else {
		out, err = sess.CallCtx(ctx, req.Fn, args)
	}
	if err != nil {
		writeErr(w, failStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"result": valueToJSON(out)})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Stats())
}

// startTrace opens a request-scoped trace with one root "request" span:
// the engine's phase spans (convert, compile, execute, imperative,
// plan_build) and any parameter-server RPCs the execution issues parent
// under it, so GET /v1/trace renders one tree per request. An inbound
// Janus-Trace header adopts the caller's trace ID, so a request issued
// by another traced process correlates by ID across both trace logs.
// The returned finish closes the span and trace and records the trace
// in the /v1/trace ring.
func (s *Server) startTrace(r *http.Request, fn string) (ctx context.Context, finish func()) {
	id := fmt.Sprintf("r%d", s.traceSeq.Add(1))
	if rid, _, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
		id = rid
	}
	t := obs.NewTrace(id)
	t.Annotate("endpoint", r.URL.Path)
	if fn != "" {
		t.Annotate("fn", fn)
	}
	sp := t.StartSpan("request")
	ctx = obs.ContextWithSpan(obs.ContextWithTrace(r.Context(), t), sp.ID())
	return ctx, func() {
		sp.End()
		t.Finish()
		s.traces.Add(t)
	}
}

// handleTrace dumps the most recent request traces, newest first. ?n=
// bounds the count (default 16, capped by the ring size).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 16
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad n %q", q))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Snapshot(n)})
}

// handleProfile serves the always-on executor profiler's per-graph,
// per-node view for one loaded function (?fn=).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: /v1/profile needs ?fn="))
		return
	}
	prof, err := s.pool.Profile(r.Context(), fn)
	if err != nil {
		writeErr(w, failStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

// handleExplain serves the deopt explainability report for one loaded
// function (?fn=): which speculative assumptions failed, how often, and
// what the abandoned graph executions cost.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: /v1/explain needs ?fn="))
		return
	}
	rep, err := s.pool.Explain(r.Context(), fn)
	if err != nil {
		writeErr(w, failStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleCache serves the graph-cache inspection endpoint: capacity, entry
// and eviction counts, pool-wide hit/miss counters, and the per-entry list
// (most recently used first).
func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	info := s.pool.Cache().Inspect()
	st := s.pool.Stats()
	// Each entry in entry_list carries its own provenance ("compiled" vs
	// "snapshot") and bucket membership; the top level summarizes both so
	// operators can see at a glance whether a replica booted warm and how
	// much of its cache is shape-generalized.
	bucketed, fromSnapshot := 0, 0
	for _, e := range info.EntryList {
		if e.Bucketed {
			bucketed++
		}
		if e.Provenance == "snapshot" {
			fromSnapshot++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity":         info.Capacity,
		"funcs":            info.Funcs,
		"entries":          info.Entries,
		"bucketed_entries": bucketed,
		"snapshot_entries": fromSnapshot,
		"evictions":        info.Evictions,
		"imperative_only":  info.ImperativeOnly,
		"hits":             st.CacheHits,
		"misses":           st.CacheMisses,
		"entry_list":       info.EntryList,
	})
}

// --- JSON ⇄ value conversion ---------------------------------------------------

// jsonToValue maps a decoded JSON value to a minipy value. Arrays become
// tensors; integral numbers become ints.
func jsonToValue(v any) (minipy.Value, error) {
	switch x := v.(type) {
	case nil:
		return minipy.None, nil
	case bool:
		return minipy.BoolVal(x), nil
	case string:
		return minipy.StrVal(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return minipy.IntVal(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, err
		}
		return minipy.FloatVal(f), nil
	case []any:
		t, err := jsonToTensor(x)
		if err != nil {
			return nil, err
		}
		return minipy.NewTensor(t), nil
	}
	return nil, fmt.Errorf("serve: unsupported JSON value %T", v)
}

// jsonToTensor converts (possibly nested) JSON arrays to a tensor; a bare
// number becomes a scalar tensor.
func jsonToTensor(v any) (*tensor.Tensor, error) {
	var shape []int
	var data []float64
	var walk func(v any, depth int) error
	walk = func(v any, depth int) error {
		var f float64
		switch x := v.(type) {
		case []any:
			if depth == len(shape) {
				shape = append(shape, len(x))
			} else if shape[depth] != len(x) {
				return fmt.Errorf("serve: ragged tensor literal at depth %d", depth)
			}
			data = slices.Grow(data, len(x))
			for _, e := range x {
				if err := walk(e, depth+1); err != nil {
					return err
				}
			}
			return nil
		case json.Number:
			var err error
			if f, err = x.Float64(); err != nil {
				return err
			}
		case float64: // non-UseNumber decoders
			f = x
		default:
			return fmt.Errorf("serve: tensor literal holds %T", v)
		}
		if depth < len(shape) {
			return fmt.Errorf("serve: ragged tensor literal at depth %d", depth)
		}
		data = append(data, f)
		return nil
	}
	if err := walk(v, 0); err != nil {
		return nil, err
	}
	if len(shape) == 0 && len(data) == 1 {
		return tensor.Scalar(data[0]), nil
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("serve: ragged tensor literal (%d values for shape %v)", len(data), shape)
	}
	return tensor.New(shape, data), nil
}

// tensorToJSON renders a tensor as nested arrays (a scalar as a number). The
// innermost rows are slices of the tensor's own data, not copies.
func tensorToJSON(t *tensor.Tensor) any {
	if t.Rank() == 0 {
		return t.Item()
	}
	var build func(shape []int, data []float64) any
	build = func(shape []int, data []float64) any {
		if len(shape) == 1 {
			return data
		}
		stride := len(data) / shape[0]
		out := make([]any, shape[0])
		for i := range out {
			out[i] = build(shape[1:], data[i*stride:(i+1)*stride])
		}
		return out
	}
	return build(t.Shape(), t.Data())
}

// valueToJSON maps a minipy value to its JSON form.
func valueToJSON(v minipy.Value) any {
	switch x := v.(type) {
	case minipy.NoneVal:
		return nil
	case minipy.BoolVal:
		return bool(x)
	case minipy.IntVal:
		return int64(x)
	case minipy.FloatVal:
		return float64(x)
	case minipy.StrVal:
		return string(x)
	case *minipy.TensorVal:
		return tensorToJSON(x.T())
	case *minipy.ListVal:
		out := make([]any, len(x.Items))
		for i, e := range x.Items {
			out[i] = valueToJSON(e)
		}
		return out
	case *minipy.TupleVal:
		out := make([]any, len(x.Items))
		for i, e := range x.Items {
			out[i] = valueToJSON(e)
		}
		return out
	}
	return v.Repr()
}
