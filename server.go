package janus

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// ServerOptions configures a serving pool (see internal/serve). The zero
// value serves with the full JANUS engine, 4 pool workers, and batches of
// at most 8 requests.
type ServerOptions struct {
	// Options configures every worker engine.
	Options
	// PoolSize is the number of engine workers, i.e. concurrently served
	// requests (default 4).
	PoolSize int
	// MaxBatch caps how many same-signature requests, pending when a pool
	// worker is claimed, that worker runs as one batched execution
	// (default 8). A request is pending for a fixed 1 ms, plus however long
	// every worker stays busy.
	MaxBatch int
	// MaxQueue bounds how many requests may wait for a worker before new
	// arrivals are rejected (HTTP 429); default 16 x PoolSize.
	MaxQueue int
	// AcquireTimeout bounds how long a queued request waits for a worker
	// before failing (HTTP 503); default 10s.
	AcquireTimeout time.Duration
	// CacheCapacity bounds compiled graphs in the shared cache, evicting
	// the least-recently-hit entry when exceeded (0 = unlimited).
	CacheCapacity int
	// BucketBatch turns on shape bucketing: batched executions are padded
	// up to power-of-two row counts (by repeating the last real row; only
	// real rows are returned), so variable batch sizes share a handful of
	// compiled graphs instead of converting one per distinct size. Served
	// functions must be batch-dim parallel with batch-preserving outputs.
	BucketBatch bool
	// MaxBucket caps the padded row count when BucketBatch is on (rounded
	// up to a power of two; default 64). Larger executions run unpadded.
	MaxBucket int
}

// Server is a concurrent model server: N runtime workers share one
// parameter store and one compiled-graph cache, so a graph speculatively
// converted for one client is a cache hit for every other, and concurrent
// calls with the same named-feed signature batch into single graph
// executions.
type Server struct {
	srv *serve.Server
}

// NewServer builds a serving pool.
func NewServer(opts ServerOptions) *Server {
	return &Server{srv: serve.NewServer(serve.Config{
		Workers:        opts.PoolSize,
		MaxBatch:       opts.MaxBatch,
		MaxQueue:       opts.MaxQueue,
		AcquireTimeout: opts.AcquireTimeout,
		CacheCapacity:  opts.CacheCapacity,
		BucketBatch:    opts.BucketBatch,
		MaxBucket:      opts.MaxBucket,
		Engine:         opts.Options.coreConfig(),
	})}
}

// SnapshotPath returns the conventional snapshot artifact file path inside
// dir (what janusd -snapshot-dir reads and writes).
func SnapshotPath(dir string) string { return core.ArtifactPath(dir) }

// SaveSnapshot persists the server's warm state — compiled graphs, memory
// plans, pass reports, the signature-hash index, profiling progress and
// model parameters — into a versioned artifact file (atomic write). A
// replica that loads it at boot serves its first request from a warm cache.
// Returns the number of compiled entries saved.
func (s *Server) SaveSnapshot(path string) (int, error) {
	return s.srv.Pool().SaveSnapshot(path)
}

// LoadSnapshot restores a snapshot saved by a server that had compiled the
// same program sources, in the same order (validated by an embedded program
// hash). Call after Compile/Load. Version skew, source mismatch or file
// corruption rejects the artifact as a unit — the server simply serves cold
// — with the reason counted in janus_artifact_rejected_total. Returns the
// number of compiled entries restored.
func (s *Server) LoadSnapshot(path string) (int, error) {
	return s.srv.Pool().LoadSnapshot(path)
}

// Compile parses src once and defines it on every worker, returning a
// Program whose Function handles execute on the pool: calls with the same
// function and feed signature coalesce into batched executions, and the
// compiled-graph cache is shared pool-wide. Compile may be called
// repeatedly to extend the served program.
func (s *Server) Compile(src string) (*Program, error) {
	if _, err := s.srv.Pool().Load(src); err != nil {
		return nil, err
	}
	return &Program{b: serverBackend{pool: s.srv.Pool()}}, nil
}

// Func resolves an already-loaded module-level function into a pool-backed
// handle (shorthand for compiling definitions first, then resolving).
func (s *Server) Func(name string) (*Function, error) {
	return (&Program{b: serverBackend{pool: s.srv.Pool()}}).Func(name)
}

// Load parses a minipy program once and defines it on every worker; returns
// the program's print output. Prefer Compile, which returns a Program
// handle.
func (s *Server) Load(src string) (string, error) { return s.srv.Pool().Load(src) }

// NewSession opens a client session.
func (s *Server) NewSession() *Session { return &Session{sess: s.srv.Pool().NewSession()} }

// Handler returns the HTTP+JSON front end (the transport cmd/janusd
// listens on).
func (s *Server) Handler() http.Handler { return s.srv.Handler() }

// MetricsHandler returns just the Prometheus text exposition of the pool's
// registry (also mounted at GET /metrics on Handler), for embedders that
// serve metrics on a separate mux or port.
func (s *Server) MetricsHandler() http.Handler { return s.srv.Pool().Registry().Handler() }

// WriteMetrics renders the pool registry's current state in the Prometheus
// text format (cmd/janusd uses it for the final flush on shutdown).
func (s *Server) WriteMetrics(w io.Writer) error { return s.srv.Pool().Registry().WriteText(w) }

// Stats aggregates engine counters across workers plus serving counters.
func (s *Server) Stats() ServerStats {
	st := s.srv.Pool().Stats()
	return ServerStats{
		Stats: Stats{
			ImperativeSteps: st.ImperativeSteps,
			GraphSteps:      st.GraphSteps,
			Conversions:     st.Conversions,
			ConversionFails: st.ConversionFails,
			CacheHits:       st.CacheHits,
			CacheMisses:     st.CacheMisses,
			AssertFailures:  st.AssertFailures,
			Fallbacks:       st.Fallbacks,
		},
		PoolSize:        st.Workers,
		Sessions:        st.Sessions,
		Requests:        st.Requests,
		Batches:         st.Batches,
		BatchedRequests: st.BatchedRequests,
		CachedGraphs:    st.CachedGraphs,
	}
}

// Parameters exposes the pool-wide shared parameter store.
func (s *Server) Parameters() *vars.Store { return s.srv.Pool().Store() }

// ServerStats extends engine Stats with serving-side counters.
type ServerStats struct {
	Stats
	// PoolSize is the number of engine workers in the pool.
	PoolSize int

	Sessions        int
	Requests        int64
	Batches         int64
	BatchedRequests int64
	CachedGraphs    int
}

// serverBackend executes handles on the serving pool's request batcher.
type serverBackend struct {
	pool *serve.Pool
	sess *serve.Session // non-nil for session-scoped handles (accounting)
}

func (b serverBackend) funcParams(ctx context.Context, name string) ([]string, error) {
	return b.pool.FuncParams(ctx, name)
}

func (b serverBackend) call(ctx context.Context, name string, feeds Feeds) (Outputs, error) {
	var outs []*tensor.Tensor
	var err error
	if b.sess != nil {
		outs, err = b.sess.CallNamed(ctx, name, feeds)
	} else {
		outs, err = b.pool.CallNamed(ctx, name, feeds)
	}
	if err != nil {
		return nil, err
	}
	return Outputs(outs), nil
}

// Session is a client handle onto a Server. Sessions are cheap: graphs,
// parameters and workers are server-wide; the session carries identity and
// per-client accounting.
type Session struct {
	sess *serve.Session
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.sess.ID }

// Func resolves a loaded module-level function into a session-scoped
// handle. Calls go through the request batcher — concurrent calls with the
// same function and feed signature (across all sessions) execute as one
// batched graph run — so handle functions must be batch-dim parallel, as
// inference functions are. Stateful functions (train steps calling
// optimize()) batch too: concurrent same-shape train calls merge into one
// step over the concatenated batch, and every merged caller receives the
// same scalar loss (outputs without a batch dimension are shared, not
// sliced); use Call for strict one-step-per-call semantics.
func (s *Session) Func(name string) (*Function, error) {
	return (&Program{b: serverBackend{pool: s.sess.Pool(), sess: s.sess}}).Func(name)
}

// Call invokes a loaded module-level function (an inference function or a
// train-step function that calls optimize() internally) with positional
// tensor arguments, one call per execution (no batching). Prefer Func for
// the named-feed handle surface.
func (s *Session) Call(fn string, args ...*tensor.Tensor) (minipy.Value, error) {
	vals := make([]minipy.Value, len(args))
	for i, a := range args {
		vals[i] = minipy.NewTensor(a)
	}
	return s.sess.Call(fn, vals)
}

// Run executes an ad-hoc script on one worker and returns its print output.
func (s *Session) Run(src string) (string, error) { return s.sess.Exec(src) }
