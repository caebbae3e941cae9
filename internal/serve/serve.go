// Package serve is the concurrent model-serving subsystem: it amortizes the
// JANUS compiled-graph cache across many clients, which is where the paper's
// imperative→symbolic conversion pays off in production.
//
// A Pool owns N core.Engine workers that share one parameter store
// (vars.Store) and one compiled-graph cache (core.GraphCache). Each worker's
// interpreter is single-threaded, so a worker serves one request at a time;
// concurrency comes from the pool, and because the cache is shared, a graph
// speculatively converted while serving one client is a cache hit for every
// other client — including clients on different workers and in different
// sessions.
//
// Named-feed calls go through a batcher: same-signature calls that arrive
// within the fixed 1 ms gather of each other, or queue up while every worker
// is busy, run as one batched tensor execution (capped at MaxBatch requests)
// on the next worker that frees up, and per-request rows are scattered back
// to the callers.
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// ErrOverloaded reports a request rejected because the bounded wait queue is
// full — the HTTP layer maps it to 429 so clients back off instead of piling
// goroutines onto the pool.
var ErrOverloaded = errors.New("serve: overloaded: request queue is full")

// ErrAcquireTimeout reports a queued request that waited longer than
// Config.AcquireTimeout for a worker — mapped to 503.
var ErrAcquireTimeout = errors.New("serve: timed out waiting for an engine worker")

// Config tunes a Pool. The zero value serves with 4 workers and batches of
// at most 8 requests.
type Config struct {
	// Workers is the number of engine workers (concurrent requests served).
	Workers int
	// MaxBatch caps how many queued same-signature requests one worker takes
	// as a single batched execution.
	MaxBatch int
	// MaxSessions caps concurrently registered HTTP sessions (default
	// 10000); sessions are freed with DELETE /v1/sessions/{id}.
	MaxSessions int
	// MaxQueue bounds how many requests may wait for a worker at once;
	// arrivals beyond the bound fail immediately with ErrOverloaded (HTTP
	// 429). Default 16 x Workers.
	MaxQueue int
	// AcquireTimeout bounds how long a queued request waits for a worker
	// before failing with ErrAcquireTimeout (HTTP 503). Default 10s.
	AcquireTimeout time.Duration
	// CacheCapacity bounds compiled graphs in the shared cache; the
	// least-recently-hit entry is evicted when exceeded (0 = unlimited).
	CacheCapacity int
	// BucketBatch turns on shape bucketing: the batcher pads each coalesced
	// execution up to the next power-of-two row count (capped at MaxBucket)
	// by repeating the last real row, so a fleet facing variable batch
	// sizes compiles a handful of graphs instead of one per distinct size.
	// Only real rows are scattered back. Workers additionally compile with
	// core.Config.RelaxBatchDim, so the bucket sizes themselves merge into
	// a single wildcard-batch graph when their structure is identical.
	// Served functions must be batch-dim parallel with batch-preserving
	// outputs; a shared scalar output (e.g. a mean loss) would aggregate
	// over synthetic rows, so padded executions reject it rather than
	// silently return a perturbed value.
	BucketBatch bool
	// MaxBucket caps the padded row count (rounded up to a power of two;
	// default 64). Executions already larger than MaxBucket run unpadded.
	MaxBucket int
	// Engine configures every worker (mode, learning rate, profiling, ...).
	Engine core.Config
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.Engine.PyOverheadNs == 0 {
		// The engine's zero value simulates CPython's ~5µs/op dispatch cost
		// for the paper's benchmark comparisons. A serving pool is a Go
		// server, not a CPython simulation: default to no simulated overhead
		// (set PyOverheadNs explicitly to opt back in).
		c.Engine.PyOverheadNs = -1
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 10000
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 16 * c.Workers
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 10 * time.Second
	}
	if c.MaxBucket < 1 {
		c.MaxBucket = 64
	}
	c.MaxBucket = nextPow2(c.MaxBucket)
	if c.BucketBatch {
		// Bucketed serving wants one graph across bucket sizes, not one per
		// bucket: let structurally identical conversions relax-merge into a
		// wildcard batch dim.
		c.Engine.RelaxBatchDim = true
	}
	return c
}

// nextPow2 rounds n up to the nearest power of two (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Stats aggregates engine counters across the pool plus serving-side
// counters.
type Stats struct {
	core.Stats
	Workers         int
	Sessions        int
	Requests        int64
	Batches         int64
	BatchedRequests int64
	CachedFuncs     int
	CachedGraphs    int
	CacheEvictions  int64
	// Rejected counts requests refused because the wait queue was full
	// (429); TimedOut counts requests that gave up waiting for a worker
	// (503); Queued is the current number of waiters.
	Rejected int64
	TimedOut int64
	Queued   int64
}

// Pool is the session pool: N worker engines around one shared parameter
// store and one shared graph cache.
type Pool struct {
	cfg     Config
	store   *vars.Store
	cache   *core.GraphCache
	engines []*core.Engine
	idle    chan *core.Engine
	batcher *batcher

	// obs is the pool-wide metrics registry: every worker engine resolves
	// its instruments here (Config.Engine.Obs), so one /metrics exposition
	// covers engines, executor, batcher and admission control. metrics
	// holds the serving-side instruments; request/rejection/timeout counts
	// live only in the registry (Stats reads them back).
	obs     *obs.Registry
	metrics *metrics

	// sessions generates session IDs (and doubles as the created-sessions
	// count); queued is the live number of waiters, kept as an atomic
	// because admission control compares-and-backs-off on the incremented
	// value. Both are exposed through func-backed registry series.
	sessions atomic.Int64
	queued   atomic.Int64

	loadMu sync.Mutex
	// srcs accumulates every source loaded through Load, in order; the
	// concatenation fingerprints the served program for snapshot artifacts
	// (see ProgramHash).
	srcs []string
	// sigs caches the loaded module functions' parameter lists (snapshotted
	// under loadMu after every Load), so handle resolution reads a map
	// instead of competing with requests for an exclusive worker.
	sigMu sync.RWMutex
	sigs  map[string][]string
}

// NewPool builds the worker engines. Load a program before serving.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	reg := cfg.Engine.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pool{
		cfg:     cfg,
		store:   vars.NewStore(),
		cache:   core.NewGraphCacheCap(cfg.CacheCapacity),
		idle:    make(chan *core.Engine, cfg.Workers),
		obs:     reg,
		metrics: newMetrics(reg),
	}
	// The pool registers the one shared cache on the one shared registry;
	// workers see Config.Obs non-nil and skip their (per-engine) cache
	// registration, keeping the pairing 1:1 (see core.RegisterCacheMetrics).
	core.RegisterCacheMetrics(reg, p.cache)
	// Artifact (snapshot) families appear in the exposition from boot, so
	// the CI cold-start gate can assert their presence on a replica that
	// has not yet saved or loaded anything.
	core.RegisterArtifactMetrics(reg)
	reg.CounterFunc("janus_serve_sessions_total", helpSessions,
		func() float64 { return float64(p.sessions.Load()) })
	reg.GaugeFunc("janus_serve_queued", helpQueued,
		func() float64 { return float64(p.queued.Load()) })
	for i := 0; i < cfg.Workers; i++ {
		ecfg := cfg.Engine
		ecfg.Obs = reg
		if ecfg.Seed != 0 {
			// Distinct per-worker RNG streams; the parameter store is shared,
			// so whichever worker initializes a variable fixes it for all.
			ecfg.Seed += uint64(i) * 7919
		}
		e := core.NewEngineShared(ecfg, p.store, p.cache)
		p.engines = append(p.engines, e)
		p.idle <- e
	}
	p.batcher = newBatcher(p, cfg.MaxBatch)
	return p
}

// Config returns the pool's effective (defaulted) configuration.
func (p *Pool) Config() Config { return p.cfg }

// Store exposes the shared parameter store.
func (p *Pool) Store() *vars.Store { return p.store }

// Cache exposes the shared compiled-graph cache.
func (p *Pool) Cache() *core.GraphCache { return p.cache }

// Registry exposes the pool-wide metrics registry (the one every worker
// engine and the serving layer write into); the HTTP layer serves it at
// GET /metrics.
func (p *Pool) Registry() *obs.Registry { return p.obs }

// admitQueued reserves one wait-queue slot, failing fast with ErrOverloaded
// when MaxQueue slots are taken. The caller holds the slot until it calls
// release. Every waiting request — for a worker, batched or not, or for a
// session lock — occupies a slot, so the bound covers all the ways
// goroutines can pile up under overload.
func (p *Pool) admitQueued() (release func(), err error) {
	if p.queued.Add(1) > int64(p.cfg.MaxQueue) {
		p.queued.Add(-1)
		p.metrics.rejected.Inc()
		return nil, ErrOverloaded
	}
	return func() { p.queued.Add(-1) }, nil
}

// admitWait is the pool's admission discipline over a claim channel:
// immediate claim when a token is available, otherwise a queue-slot-bounded,
// AcquireTimeout-bounded, context-bounded wait. Both worker acquisition
// (tokens are idle engines) and session serialization (a one-token
// semaphore) share it, so 429/503 semantics can never diverge between the
// two paths. A canceled ctx fails the wait with core.ErrCanceled — clients
// that give up stop occupying queue slots immediately. A non-nil done ends
// the wait with the zero T and a nil error once it is closed: a batched
// request passes its completion channel, because another request's worker
// may run it before it is handed a worker of its own.
func admitWait[T any](p *Pool, ctx context.Context, ch <-chan T, done <-chan struct{}) (T, error) {
	var zero T
	select {
	case <-done:
		return zero, nil
	default:
	}
	select {
	case v := <-ch:
		// Immediate claim: recorded as a zero wait so the histogram's
		// count covers every acquisition, not just the contended ones.
		p.metrics.claimWait.Observe(0)
		return v, nil
	default:
	}
	if err := ctx.Err(); err != nil {
		return zero, core.CanceledErr(ctx)
	}
	release, err := p.admitQueued()
	if err != nil {
		return zero, err
	}
	defer release()
	t0 := time.Now()
	timer := time.NewTimer(p.cfg.AcquireTimeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		p.metrics.claimWait.Since(t0)
		return v, nil
	case <-done:
		return zero, nil
	case <-timer.C:
		p.metrics.timedOut.Inc()
		return zero, ErrAcquireTimeout
	case <-ctx.Done():
		return zero, core.CanceledErr(ctx)
	}
}

// acquire hands out an idle worker engine with backpressure: when every
// worker is busy, at most MaxQueue requests wait (beyond that arrivals fail
// fast with ErrOverloaded), and no waiter outlasts AcquireTimeout
// (ErrAcquireTimeout) or its own context. This bounds goroutine pile-up
// under overload — the failure mode of the previous unbounded blocking
// acquire.
func (p *Pool) acquire(ctx context.Context) (*core.Engine, error) {
	return admitWait(p, ctx, p.idle, nil)
}

func (p *Pool) release(e *core.Engine) { p.idle <- e }

// guard converts engine panics into request errors. Deep tensor kernels
// panic on malformed inputs (shape mismatches etc.); a serving process must
// return an error to the one offending client, not crash.
func guard[T any](f func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: request failed: %v", r)
		}
	}()
	return f()
}

// Load parses src once and runs it on every worker, so module-level
// definitions (and the functions clients will call) exist everywhere.
// Because the program AST is shared, a function has the same identity on all
// workers and its compiled graphs are shared through the cache.
//
// Top-level statements execute once per worker. variable() creation is
// idempotent (first worker initializes the shared store, the rest reuse it),
// but other top-level side effects — optimize() training loops, prints —
// repeat per worker. Keep served programs to definitions plus cheap init;
// drive training through Call("train_step") or Exec instead. Returns worker
// 0's print output.
func (p *Pool) Load(src string) (string, error) {
	prog, err := minipy.Parse(src)
	if err != nil {
		return "", err
	}
	p.loadMu.Lock()
	defer p.loadMu.Unlock()
	// Take exclusive ownership of every worker so a load never interleaves
	// with in-flight requests. Load is an administrative path: it waits out
	// in-flight work unboundedly instead of going through the backpressured
	// acquire.
	engines := make([]*core.Engine, 0, len(p.engines))
	for range p.engines {
		engines = append(engines, <-p.idle)
	}
	defer func() {
		for _, e := range engines {
			p.release(e)
		}
	}()
	var out string
	for i, e := range engines {
		before := len(e.Output())
		if _, err := guard(func() (struct{}, error) {
			return struct{}{}, e.RunProgram(prog)
		}); err != nil {
			return "", fmt.Errorf("serve: load on worker %d: %w", i, err)
		}
		if i == 0 {
			out = e.Output()[before:]
		}
	}
	// Snapshot the loaded signatures while the workers are still exclusively
	// held, so FuncParams never needs a worker of its own.
	sigs := engines[0].Functions()
	p.sigMu.Lock()
	p.sigs = sigs
	p.sigMu.Unlock()
	p.srcs = append(p.srcs, src)
	return out, nil
}

// ProgramHash fingerprints every source loaded so far (length-prefixed
// SHA-256 over the concatenation, in load order). Snapshot artifacts embed
// it, and a boot-time load validates it: cached functions are addressed by
// (program index, AST offset), which only mean the same thing when the same
// sources were loaded in the same order.
func (p *Pool) ProgramHash() string {
	p.loadMu.Lock()
	defer p.loadMu.Unlock()
	h := sha256.New()
	for _, src := range p.srcs {
		fmt.Fprintf(h, "%d\n", len(src))
		h.Write([]byte(src))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// SaveSnapshot persists the pool's warm state — compiled graphs, memory
// plans, pass reports, the signature-hash index, profiling progress and
// model parameters — into the artifact file at path (atomic write). Returns
// the number of compiled entries saved. Safe to call while serving: the
// cache and store are read under their own locks.
func (p *Pool) SaveSnapshot(path string) (int, error) {
	return p.engines[0].SaveArtifact(path, p.ProgramHash())
}

// LoadSnapshot restores a snapshot artifact saved by a replica that had
// loaded the same program sources (validated via ProgramHash). Call after
// Load. On success every worker sees the restored graphs immediately —
// cache and parameter store are pool-shared — and the first request is
// served warm, with zero conversions and zero imperative profiling steps.
// Any mismatch or corruption rejects the whole artifact (counted in
// janus_artifact_rejected_total) and the pool simply serves cold.
func (p *Pool) LoadSnapshot(path string) (int, error) {
	return p.engines[0].LoadArtifact(path, p.ProgramHash())
}

// Call invokes a loaded module-level function on one worker. Training-step
// functions (which call optimize() internally) and inference functions both
// work; inference-heavy callers should prefer CallNamed for batching.
func (p *Pool) Call(fn string, args []minipy.Value) (minipy.Value, error) {
	return p.CallCtx(context.Background(), fn, args)
}

// CallCtx is Call under a context: cancellation interrupts both the wait for
// a worker and the execution itself (checked between steps and statements).
func (p *Pool) CallCtx(ctx context.Context, fn string, args []minipy.Value) (minipy.Value, error) {
	p.metrics.requests.Inc()
	e, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.release(e)
	return guard(func() (minipy.Value, error) { return e.CallCtx(ctx, fn, args) })
}

// CallNamed invokes a loaded module-level function with feeds addressed by
// parameter name, through the request batcher: concurrent calls with the
// same function, feed names and per-item shapes are stacked along the
// leading (batch) axis, executed once, and every output is split back
// row-for-row. EVERY feed is stacked — the function must be batch-dim
// parallel in all of its parameters (shared, non-batch inputs like weight
// matrices belong in variable()s or module globals, not feeds). Every feed
// must keep a leading batch dimension; unknown or missing parameter names
// fail up front with a clear error.
func (p *Pool) CallNamed(ctx context.Context, fn string, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	return p.CallNamedShared(ctx, fn, feeds, nil)
}

// CallNamedShared is CallNamed with some feeds marked shared (broadcast):
// weight-like inputs — lookup tables, projection matrices — that the
// function reads whole rather than per-row. Shared feeds are exempt from
// the batch-dimension contract, are never stacked or padded, and don't
// split batches: concurrent requests coalesce as long as their shared
// feeds are bit-identical. Names in shared must appear in feeds.
func (p *Pool) CallNamedShared(ctx context.Context, fn string, feeds map[string]*tensor.Tensor, shared []string) ([]*tensor.Tensor, error) {
	if len(feeds) == 0 {
		// Nothing to batch: a zero-feed call executes directly, so no-arg
		// handles behave identically on every backend.
		out, err := p.CallCtx(ctx, fn, nil)
		if err != nil {
			return nil, err
		}
		outs, err := minipy.Tensors(out)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %v", fn, err)
		}
		return outs, nil
	}
	sharedSet := make(map[string]bool, len(shared))
	for _, name := range shared {
		if _, ok := feeds[name]; !ok {
			return nil, fmt.Errorf("serve: %s: shared feed %q is not among the feeds", fn, name)
		}
		sharedSet[name] = true
	}
	p.metrics.requests.Inc()
	return p.batcher.submit(ctx, fn, sortedFeeds(feeds, sharedSet))
}

// FuncParams resolves a loaded module-level function and returns its
// parameter names (handle metadata). It reads the signature snapshot taken
// at Load time — a map lookup, never a worker acquisition, so resolving
// handles on a saturated pool cannot block or be rejected. Functions
// defined outside Load (per-worker Exec scripts) are not visible here;
// unknown names carry core.ErrUnknownFunction.
func (p *Pool) FuncParams(_ context.Context, fn string) ([]string, error) {
	p.sigMu.RLock()
	params, ok := p.sigs[fn]
	p.sigMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", core.ErrUnknownFunction, fn)
	}
	out := make([]string, len(params))
	copy(out, params)
	return out, nil
}

// Explain reports why fn runs the way it does (see core.Engine.Explain):
// per cache slot, whether it is pinned imperative, its profiling window,
// distrusted assumptions, and every aggregated deopt event. The compiled-
// graph cache is pool-wide, so any worker's view is the pool's view; the
// call still acquires a worker to hold the engine exclusively.
func (p *Pool) Explain(ctx context.Context, fn string) (*core.ExplainReport, error) {
	e, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.release(e)
	return guard(func() (*core.ExplainReport, error) { return e.Explain(fn) })
}

// Profile returns the executor's always-on per-node profiles for every
// compiled graph cached for fn (see core.Engine.Profile). Like Explain,
// the cache is pool-wide, so one worker's snapshot covers the pool.
func (p *Pool) Profile(ctx context.Context, fn string) (*core.FuncProfile, error) {
	e, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.release(e)
	return guard(func() (*core.FuncProfile, error) { return e.Profile(fn) })
}

// execOn runs src on one engine — in env when non-nil, in the worker's own
// module globals otherwise — and returns the new print output, with engine
// panics recovered into request errors.
func execOn(ctx context.Context, e *core.Engine, src string, env *minipy.Env) (string, error) {
	return guard(func() (string, error) {
		before := len(e.Output())
		var err error
		if env != nil {
			err = e.ExecInCtx(ctx, src, env)
		} else {
			err = e.RunCtx(ctx, src)
		}
		if err != nil {
			return "", err
		}
		return e.Output()[before:], nil
	})
}

// Exec runs an ad-hoc script on one worker and returns its print output.
// Module globals the script defines live on that worker only; use Load for
// definitions every worker must see, or Session.Exec for state that follows
// a session across workers.
func (p *Pool) Exec(src string) (string, error) {
	return p.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context.
func (p *Pool) ExecCtx(ctx context.Context, src string) (string, error) {
	p.metrics.requests.Inc()
	e, err := p.acquire(ctx)
	if err != nil {
		return "", err
	}
	defer p.release(e)
	return execOn(ctx, e, src, nil)
}

// ExecEphemeral runs src in a throwaway module scope layered over one
// worker's globals: reads see the loaded definitions, writes vanish with
// the request. The HTTP layer uses it for sessionless /v1/run — requests
// run on any worker in parallel, leak nothing onto the worker, and clients
// that want state across requests open a session.
func (p *Pool) ExecEphemeral(ctx context.Context, src string) (string, error) {
	p.metrics.requests.Inc()
	e, err := p.acquire(ctx)
	if err != nil {
		return "", err
	}
	defer p.release(e)
	env := minipy.NewEnv(nil)
	env.MarkModule()
	return execOn(ctx, e, src, env)
}

// Stats aggregates engine and serving counters. Every worker resolves its
// instruments in the pool's shared registry, so worker 0's snapshot already
// carries the pool-wide engine counters (the same series every worker
// increments); only the strictly per-engine tensor pools are summed.
func (p *Pool) Stats() Stats {
	var s Stats
	s.Stats = p.engines[0].Stats()
	s.PoolGets, s.PoolHits, s.PoolPuts = 0, 0, 0
	for _, e := range p.engines {
		ps := e.TensorPoolStats()
		s.PoolGets += ps.Gets
		s.PoolHits += ps.Hits
		s.PoolPuts += ps.Puts
	}
	s.Workers = len(p.engines)
	s.Sessions = int(p.sessions.Load())
	s.Requests = p.metrics.requests.Value()
	s.Batches = p.metrics.flushes()
	s.BatchedRequests = p.metrics.batched.Value()
	s.CachedFuncs = p.cache.Funcs()
	s.CachedGraphs = p.cache.Entries()
	s.CacheEvictions = p.cache.Evictions()
	s.Rejected = p.metrics.rejected.Value()
	s.TimedOut = p.metrics.timedOut.Value()
	s.Queued = p.queued.Load()
	return s
}

// Session is a client handle onto the pool. Graphs, parameters and workers
// stay pool-wide — that sharing is the point — but module-level state a
// session creates (Exec scripts defining counters, tensors, helper
// functions) is session-affine: it lives in the session's own environment
// and follows the session to whichever worker serves its next request.
// Previously such globals landed on whichever worker happened to run the
// script, so a follow-up request on another worker silently saw none of
// them.
type Session struct {
	ID       string
	pool     *Pool
	requests atomic.Int64

	// sem is a one-token semaphore serializing the session's stateful
	// requests: env can be attached to only one worker engine at a time
	// (CallNamed is stateless and bypasses it). Waiters go through the pool's
	// admission rules (admitWait) — bounded queue, acquire timeout — so a
	// pile-up on one session fails fast with 429/503 instead of parking
	// goroutines on a mutex forever.
	sem chan struct{}
	env *minipy.Env
}

// NewSession registers a new client session.
func (p *Pool) NewSession() *Session {
	id := p.sessions.Add(1)
	env := minipy.NewEnv(nil)
	// The session env is the module scope for session code: `global` inside
	// session-defined functions binds session state, not worker globals.
	env.MarkModule()
	sem := make(chan struct{}, 1)
	sem <- struct{}{}
	return &Session{ID: fmt.Sprintf("s%d", id), pool: p, env: env, sem: sem}
}

// lock claims the session's serialization token under the pool's
// backpressure rules; the caller must unlock() on success.
func (s *Session) lock(ctx context.Context) error {
	_, err := admitWait(s.pool, ctx, s.sem, nil)
	return err
}

func (s *Session) unlock() { s.sem <- struct{}{} }

// Call invokes a function for this session, resolving the name through the
// session environment first — functions defined by this session's Exec
// scripts shadow the loaded module globals.
func (s *Session) Call(fn string, args []minipy.Value) (minipy.Value, error) {
	return s.CallCtx(context.Background(), fn, args)
}

// CallCtx is Call under a context.
func (s *Session) CallCtx(ctx context.Context, fn string, args []minipy.Value) (minipy.Value, error) {
	s.requests.Add(1)
	s.pool.metrics.requests.Inc()
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer s.unlock()
	e, err := s.pool.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer s.pool.release(e)
	return guard(func() (minipy.Value, error) { return e.CallInCtx(ctx, s.env, fn, args) })
}

// CallNamed runs a batched named-feed call for this session. It is
// stateless with respect to the session environment (the function is a
// pool-wide definition), so it goes straight to the batcher and never
// serializes on the session.
func (s *Session) CallNamed(ctx context.Context, fn string, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	s.requests.Add(1)
	return s.pool.CallNamed(ctx, fn, feeds)
}

// Exec runs an ad-hoc script for this session. Top-level names the script
// binds land in the session environment and are visible to the session's
// later Exec and Call requests regardless of which worker serves them.
func (s *Session) Exec(src string) (string, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context.
func (s *Session) ExecCtx(ctx context.Context, src string) (string, error) {
	s.requests.Add(1)
	s.pool.metrics.requests.Inc()
	if err := s.lock(ctx); err != nil {
		return "", err
	}
	defer s.unlock()
	e, err := s.pool.acquire(ctx)
	if err != nil {
		return "", err
	}
	defer s.pool.release(e)
	return execOn(ctx, e, src, s.env)
}

// Requests returns how many requests this session has issued.
func (s *Session) Requests() int64 { return s.requests.Load() }

// Pool returns the pool this session is a client of.
func (s *Session) Pool() *Pool { return s.pool }
