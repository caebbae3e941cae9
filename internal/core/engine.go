// Package core implements the JANUS runtime of the paper's Figure 2: it
// orchestrates the Profiler, the Speculative Graph Generator, the Graph
// Cache, and the Speculative Graph Executor around an imperative minipy
// program, falling back to the imperative executor whenever an assumption
// fails or a function has no graph representation.
//
// The same Engine type also hosts the two baselines the evaluation compares
// against: pure imperative execution (TensorFlow Eager) and unsafe
// trace-based conversion (TensorFlow defun).
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autodiff"
	"repro/internal/convert"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// Mode selects the execution engine.
type Mode int

// Engine modes.
const (
	// Imperative runs everything on the minipy interpreter with tape
	// autodiff (the TensorFlow Eager baseline).
	Imperative Mode = iota
	// Janus profiles, speculatively converts, validates and falls back — the
	// paper's system.
	Janus
	// Trace converts from a single execution trace with no guards (the
	// defun baseline); conversion failures are user-visible errors and
	// incorrect assumptions are silently wrong, as in Table 1.
	Trace
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Imperative:
		return "imperative"
	case Janus:
		return "janus"
	case Trace:
		return "trace"
	}
	return "unknown"
}

// Config tunes an Engine. The zero value is not useful; use NewEngine.
type Config struct {
	Mode Mode
	// LR is the SGD learning rate applied by optimize().
	LR float64
	// ProfileIters is how many imperative iterations the profiler observes
	// before graph generation (the paper found 3 sufficient; footnote 3).
	ProfileIters int
	// Unroll enables control-flow unrolling/pruning (+UNRL).
	Unroll bool
	// Specialize enables shape/value specialization and the optimizer passes
	// (+SPCN).
	Specialize bool
	// Deprecated: ignored; graphs run serially in topological order and
	// only kernels use more than one goroutine.
	Workers int
	// DisableAsserts skips runtime assumption validation (assertion-cost
	// experiment only).
	DisableAsserts bool
	// Seed seeds the interpreter RNG.
	Seed uint64
	// PyOverheadNs calibrates the imperative executor's per-op dispatch cost
	// to a CPython/TF-Eager-like regime (see DESIGN.md §5). 0 selects the
	// default (5µs); negative disables entirely.
	PyOverheadNs int
	// NoMemoryPlan disables plan-driven buffer reuse in the graph executor
	// (the memory plan is ON by default): with the plan, replayed graphs
	// rent every intermediate tensor from a per-engine pool per the cached
	// liveness analysis and run destination-passing kernels, so steady-state
	// replay allocates ~nothing. The flag exists for A/B tests and
	// benchmarks and as an escape hatch.
	NoMemoryPlan bool
	// DisablePasses skips post-processor passes by name ("arith", "fold",
	// "cse", "dce", "im2col", "fuse"; "all" disables the pipeline) for A/B
	// tests and benchmarks, mirroring NoMemoryPlan.
	DisablePasses []string
	// VerifyPasses runs the graph-invariant verifier (acyclicity, port
	// arity, consumer consistency) between passes; tests and debug builds
	// turn it on.
	VerifyPasses bool
	// Obs, when non-nil, is the metrics registry the engine resolves its
	// instruments in — a serving pool hands every worker the same registry
	// so series (and Stats views) aggregate pool-wide. Nil gives the
	// engine a private registry and strictly per-engine counters.
	Obs *obs.Registry
	// RelaxBatchDim merges compiled entries across feed shapes: when a new
	// conversion produces a graph byte-identical to an already cached entry
	// whose signature differs only in tensor dims, the cached entry's
	// pattern is widened with wildcard dims instead of inserting a second
	// copy — so shape buckets (the serve batcher's padded batch sizes)
	// share one compiled graph. Outputs are bit-identical to exact-shape
	// compilation by construction: the merge only fires when the graphs'
	// canonical encodings are equal. The serving pool enables this when
	// batch bucketing is on.
	RelaxBatchDim bool
}

// memoryPlanOn reports whether plan-driven buffer reuse is enabled.
func (c Config) memoryPlanOn() bool { return !c.NoMemoryPlan }

// DefaultJanusConfig returns the full-featured JANUS configuration.
func DefaultJanusConfig() Config {
	return Config{Mode: Janus, LR: 0.1, ProfileIters: 3, Unroll: true, Specialize: true}
}

// Stats is a point-in-time snapshot of engine activity; the evaluation
// harness and the serving subsystem read these via Engine.Stats().
type Stats struct {
	ImperativeSteps int
	GraphSteps      int
	Conversions     int
	ConversionFails int
	CacheHits       int
	CacheMisses     int
	AssertFailures  int
	Fallbacks       int
	// SigHashHits counts graph-cache lookups served by the per-function
	// signature-hash index (no token re-materialization, no SigMatch scan).
	SigHashHits int
	// PoolGets/PoolHits/PoolPuts snapshot the engine's tensor pool: rentals,
	// rentals served by reuse, and returns (see tensor.PoolStats).
	PoolGets       int64
	PoolHits       int64
	PoolPuts       int64
	OptimizeReport map[string]int
}

// Add accumulates another snapshot into s (the serving pool aggregates
// per-worker stats this way).
func (s *Stats) Add(o Stats) {
	s.ImperativeSteps += o.ImperativeSteps
	s.GraphSteps += o.GraphSteps
	s.Conversions += o.Conversions
	s.ConversionFails += o.ConversionFails
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.AssertFailures += o.AssertFailures
	s.Fallbacks += o.Fallbacks
	s.SigHashHits += o.SigHashHits
	s.PoolGets += o.PoolGets
	s.PoolHits += o.PoolHits
	s.PoolPuts += o.PoolPuts
	for k, v := range o.OptimizeReport {
		if s.OptimizeReport == nil {
			s.OptimizeReport = map[string]int{}
		}
		s.OptimizeReport[k] += v
	}
}

// compiled is one graph-cache entry.
type compiled struct {
	pattern []string
	// leafCount is the number of runtime-fed leaves (tensors, objects) in
	// pattern; hash-index hits are cross-checked against it so a 64-bit
	// signature-hash collision with a different arity can never execute
	// this graph with misaligned feeds.
	leafCount int
	// res.Dynamic marks graphs differentiated through the executor's trace
	// tape; the rest (static) carry their own gradient/update ops.
	res *convert.Result
	// passes is the post-processor pipeline report for this graph (nil when
	// the pipeline was disabled), surfaced through Explain.
	passes *passes.Report
	// fromSnapshot marks entries restored from a persisted artifact rather
	// than compiled in this process (provenance on /v1/cache).
	fromSnapshot bool
	// hits and lastUse feed the cache's LRU-by-hit eviction policy and the
	// /v1/cache inspection endpoint; lastUse holds the cache's logical clock
	// at the most recent lookup hit (or at insertion).
	hits    atomic.Int64
	lastUse atomic.Int64
}

// funcState tracks one optimized function across iterations. When the
// engine's GraphCache is shared by a serving pool, a funcState is reached
// from several engines at once: fs.mu serializes profiling, generation and
// entry-list mutation per function, while graph execution (which only reads
// an immutable *compiled) runs outside the lock.
type funcState struct {
	mu      sync.Mutex
	key     cacheKey
	prof    *profile.Profile
	entries []*compiled
	// sigIndex memoizes signature hash → matched entry, so a repeated call
	// with an already-seen concrete feed signature skips re-materializing
	// the token signature and the SigMatch scan (convert.FlattenHash). Every
	// entry here was verified once through the full token path; eviction
	// (capacity or assumption failure) removes its hashes.
	sigIndex map[uint64]*compiled
	// distrust records AST nodes whose speculative assumptions failed.
	distrust map[int]bool
	// deopts aggregates assumption failures into structured events for
	// Engine.Explain, keyed by kind+AST+description (stable across
	// regeneration, unlike node IDs).
	deopts map[string]*DeoptEvent
	// imperativeOnly marks functions with no graph representation (Fig. 2,
	// path C).
	imperativeOnly bool
	impReason      string
	// reprofileUntil delays regeneration after an assumption failure so the
	// profiler can observe more behaviour first (§3.2).
	reprofileUntil int
}

// Engine runs minipy programs under one of the three execution modes.
//
// An Engine's interpreter is single-threaded: callers must not run two
// programs on the same Engine concurrently. Concurrency is achieved by
// creating several engines that share a Store and a GraphCache (see
// NewEngineShared and internal/serve).
type Engine struct {
	cfg   Config
	Store *vars.Store
	Local *minipy.Interp
	Opt   autodiff.Optimizer
	// obs is the metrics registry (shared in a pool, private otherwise);
	// stats holds the pre-resolved instrument handles the hot paths touch.
	obs   *obs.Registry
	stats *counters
	cache *GraphCache
	heap  *heapAdapter
	// pool and arena back plan-driven graph replay (Config.NoMemoryPlan
	// off): the pool recycles intermediate tensors across executions, the
	// arena recycles scheduler state. Both are per-engine — a serving pool's
	// engines share parameters and compiled graphs but never buffers.
	pool  *tensor.Pool
	arena *exec.Arena
	// tapes holds idle gradient tapes (at most maxIdleTapes), reset for
	// the next step; backprop on them rents from pool.
	tapes []*autodiff.Tape
	// gradSink, when set, diverts parameter updates: instead of applying the
	// optimizer locally, each watched variable's gradient is handed to the
	// sink as backprop finalizes it (see SetGradSink).
	gradSink func(name string, g *tensor.Tensor)
	// runCtx is the context of the in-flight ctx-aware entry point (RunCtx,
	// CallCtx, ...). The engine is single-threaded per run — callers already
	// must not execute two programs on one engine concurrently — so a plain
	// field scoped by withCtx is race-free. It is checked between training
	// steps, at fallback boundaries, and (throttled) between interpreted
	// statements via the interpreter's Interrupt hook.
	runCtx context.Context
	// progSpans records the AST-ID span of every program this engine has
	// run, in load order. Artifact persistence keys cached functions by
	// (program index, ID offset) — stable across processes, unlike the raw
	// process-global AST IDs (see internal/core/artifact.go).
	spanMu    sync.Mutex
	progSpans []progSpan
}

// progSpan is the AST-ID range [first, last] of one loaded program.
type progSpan struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// recordSpan notes a program's AST-ID span once (re-running the same
// program, as pool workers do at load, records nothing new).
func (e *Engine) recordSpan(prog *minipy.Program) {
	if prog.FirstID <= 0 || prog.NumNodes < prog.FirstID {
		return
	}
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	for _, s := range e.progSpans {
		if s.First == prog.FirstID && s.Last == prog.NumNodes {
			return
		}
	}
	e.progSpans = append(e.progSpans, progSpan{First: prog.FirstID, Last: prog.NumNodes})
}

// spans snapshots the recorded program spans.
func (e *Engine) spans() []progSpan {
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	return append([]progSpan(nil), e.progSpans...)
}

// NewEngine builds an engine with a fresh parameter store and graph cache.
func NewEngine(cfg Config) *Engine {
	return NewEngineShared(cfg, vars.NewStore(), NewGraphCache())
}

// NewEngineShared builds an engine around an existing parameter store and
// compiled-graph cache. A serving pool passes the same store and cache to
// every worker engine so parameters stay consistent and a graph converted
// for one client is a cache hit for all others.
func NewEngineShared(cfg Config, store *vars.Store, cache *GraphCache) *Engine {
	if cfg.ProfileIters < 1 {
		cfg.ProfileIters = 3
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	oreg := cfg.Obs
	if oreg == nil {
		oreg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:   cfg,
		Store: store,
		Opt:   &autodiff.SGD{LR: cfg.LR},
		obs:   oreg,
		stats: newCounters(oreg),
		cache: cache,
	}
	if cfg.Obs == nil {
		// Private registry → this engine is the cache's only registrar.
		// With a shared registry the owner (the serving pool) registers
		// the shared cache exactly once instead.
		RegisterCacheMetrics(oreg, cache)
	}
	if cfg.memoryPlanOn() {
		e.pool = tensor.NewPool()
		e.arena = exec.NewArena()
		registerPoolMetrics(oreg, e.pool)
	}
	reg := minipy.DefaultRegistry().Clone()
	reg.Register(&minipy.Builtin{Name: "optimize",
		Fn: func(it *minipy.Interp, args []minipy.Value, kwargs map[string]minipy.Value) (minipy.Value, error) {
			if len(args) != 1 {
				return nil, errors.New("optimize(fn) wants one callable")
			}
			fn, ok := args[0].(*minipy.FuncVal)
			if !ok {
				return nil, fmt.Errorf("optimize() wants a function, got %s", args[0].TypeName())
			}
			return e.optimizeStep(fn)
		}})
	e.Local = minipy.NewInterp(reg)
	e.Local.SetStore(e.Store)
	e.Local.Interrupt = e.interrupted
	switch {
	case cfg.PyOverheadNs > 0:
		e.Local.OpDelay = time.Duration(cfg.PyOverheadNs) * time.Nanosecond
	case cfg.PyOverheadNs == 0:
		e.Local.OpDelay = 5 * time.Microsecond
	}
	if cfg.Seed != 0 {
		e.Local.SeedRNG(cfg.Seed)
	}
	e.heap = &heapAdapter{}
	return e
}

// Run executes a full program (model definition + training loop).
func (e *Engine) Run(src string) error { return e.RunCtx(context.Background(), src) }

// RunCtx executes a full program under ctx: cancellation or deadline expiry
// stops execution between statements and between training steps with
// ErrCanceled, leaving parameters in an all-or-nothing state (either a step
// fully applied or not at all).
func (e *Engine) RunCtx(ctx context.Context, src string) error {
	prog, err := minipy.Parse(src)
	if err != nil {
		return err
	}
	e.recordSpan(prog)
	restore := e.withCtx(ctx)
	defer restore()
	if err := e.interrupted(); err != nil {
		return err
	}
	return e.Local.Run(prog)
}

// withCtx installs ctx as the engine's run context and returns the restore
// function. Nested ctx-aware calls (a Call inside a served session script)
// stack correctly because the previous context is restored on exit.
func (e *Engine) withCtx(ctx context.Context) func() {
	prev := e.runCtx
	e.runCtx = ctx
	return func() { e.runCtx = prev }
}

// interrupted reports whether the current run context has been canceled.
func (e *Engine) interrupted() error {
	if ctx := e.runCtx; ctx != nil && ctx.Err() != nil {
		return CanceledErr(ctx)
	}
	return nil
}

// asCanceled maps a graph-executor error caused by run-context cancellation
// onto the ErrCanceled sentinel; other errors pass through unchanged. The
// executor wraps context.Cause of the run context, so cancellations with a
// custom cause (context.WithCancelCause) map too — without masking genuine
// execution failures that merely race a cancellation.
func (e *Engine) asCanceled(err error) error {
	if err == nil {
		return nil
	}
	ctx := e.runCtx
	if ctx == nil || ctx.Err() == nil {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Cause(ctx)) {
		return CanceledErr(ctx)
	}
	return err
}

// RunProgram executes a pre-parsed program.
func (e *Engine) RunProgram(prog *minipy.Program) error {
	e.recordSpan(prog)
	return e.Local.Run(prog)
}

// Output returns accumulated print() output.
func (e *Engine) Output() string { return e.Local.Out.String() }

// Define binds a module-level global in the engine's interpreter. The model
// harness uses it to inject per-step data (batches, episodes, noise) that the
// optimized functions capture.
func (e *Engine) Define(name string, v minipy.Value) {
	if err := e.Local.Globals.Define(name, v); err != nil {
		panic(err) // module-scope Define cannot fail
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetGradSink diverts this engine's parameter updates to sink: during every
// subsequent training step, each watched variable's gradient is passed to
// sink the moment backprop finalizes it (top layers first), and the local
// optimizer is NOT applied. A distributed worker uses this to stream
// per-tensor gradients to a parameter server while backprop is still
// running, overlapping communication with compute — the effect the paper's
// §6.3.2 attributes the graph engine's multi-device scalability to.
//
// The sink is read at every step, in every mode, and compiled graphs do not
// depend on it: a static graph's update ops emit to the sink when one is
// installed, so it may be set or cleared (nil restores local updates)
// between any two steps without reconversion.
func (e *Engine) SetGradSink(sink func(name string, g *tensor.Tensor)) { e.gradSink = sink }

// Stats returns a race-safe snapshot of the engine's counters, including
// the tensor pool's rental statistics when the memory plan is enabled.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	if e.pool != nil {
		ps := e.pool.Stats()
		s.PoolGets, s.PoolHits, s.PoolPuts = ps.Gets, ps.Hits, ps.Puts
	}
	return s
}

// Cache returns the engine's compiled-graph cache (possibly shared).
func (e *Engine) Cache() *GraphCache { return e.cache }

// Registry returns the engine's metrics registry (shared when the engine
// was built with Config.Obs, private otherwise).
func (e *Engine) Registry() *obs.Registry { return e.obs }

// TensorPoolStats snapshots the engine's (strictly per-engine) tensor
// pool counters; zero when the memory plan is disabled. The serving pool
// sums these across workers separately from the registry-backed Stats,
// which are shared series under a shared registry.
func (e *Engine) TensorPoolStats() tensor.PoolStats {
	if e.pool == nil {
		return tensor.PoolStats{}
	}
	return e.pool.Stats()
}

// optimizeStep implements one training step of the loss function fn: the
// core of Figure 2. The step boundary doubles as a cancellation point: a
// canceled context stops a training loop here, before the next step touches
// any state.
func (e *Engine) optimizeStep(fn *minipy.FuncVal) (minipy.Value, error) {
	if err := e.interrupted(); err != nil {
		return nil, err
	}
	switch e.cfg.Mode {
	case Imperative:
		return e.imperative(fn, nil, nil, true)
	case Janus:
		return e.speculativeStep(fn, nil, true)
	case Trace:
		return e.traceStep(fn)
	}
	return nil, fmt.Errorf("core: unknown mode %d", e.cfg.Mode)
}

// imperative runs fn(args...) on the interpreter under a fresh gradient
// tape. train marks an optimize() step: fn must return a tensor loss, whose
// gradients go to the optimizer (or the gradient sink). prof, when non-nil,
// observes the execution for the speculative converter; callers must hold
// the funcState lock in that case.
func (e *Engine) imperative(fn *minipy.FuncVal, args []minipy.Value, prof *profile.Profile, train bool) (minipy.Value, error) {
	sp := obs.StartSpan(e.runCtx, "imperative")
	t0 := time.Now()
	v, err := e.runImperative(fn, args, prof, train)
	e.stats.phaseImperative.Since(t0)
	sp.End()
	return v, err
}

func (e *Engine) runImperative(fn *minipy.FuncVal, args []minipy.Value, prof *profile.Profile, train bool) (minipy.Value, error) {
	e.stats.imperativeSteps.Add(1)
	prevTape, prevProf := e.Local.Tape, e.Local.Prof
	tape := e.takeTape()
	e.Local.Tape = tape
	if prof != nil {
		e.Local.Prof = prof
	}
	defer func() {
		e.putTape(tape)
		e.Local.Tape, e.Local.Prof = prevTape, prevProf
	}()
	out, err := e.Local.CallFunction(fn, args)
	if err != nil {
		return nil, err
	}
	if train {
		loss, ok := out.(*minipy.TensorVal)
		if !ok {
			return nil, fmt.Errorf("core: optimize() function returned %s, want tensor loss", out.TypeName())
		}
		if e.gradSink != nil {
			tape.GradientStream(loss.Node, e.gradSink)
		} else {
			grads := tape.Gradient(loss.Node)
			e.Opt.Apply(e.Store, grads)
		}
	}
	if prof != nil {
		prof.EndIteration()
	}
	return out, nil
}

// state returns the per-function bookkeeping from the (possibly shared)
// graph cache.
func (e *Engine) state(fn *minipy.FuncVal, infer bool) *funcState {
	id := -1
	if fn.Def != nil {
		id = fn.Def.ID()
	}
	return e.cache.state(cacheKey{fn: id, infer: infer})
}

// speculativeStep is the full speculative path — profile, generate,
// validate, execute, fall back — behind both entry points. train selects the
// optimize() step (fn is the loss closure, args nil, and the graph carries
// gradient and update ops or runs under the trace tape); otherwise fn(args...)
// is a plain call whose forward-only graphs are cached apart from the
// training entries. Functions that themselves call optimize() end up
// imperative-only here, and their inner optimize() still reaches the training
// path with its own funcState.
//
// fs.mu is held through profiling, lookup and generation — when engines
// share the cache this serializes the per-function slow path (and prevents
// duplicate conversions for the same signature) — and released around graph
// execution, so cached-graph steps for the same function run concurrently.
func (e *Engine) speculativeStep(fn *minipy.FuncVal, args []minipy.Value, train bool) (minipy.Value, error) {
	fs := e.state(fn, !train)
	fs.mu.Lock()
	impOnly := fs.imperativeOnly
	fs.mu.Unlock()
	if impOnly {
		// Imperative-only functions never regenerate, so the shared profile
		// is no longer consulted: run unlocked so pool engines interpret the
		// function in parallel instead of serializing on fs.mu.
		return e.imperative(fn, args, nil, train)
	}
	var entry *compiled
	var leaves []minipy.Value
	// Slow path under fs.mu; handled=true means the step completed (or
	// failed) without needing graph execution. The closure keeps the unlock
	// in a defer, so a panic in conversion (recovered by the serving layer)
	// can never leave the function's lock held.
	out, handled, err := func() (minipy.Value, bool, error) {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.imperativeOnly {
			v, err := e.imperative(fn, args, fs.prof, train)
			return v, true, err
		}
		if fs.prof.Iterations() < e.cfg.ProfileIters || fs.prof.Iterations() < fs.reprofileUntil {
			// (A) Profile: not enough information for realistic assumptions.
			v, err := e.imperative(fn, args, fs.prof, train)
			return v, true, err
		}
		hash, lv := convert.FlattenHash(fn, args)
		if entry = e.hashLookup(fs, hash, len(lv)); entry == nil {
			sig, _ := convert.Flatten(fn, args)
			entry = e.lookup(fs, sig)
			if entry == nil {
				e.stats.cacheMisses.Add(1)
				obs.TraceFrom(e.runCtx).Annotate("cache", "miss")
				var gerr error
				entry, gerr = e.generate(fs, fn, args, sig, len(lv), convert.Options{
					Unroll:     e.cfg.Unroll,
					Specialize: e.cfg.Specialize,
					Distrust:   fs.distrust,
				}, train)
				if gerr != nil {
					if errors.Is(gerr, convert.ErrNotConvertible) {
						// (C) Do not generate: imperative-only function.
						fs.imperativeOnly = true
						fs.impReason = gerr.Error()
						e.stats.conversionFails.Add(1)
						v, err := e.imperative(fn, args, fs.prof, train)
						return v, true, err
					}
					return nil, true, gerr
				}
			} else {
				e.stats.cacheHits.Add(1)
				obs.TraceFrom(e.runCtx).Annotate("cache", "hit")
			}
			memoizeSig(fs, hash, entry)
		}
		leaves = lv
		return nil, false, nil
	}()
	if handled {
		return out, err
	}
	t0 := time.Now()
	out, err = e.execute(entry, leaves, train)
	if err == nil {
		e.stats.graphSteps.Add(1)
		obs.TraceFrom(e.runCtx).Annotate("path", "graph")
		return out, nil
	}
	var ae *exec.AssertError
	if errors.As(err, &ae) {
		// (E) Fallback: the assumption was wrong; no state was mutated
		// (all-or-nothing), so re-running imperatively is safe and correct.
		// The fallback boundary is also a cancellation point: a canceled
		// caller gets ErrCanceled here instead of paying for the imperative
		// re-run.
		wasted := time.Since(t0)
		e.stats.assertFailures.Add(1)
		e.stats.fallbacks.Add(1)
		fs.mu.Lock()
		defer fs.mu.Unlock()
		ev := e.noteFailure(fs, entry, ae, wasted)
		tr := obs.TraceFrom(e.runCtx)
		tr.Annotate("path", "fallback")
		tr.Annotate("deopt", ev.Label())
		if cerr := e.interrupted(); cerr != nil {
			return nil, cerr
		}
		return e.imperative(fn, args, fs.prof, train)
	}
	return nil, err
}

// lookup finds a cached graph whose signature pattern matches, stamping it
// for the LRU eviction policy.
func (e *Engine) lookup(fs *funcState, sig []string) *compiled {
	for _, c := range fs.entries {
		if convert.SigMatch(c.pattern, sig) {
			e.cache.touch(c)
			return c
		}
	}
	return nil
}

// hashLookup serves a cache lookup from the function's memoized
// signature-hash index (fs.mu held). A hit skips both signature-token
// materialization and the SigMatch scan; the leaf-count cross-check rejects
// any hash collision that would misalign the feed placeholders.
func (e *Engine) hashLookup(fs *funcState, hash uint64, wantLeaves int) *compiled {
	c, ok := fs.sigIndex[hash]
	if !ok || c.leafCount != wantLeaves {
		return nil
	}
	e.cache.touch(c)
	e.stats.cacheHits.Add(1)
	e.stats.sigHashHits.Add(1)
	obs.TraceFrom(e.runCtx).Annotate("cache", "sighash_hit")
	return c
}

// sigIndexCap bounds the per-function hash index: a shape-generalized
// (wildcard) pattern can match unboundedly many concrete signatures, each
// adding a key, so the index is reset — it is only a cache — rather than
// allowed to grow with signature churn in a long-lived server.
const sigIndexCap = 512

// memoizeSig records hash → entry in the bounded index (fs.mu held).
func memoizeSig(fs *funcState, hash uint64, c *compiled) {
	if len(fs.sigIndex) >= sigIndexCap {
		fs.sigIndex = make(map[uint64]*compiled, 16)
	}
	fs.sigIndex[hash] = c
}

// dropFromSigIndex removes every memoized hash pointing at an evicted entry
// (the owning funcState's lock must be held).
func dropFromSigIndex(fs *funcState, c *compiled) {
	for h, en := range fs.sigIndex {
		if en == c {
			delete(fs.sigIndex, h)
		}
	}
}

// generate runs the Speculative Graph Generator (Figure 2, B) over
// fn(args...) and caches the result. With train, gradient and update ops are
// appended to static graphs; a forward-only graph is always static.
func (e *Engine) generate(fs *funcState, fn *minipy.FuncVal, args []minipy.Value, sig []string, numLeaves int, copts convert.Options, train bool) (*compiled, error) {
	csp := obs.StartSpan(e.runCtx, "convert")
	t0 := time.Now()
	res, err := convert.ConvertCall(fn, args, fs.prof, e.Local.Builtins, copts)
	e.stats.phaseConvert.Since(t0)
	csp.End()
	if err != nil {
		if copts.Trace {
			// defun has no imperative fallback: what the converter cannot
			// express (recursion, state updates) is a hard error.
			err = fmt.Errorf("core: trace conversion failed (defun limitation): %w", err)
		}
		return nil, err
	}
	ksp := obs.StartSpan(e.runCtx, "compile")
	t1 := time.Now()
	if train && convert.FinalizeTraining(res, e.cfg.LR) != nil {
		// The one static-vs-tape decision: graph.Gradients met an op or
		// output it cannot differentiate and left the graph untouched, so
		// train it on the executor's trace tape instead.
		res.Dynamic = true
	}
	rep, perr := e.runPasses(res, copts.Specialize)
	e.stats.phaseCompile.Since(t1)
	ksp.End()
	if perr != nil {
		return nil, perr
	}
	e.stats.addReport(rep)
	e.stats.conversions.Add(1)
	if o := e.tryRelaxMerge(fs, res, sig, numLeaves); o != nil {
		return o, nil
	}
	c := &compiled{pattern: sig, leafCount: numLeaves, res: res, passes: rep}
	fs.entries = append(fs.entries, c)
	e.cache.noteInsert(c)
	return c, nil
}

// tryRelaxMerge implements the symbolic batch-dim variant of the cache
// (Config.RelaxBatchDim): instead of inserting a freshly compiled graph as
// a new entry, find an existing entry whose signature differs from the new
// one only in tensor dims AND whose compiled graph is byte-identical to the
// new one — meaning the differing dims never influenced compilation (the
// Into kernels size outputs from runtime shapes, so such graphs are
// batch-size agnostic). The existing entry's pattern is widened with
// wildcard dims and reused; the new graph is discarded. Because the merge
// requires canonical-encoding equality, a bucketed execution runs exactly
// the graph exact-shape compilation would have produced: bit-identical
// outputs by construction, with false negatives (no merge) as the only
// failure mode. Caller holds fs.mu.
func (e *Engine) tryRelaxMerge(fs *funcState, res *convert.Result, sig []string, numLeaves int) *compiled {
	if !e.cfg.RelaxBatchDim {
		return nil
	}
	var newBytes []byte
	for _, o := range fs.entries {
		if o.res.Dynamic != res.Dynamic || o.leafCount != numLeaves {
			continue
		}
		relaxed := convert.RelaxSignature(o.pattern, sig)
		if relaxed == nil {
			continue
		}
		if newBytes == nil {
			b, err := graph.CanonicalBytes(res.Graph)
			if err != nil {
				return nil // unserializable graph: never mergeable
			}
			newBytes = b
		}
		ob, err := graph.CanonicalBytes(o.res.Graph)
		if err != nil || !bytes.Equal(newBytes, ob) {
			continue
		}
		o.pattern = relaxed
		e.cache.touch(o)
		e.stats.bucketRelaxed.Inc()
		obs.TraceFrom(e.runCtx).Annotate("cache", "relax_merge")
		return o
	}
	return nil
}

// execute runs a compiled graph with the given feed leaves (Figure 2, D),
// timing the execute phase. The wrapper adds two clock reads and one
// histogram observation per graph run — nothing on the per-op replay path.
// Under an active trace the execute span's ID is pushed onto the run
// context so downstream spans (plan builds, parameter-server pushes) nest
// under it; without a trace the whole exchange is a nil check.
func (e *Engine) execute(c *compiled, leaves []minipy.Value, train bool) (minipy.Value, error) {
	sp := obs.StartSpan(e.runCtx, "execute")
	t0 := time.Now()
	restore := func() {}
	if sp.ID() != 0 {
		restore = e.withCtx(obs.ContextWithSpan(e.runCtx, sp.ID()))
	}
	v, err := e.executeGraph(c, leaves, train)
	restore()
	e.stats.phaseExecute.Since(t0)
	sp.End()
	return v, err
}

// executeGraph feeds and runs c's graph. A training graph yields its loss —
// a static one ran its own update ops, which hand each gradient to the sink
// installed at this run (if any) instead of updating locally; a dynamic one
// is differentiated here through the executor's trace tape. A forward
// graph's outputs convert back to minipy values (a single output unwraps,
// several become a tuple).
func (e *Engine) executeGraph(c *compiled, leaves []minipy.Value, train bool) (minipy.Value, error) {
	feeds := make(map[string]graph.Val, len(leaves))
	for i, v := range leaves {
		feeds[feedName(i)] = minipyToGraph(v)
	}
	opts := exec.Options{
		Store:          e.Store,
		Heap:           e.heap,
		DisableAsserts: e.cfg.DisableAsserts,
		Metrics:        e.stats.exec,
		// Plan-driven buffer reuse (nil when disabled; the executor itself
		// ignores the pool for tape-mode dynamic graphs).
		Pool:  e.pool,
		Arena: e.arena,
		// The scheduler checks the run context between nodes (and inside
		// While/Invoke subgraphs), so cancellation lands mid-execution on
		// long graphs, not just at the next step boundary.
		Ctx:      e.runCtx,
		GradSink: e.gradSink,
	}
	var tape *autodiff.Tape
	if c.res.Dynamic {
		// Dynamic graph: executed-trace tape gradients, optimizer applied here.
		tape = e.takeTape()
		defer e.putTape(tape)
		opts.Tape = tape
	}
	res, err := exec.Run(c.res.Graph, feeds, opts)
	if err != nil {
		return nil, e.asCanceled(err)
	}
	if !train {
		if len(res.Outputs) == 0 {
			return minipy.None, nil
		}
		if len(res.Outputs) == 1 {
			return graphToMinipy(res.Outputs[0]), nil
		}
		items := make([]minipy.Value, len(res.Outputs))
		for i, o := range res.Outputs {
			items[i] = graphToMinipy(o)
		}
		return &minipy.TupleVal{Items: items}, nil
	}
	if !c.res.Dynamic {
		t, err := graph.AsTensor(res.Outputs[0])
		if err != nil {
			return nil, fmt.Errorf("core: graph loss: %v", err)
		}
		return minipy.NewTensor(t), nil
	}
	node, ok := res.Outputs[0].(*autodiff.Node)
	if !ok {
		t, err := graph.AsTensor(res.Outputs[0])
		if err != nil {
			return nil, fmt.Errorf("core: dynamic graph loss: %v", err)
		}
		node = autodiff.Const(t)
	}
	if e.gradSink != nil {
		tape.GradientStream(node, e.gradSink)
	} else {
		grads := tape.Gradient(node)
		e.Opt.Apply(e.Store, grads)
	}
	return minipy.NewTensor(node.Value), nil
}

// noteFailure reacts to a failed runtime assertion: the offending graph is
// evicted, the assumption's AST node is distrusted, the failure is folded
// into the function's deopt ledger (with the abandoned execution time it
// cost), and the profiler gets a fresh observation window before
// regeneration. Returns the aggregated deopt event for trace annotation.
func (e *Engine) noteFailure(fs *funcState, c *compiled, ae *exec.AssertError, wasted time.Duration) *DeoptEvent {
	for i, entry := range fs.entries {
		if entry == c {
			fs.entries = append(fs.entries[:i], fs.entries[i+1:]...)
			e.cache.noteRemove()
			break
		}
	}
	dropFromSigIndex(fs, c)
	for _, a := range c.res.Asserts {
		if a.ID == ae.NodeID {
			if ast := a.IntAttr("ast", -1); ast >= 0 {
				fs.distrust[ast] = true
			}
		}
	}
	fs.reprofileUntil = fs.prof.Iterations() + e.cfg.ProfileIters
	return e.recordDeopt(fs, c, ae, wasted)
}

// traceStep implements the defun baseline: one imperative run records a
// trace, conversion happens once with no guards, and the graph replays
// forever. Conversion failures are hard errors (matching defun's behaviour
// for recursion and state updates).
func (e *Engine) traceStep(fn *minipy.FuncVal) (minipy.Value, error) {
	fs := e.state(fn, false)
	var entry *compiled
	var leaves []minipy.Value
	loss, handled, err := func() (minipy.Value, bool, error) {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.prof.Iterations() < 1 {
			v, err := e.imperative(fn, nil, fs.prof, true)
			return v, true, err
		}
		sig, lv := convert.Flatten(fn, nil)
		if len(fs.entries) > 0 {
			// A single traced graph, reused unconditionally — even when the
			// signature changed. That unchecked reuse is the unsafety.
			entry = fs.entries[0]
			e.cache.touch(entry)
		} else {
			// fs.entries is empty here, so generate's relax-merge finds
			// nothing to merge into and always inserts.
			var err error
			entry, err = e.generate(fs, fn, nil, sig, len(lv), convert.Options{
				Unroll: true, Specialize: true, Trace: true,
			}, true)
			if err != nil {
				return nil, true, err
			}
		}
		leaves = lv
		return nil, false, nil
	}()
	if handled {
		return loss, err
	}
	loss, err = e.execute(entry, leaves, true)
	if err != nil {
		return nil, err
	}
	e.stats.graphSteps.Add(1)
	return loss, nil
}

// maxIdleTapes bounds the idle tapes an engine keeps. A step holds one tape;
// a step nested inside another (a function that itself calls optimize())
// holds a second.
const maxIdleTapes = 2

// takeTape returns an idle tape, or a new one backed by the engine's pool.
func (e *Engine) takeTape() *autodiff.Tape {
	if n := len(e.tapes); n > 0 {
		t := e.tapes[n-1]
		e.tapes = e.tapes[:n-1]
		return t
	}
	return autodiff.NewPooledTape(e.pool)
}

// putTape resets a finished step's tape and keeps it for the next one.
func (e *Engine) putTape(t *autodiff.Tape) {
	t.Reset()
	if len(e.tapes) < maxIdleTapes {
		e.tapes = append(e.tapes, t)
	}
}

// feedNameCache interns the placeholder names ("f0", "f1", ...) the
// converter assigns to flattened leaves, so per-step feed-map construction
// does not re-format them.
var feedNameCache = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = fmt.Sprintf("f%d", i)
	}
	return a
}()

func feedName(i int) string {
	if i >= 0 && i < len(feedNameCache) {
		return feedNameCache[i]
	}
	return fmt.Sprintf("f%d", i)
}

// --- heap adapter ---------------------------------------------------------------

// heapAdapter bridges the graph executor's Heap interface to minipy objects,
// converting between minipy values and graph edge values at the boundary.
type heapAdapter struct{}

func (h *heapAdapter) GetAttr(obj any, name string) (any, error) {
	o, ok := obj.(*minipy.ObjectVal)
	if !ok {
		return nil, fmt.Errorf("core: heap GetAttr on %T", obj)
	}
	v, ok := o.Attrs[name]
	if !ok {
		return nil, fmt.Errorf("core: %s object has no attribute %q", o.Class.Name, name)
	}
	return minipyToGraph(v), nil
}

func (h *heapAdapter) SetAttr(obj any, name string, v any) error {
	o, ok := obj.(*minipy.ObjectVal)
	if !ok {
		return fmt.Errorf("core: heap SetAttr on %T", obj)
	}
	o.Attrs[name] = graphToMinipy(v)
	return nil
}

func (h *heapAdapter) GetSubscr(obj, key any) (any, error) {
	switch o := obj.(type) {
	case *minipy.ListVal:
		i, err := graph.AsInt(key)
		if err != nil {
			return nil, err
		}
		if i < 0 {
			i += len(o.Items)
		}
		if i < 0 || i >= len(o.Items) {
			return nil, fmt.Errorf("core: list index %d out of range", i)
		}
		return minipyToGraph(o.Items[i]), nil
	case *minipy.DictVal:
		k, err := minipy.DictKey(graphToMinipy(key))
		if err != nil {
			return nil, err
		}
		v, ok := o.Entries[k]
		if !ok {
			return nil, fmt.Errorf("core: dict key not found")
		}
		return minipyToGraph(v), nil
	}
	return nil, fmt.Errorf("core: heap GetSubscr on %T", obj)
}

func (h *heapAdapter) SetSubscr(obj, key, v any) error {
	switch o := obj.(type) {
	case *minipy.ListVal:
		i, err := graph.AsInt(key)
		if err != nil {
			return err
		}
		if i < 0 {
			i += len(o.Items)
		}
		if i < 0 || i >= len(o.Items) {
			return fmt.Errorf("core: list index %d out of range", i)
		}
		o.Items[i] = graphToMinipy(v)
		return nil
	case *minipy.DictVal:
		k, err := minipy.DictKey(graphToMinipy(key))
		if err != nil {
			return err
		}
		o.Entries[k] = graphToMinipy(v)
		return nil
	}
	return fmt.Errorf("core: heap SetSubscr on %T", obj)
}

// minipyToGraph converts a minipy value to a graph edge value.
func minipyToGraph(v minipy.Value) graph.Val {
	switch x := v.(type) {
	case *minipy.TensorVal:
		return x.T()
	case minipy.IntVal:
		return int(x)
	case minipy.FloatVal:
		return float64(x)
	case minipy.BoolVal:
		return bool(x)
	case minipy.StrVal:
		return string(x)
	case minipy.NoneVal:
		return nil
	default:
		return v // objects, lists, dicts pass as references
	}
}

// graphToMinipy converts a graph edge value back into a minipy value.
func graphToMinipy(v graph.Val) minipy.Value {
	switch x := v.(type) {
	case *tensor.Tensor:
		return minipy.NewTensor(x)
	case *autodiff.Node:
		return &minipy.TensorVal{Node: x}
	case int:
		return minipy.IntVal(x)
	case int64:
		return minipy.IntVal(x)
	case float64:
		return minipy.FloatVal(x)
	case bool:
		return minipy.BoolVal(x)
	case string:
		return minipy.StrVal(x)
	case nil:
		return minipy.None
	case minipy.Value:
		return x
	case []graph.Val:
		items := make([]minipy.Value, len(x))
		for i, e := range x {
			items[i] = graphToMinipy(e)
		}
		return &minipy.ListVal{Items: items}
	}
	return minipy.None
}
