// Package janus is the public API of this Go reproduction of
// "JANUS: Fast and Flexible Deep Learning via Symbolic Graph Execution of
// Imperative Programs" (Jeong et al., NSDI 2019).
//
// A Runtime executes imperative DL programs written in minipy (a small
// Python-like language — see internal/minipy) under one of three engines:
//
//   - EngineImperative: direct interpretation with tape autodiff (the
//     TensorFlow Eager baseline);
//   - EngineJanus: the paper's system — profile a few iterations, generate a
//     speculative symbolic dataflow graph under profile-derived assumptions,
//     validate those assumptions with embedded assertions at run time, and
//     fall back to the interpreter (with all-or-nothing state updates)
//     whenever one fails;
//   - EngineTrace: unsafe single-trace conversion (the tf.defun baseline),
//     kept for the correctness comparisons of the paper's Figure 6.
//
// Programs look like ordinary Python training scripts; the only framework
// entry point is optimize(fn), which performs one SGD step on the scalar
// loss returned by fn.
//
// # API v1: function handles
//
// The primary surface is the function-handle API: Compile a program once,
// resolve module-level functions into handles, and Call them with named
// tensor feeds under a context:
//
//	rt := janus.New(janus.Options{Engine: janus.EngineJanus})
//	prog, err := rt.Compile(`
//	def loss_fn(x, y):
//	    w = variable("w", [1, 1])
//	    return mse(matmul(x, w), y)
//
//	def train(x, y):
//	    loss = constant(0.0)
//	    for i in range(100):
//	        loss = optimize(lambda: loss_fn(x, y))
//	    return loss
//	`)
//	fn, err := prog.Func("train")
//	out, err := fn.Call(ctx, janus.Feeds{"x": x, "y": y})
//
// A Function is a Callable, and the same handle shape is implemented by all
// three execution backends: the local Runtime above, a Server pool (where
// concurrent same-signature calls batch into one graph execution — see
// Server.Compile and Session.Func), and a distributed training Cluster
// (where the batch is split across data-parallel replicas around a sharded
// parameter server — see NewCluster; with TrainOptions.Async each Call is a
// free-running, staleness-bounded epoch with server-side SGD/momentum/Adam
// state). Context cancellation stops a running call between training steps
// — and, on graph backends, between scheduled graph nodes mid-execution —
// with ErrCanceled, leaving parameters in an all-or-nothing state.
//
// Runtime.Run (whole-script execution) remains as a thin shim over the same
// machinery.
package janus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// Engine selects the execution strategy.
type Engine int

// Engines.
const (
	// EngineJanus is the paper's speculative graph runtime (default).
	EngineJanus Engine = iota
	// EngineImperative interprets the program directly (TF Eager baseline).
	EngineImperative
	// EngineTrace converts one execution trace without guards (defun
	// baseline; unsafe by design).
	EngineTrace
)

// Options configures a Runtime. The zero value gives the full JANUS engine
// with the paper's defaults (3 profiling iterations, unrolling,
// specialization).
type Options struct {
	Engine Engine
	// LearningRate for optimize()'s SGD step (default 0.1).
	LearningRate float64
	// ProfileIterations before speculative conversion (default 3, per the
	// paper's footnote 3).
	ProfileIterations int
	// DisableUnrolling turns off control-flow unrolling (+UNRL ablation).
	DisableUnrolling bool
	// DisableSpecialization turns off shape/value specialization and the
	// graph optimizer passes (+SPCN ablation).
	DisableSpecialization bool
	// Deprecated: ignored; graphs run serially in topological order and
	// only kernels use more than one goroutine.
	Workers int
	// DisableAssertions skips runtime assumption validation (assertion-cost
	// experiment only — never use for correctness-sensitive runs).
	DisableAssertions bool
	// Seed makes randn() and initializers deterministic.
	Seed uint64
}

// Runtime runs minipy programs and owns the shared parameter store.
type Runtime struct {
	engine *core.Engine
}

// coreConfig maps the public Options onto the engine configuration.
func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		LR:             o.LearningRate,
		ProfileIters:   o.ProfileIterations,
		Unroll:         !o.DisableUnrolling,
		Specialize:     !o.DisableSpecialization,
		DisableAsserts: o.DisableAssertions,
		Seed:           o.Seed,
	}
	switch o.Engine {
	case EngineImperative:
		cfg.Mode = core.Imperative
	case EngineTrace:
		cfg.Mode = core.Trace
	default:
		cfg.Mode = core.Janus
	}
	return cfg
}

// New constructs a Runtime.
func New(opts Options) *Runtime {
	return &Runtime{engine: core.NewEngine(opts.coreConfig())}
}

// Run parses and executes a complete program (definitions + training loop)
// in the runtime's module scope. It may be called repeatedly; state
// persists across calls.
func (r *Runtime) Run(src string) error { return r.engine.Run(src) }

// Output returns everything the program print()ed so far.
func (r *Runtime) Output() string { return r.engine.Output() }

// Stats reports engine activity: conversions, cache hits, assumption
// failures and fallbacks.
type Stats struct {
	ImperativeSteps int
	GraphSteps      int
	Conversions     int
	ConversionFails int
	CacheHits       int
	CacheMisses     int
	AssertFailures  int
	Fallbacks       int
}

// Stats returns a snapshot of runtime counters. The snapshot is taken with
// the engine's race-safe counters, so it may be called while steps run on
// other goroutines (the serving pool does).
func (r *Runtime) Stats() Stats {
	s := r.engine.Stats()
	return Stats{
		ImperativeSteps: s.ImperativeSteps,
		GraphSteps:      s.GraphSteps,
		Conversions:     s.Conversions,
		ConversionFails: s.ConversionFails,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		AssertFailures:  s.AssertFailures,
		Fallbacks:       s.Fallbacks,
	}
}

// Parameters exposes the shared parameter store (read the trained weights).
func (r *Runtime) Parameters() *vars.Store { return r.engine.Store }

// Parameter returns a named trained parameter.
func (r *Runtime) Parameter(name string) (*tensor.Tensor, error) {
	t, ok := r.engine.Store.Get(name)
	if !ok {
		return nil, fmt.Errorf("janus: unknown parameter %q", name)
	}
	return t, nil
}

// DefineTensor injects a tensor as a module-level global, so Go-side data
// pipelines can feed programs.
func (r *Runtime) DefineTensor(name string, t *tensor.Tensor) {
	r.engine.Define(name, minipy.NewTensor(t))
}

// DefineScalar injects a float global.
func (r *Runtime) DefineScalar(name string, v float64) {
	r.engine.Define(name, minipy.FloatVal(v))
}

// CoreEngine exposes the underlying engine for the benchmark harness.
func (r *Runtime) CoreEngine() *core.Engine { return r.engine }
