package core

import (
	"context"
	"fmt"

	"repro/internal/minipy"
)

// This file holds the plain-call entry points. The serving subsystem calls
// module-level functions by name on behalf of remote clients; under the
// Janus mode those calls go through Engine.speculativeStep — the same
// profile → speculate → validate → fall back pipeline as optimize() — with
// forward-only graphs cached apart from the training entries.

// LookupFunc resolves a module-level function by name; a missing name is
// reported with the ErrUnknownFunction sentinel (HTTP 404 in the serving
// layer).
func (e *Engine) LookupFunc(name string) (*minipy.FuncVal, error) {
	v, ok := e.Local.Globals.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
	}
	fn, ok := v.(*minipy.FuncVal)
	if !ok {
		return nil, fmt.Errorf("core: %q is %s, not a function", name, v.TypeName())
	}
	return fn, nil
}

// Functions returns the parameter lists of every module-level function,
// keyed by name. The serving pool snapshots this at load time so handle
// resolution never competes with requests for a worker. Callers must hold
// the engine exclusively (no program running).
func (e *Engine) Functions() map[string][]string {
	out := make(map[string][]string)
	e.Local.Globals.Each(func(name string, v minipy.Value) {
		if fn, ok := v.(*minipy.FuncVal); ok {
			out[name] = fn.ParamList()
		}
	})
	return out
}

// Call invokes the module-level function name with args under the engine's
// execution strategy. Functions that themselves call optimize() stay on the
// interpreter (stateful builtins are not convertible), and the inner
// optimize() still reaches the speculative training path — so the same
// entry point serves both inference and train-step requests.
func (e *Engine) Call(name string, args []minipy.Value) (minipy.Value, error) {
	return e.CallCtx(context.Background(), name, args)
}

// CallCtx is Call under a context: cancellation stops execution between
// steps and statements with ErrCanceled.
func (e *Engine) CallCtx(ctx context.Context, name string, args []minipy.Value) (minipy.Value, error) {
	fn, err := e.LookupFunc(name)
	if err != nil {
		return nil, err
	}
	return e.CallFuncCtx(ctx, fn, args)
}

// CallNamed invokes the module-level function name with arguments addressed
// by parameter name (the function-handle Feeds path): feeds are bound onto
// the positional parameter list up front, with unknown or missing names
// rejected before any execution happens.
func (e *Engine) CallNamed(ctx context.Context, name string, feeds map[string]minipy.Value) (minipy.Value, error) {
	fn, err := e.LookupFunc(name)
	if err != nil {
		return nil, err
	}
	args, err := fn.BindNamed(feeds)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e.CallFuncCtx(ctx, fn, args)
}

// CallFunc is Call for an already-resolved function value.
func (e *Engine) CallFunc(fn *minipy.FuncVal, args []minipy.Value) (minipy.Value, error) {
	return e.CallFuncCtx(context.Background(), fn, args)
}

// CallFuncCtx is CallFunc under a context.
func (e *Engine) CallFuncCtx(ctx context.Context, fn *minipy.FuncVal, args []minipy.Value) (minipy.Value, error) {
	restore := e.withCtx(ctx)
	defer restore()
	if err := e.interrupted(); err != nil {
		return nil, err
	}
	switch e.cfg.Mode {
	case Janus, Trace:
		return e.speculativeStep(fn, args, false)
	default:
		return e.imperative(fn, args, nil, false)
	}
}
