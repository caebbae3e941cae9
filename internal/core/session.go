package core

import (
	"context"
	"fmt"

	"repro/internal/minipy"
)

// This file hosts the session-affine execution entry points used by the
// serving layer. A serving session owns a minipy.Env that accumulates the
// session's module-level state (counters, tensors, helper functions defined
// by /v1/run scripts). For each request the env is attached — via Reparent —
// to whichever worker engine the pool handed out, so name lookups fall
// through to that worker's loaded module globals while writes stay with the
// session. Without this, a session's globals lived on whichever worker
// happened to serve the request, and a follow-up request routed to a
// different worker silently saw none of them.
//
// Callers must serialize requests per session env (the serving layer holds a
// per-session mutex): the env can be attached to only one worker at a time.

// ExecIn parses and runs src with env layered over this engine's module
// globals. Top-level assignments and definitions land in env and travel with
// the session, not with this worker.
func (e *Engine) ExecIn(src string, env *minipy.Env) error {
	return e.ExecInCtx(context.Background(), src, env)
}

// ExecInCtx is ExecIn under a context: cancellation stops the script between
// statements and training steps with ErrCanceled.
func (e *Engine) ExecInCtx(ctx context.Context, src string, env *minipy.Env) error {
	prog, err := minipy.Parse(src)
	if err != nil {
		return err
	}
	restore := e.withCtx(ctx)
	defer restore()
	if err := e.interrupted(); err != nil {
		return err
	}
	env.Reparent(e.Local.Globals)
	defer env.Reparent(nil)
	return e.Local.RunIn(prog, env)
}

// CallIn invokes the function named name with args, resolving the name
// through env first — session-defined functions shadow module globals.
//
// Functions owned by the session env run on the interpreter directly:
// session scripts are re-parsed per request, so their definitions get fresh
// AST identities, and routing them through the speculative path would grow
// the shared graph cache by one per-function state per definition, forever
// (cache capacity bounds compiled graphs, not per-function bookkeeping).
// Module-global functions take the engine's configured strategy as usual,
// and optimize() inside a session-defined function still reaches the
// speculative training path through its own builtin.
func (e *Engine) CallIn(env *minipy.Env, name string, args []minipy.Value) (minipy.Value, error) {
	return e.CallInCtx(context.Background(), env, name, args)
}

// CallInCtx is CallIn under a context.
func (e *Engine) CallInCtx(ctx context.Context, env *minipy.Env, name string, args []minipy.Value) (minipy.Value, error) {
	env.Reparent(e.Local.Globals)
	defer env.Reparent(nil)
	v, sessionOwned := env.LookupOwn(name)
	if !sessionOwned {
		var ok bool
		if v, ok = env.Lookup(name); !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
		}
	}
	fn, ok := v.(*minipy.FuncVal)
	if !ok {
		return nil, fmt.Errorf("core: %q is %s, not a function", name, v.TypeName())
	}
	if sessionOwned {
		restore := e.withCtx(ctx)
		defer restore()
		if err := e.interrupted(); err != nil {
			return nil, err
		}
		return e.imperative(fn, args, nil, false)
	}
	return e.CallFuncCtx(ctx, fn, args)
}
