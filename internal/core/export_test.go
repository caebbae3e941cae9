package core

import "repro/internal/tensor"

// EnginePool exposes the engine's tensor pool to the external tests, which
// poison its idle buffers between steps.
func EnginePool(e *Engine) *tensor.Pool { return e.pool }
