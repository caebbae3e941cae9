package core

import (
	"repro/internal/convert"
	"repro/internal/graph/passes"
)

// runPasses applies the graph post-processor pipeline to a freshly converted
// result — between conversion/FinalizeTraining and the executor's first plan
// build. It honours the engine's A/B flags, skips the structural passes for
// graphs that train on the trace tape (Result.Dynamic; the tape
// differentiates through the original op vocabulary), and returns the
// ordered per-pass report that feeds the janus_pass_rewrites_total counters,
// Stats.OptimizeReport and /v1/explain. Forward-only graphs, control flow
// included, get every pass.
//
// The pipeline is tied to Specialize (+SPCN) like the optimizer it replaces:
// without specialization the converter leaves dynamic values in place and
// the passes have nothing sound to do.
func (e *Engine) runPasses(res *convert.Result, enabled bool) (*passes.Report, error) {
	if !enabled {
		return nil, nil
	}
	pl := passes.New(passes.Options{
		Disable:      passes.Disabled(e.cfg.DisablePasses),
		NoStructural: res.Dynamic,
		Verify:       e.cfg.VerifyPasses,
	})
	return pl.Run(res.Graph)
}
