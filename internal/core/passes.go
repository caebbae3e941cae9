package core

import (
	"repro/internal/convert"
	"repro/internal/graph/passes"
)

// runPasses applies the graph post-processor pipeline to a freshly converted
// result — between conversion/FinalizeTraining and the executor's first plan
// build. It honours the engine's A/B flags, skips the structural passes for
// dynamic graphs (the trace tape differentiates through the original op
// vocabulary), and returns the ordered per-pass report that feeds the
// janus_pass_rewrites_total counters, Stats.OptimizeReport and /v1/explain.
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

// PassSummary aggregates the post-processor outcome across every compiled
// graph in the engine's cache: how many graphs exist, their total node
// count after the pipeline ran, and the per-pass rewrite totals: an A/B
// hook for comparing graph sizes between pipeline configurations without
// reaching into cache internals.
type PassSummary struct {
	Graphs   int            `json:"graphs"`
	Nodes    int            `json:"nodes"`
	Rewrites map[string]int `json:"rewrites,omitempty"`
}

// PassSummary snapshots the cache. Callers must hold the engine
// exclusively (as for Call).
func (e *Engine) PassSummary() PassSummary {
	sum := PassSummary{Rewrites: make(map[string]int)}
	for _, fs := range e.cache.states() {
		fs.mu.Lock()
		for _, c := range fs.entries {
			sum.Graphs++
			sum.Nodes += len(c.res.Graph.Nodes)
			if c.passes != nil {
				for _, pr := range c.passes.Passes {
					sum.Rewrites[pr.Pass] += pr.Rewrites
				}
			}
		}
		fs.mu.Unlock()
	}
	return sum
}
