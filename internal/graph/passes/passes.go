// Package passes is the graph post-processor: a pass-manager over the
// transformable IR in internal/graph. JANUS's §3.1 post-processor — "the
// generated graph is further optimized" — is realized here as a pipeline of
// named, self-describing passes, each of which rewrites a *graph.Graph in
// place and reports how many rewrites it applied.
//
// The pipeline runs between conversion (internal/convert) and the executor's
// BuildMemoryPlan: scalar cleanups (arith, fold, cse, dce) iterate to a
// bounded fixed point, then the structural passes (im2col extraction,
// elementwise-chain fusion) run once, then the scalar loop runs again to
// sweep up the nodes the structural rewrites orphaned. Every pass is
// individually A/B-flaggable (core.Config.DisablePasses), reports are
// returned in deterministic pipeline order, and —
// in debug/test builds — a graph-invariant verifier (acyclicity, port
// arity, consumer consistency) runs between passes.
package passes

import (
	"fmt"

	"repro/internal/graph"
)

// MaxRounds bounds each fixed-point loop over the scalar passes. Hitting
// the bound while rewrites are still landing is reported (Report.CapHit)
// instead of silently truncating, and surfaces as the
// janus_pass_cap_hits_total counter.
const MaxRounds = 4

// Pass is one named graph rewrite.
type Pass struct {
	// Name is the stable identifier used in reports, metrics labels and
	// A/B disable flags.
	Name string
	// Doc is a one-line human description.
	Doc string
	// Structural passes change the op vocabulary of the graph (fusion,
	// im2col extraction) and run exactly once, after the scalar passes
	// reach their fixed point; non-structural passes are cheap cleanups
	// that participate in the bounded fixed-point loop.
	Structural bool
	// Run applies the rewrite to g and returns the number of rewrites.
	Run func(g *graph.Graph) int
}

// All returns the full pipeline in canonical order. The first four are the
// scalar cleanups ported from the original graph.Optimize; im2col and fuse
// are the structural passes that justify the framework.
func All() []Pass {
	return []Pass{
		{Name: "arith", Doc: "algebraic identities (x+0, x*1, x/1, x**1)", Run: simplifyArithmetic},
		{Name: "fold", Doc: "constant folding of pure nodes with Const inputs", Run: constantFold},
		{Name: "cse", Doc: "common-subexpression merging of identical pure nodes", Run: commonSubexpr},
		{Name: "dce", Doc: "dead-code elimination from outputs/updates/effects", Run: deadCodeElim},
		{Name: "im2col", Doc: "hoist the conv im2col unroll and share it across forward and filter-grad", Structural: true, Run: extractIm2Col},
		{Name: "fuse", Doc: "collapse single-consumer elementwise chains into Fused nodes", Structural: true, Run: fuseElementwise},
	}
}

// Names lists every pass name in canonical pipeline order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i := range all {
		out[i] = all[i].Name
	}
	return out
}

// Options selects and instruments a pipeline.
type Options struct {
	// Disable skips passes by name; the key "all" disables every pass.
	Disable map[string]bool
	// NoStructural additionally skips the structural passes — used for
	// dynamic graphs that are differentiated through the executor's trace
	// tape, which must see the original op vocabulary.
	NoStructural bool
	// Verify runs the graph-invariant verifier after every pass that
	// changed something. Tests and debug builds turn this on; it is
	// O(nodes + edges) per pass.
	Verify bool
}

// Disabled builds a Disable set from a flag-style list of pass names.
func Disabled(names []string) map[string]bool {
	if len(names) == 0 {
		return nil
	}
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

// Pipeline is a configured, ordered sequence of passes.
type Pipeline struct {
	passes []Pass
	verify bool
}

// New builds a pipeline from the canonical pass list filtered by opts.
func New(opts Options) *Pipeline {
	p := &Pipeline{verify: opts.Verify}
	if opts.Disable["all"] {
		return p
	}
	for _, ps := range All() {
		if opts.Disable[ps.Name] || (opts.NoStructural && ps.Structural) {
			continue
		}
		p.passes = append(p.passes, ps)
	}
	return p
}

// PassReport is one pass's outcome: how many rewrites it applied across
// every round it ran.
type PassReport struct {
	Pass     string `json:"pass"`
	Rewrites int    `json:"rewrites"`
}

// Report is the ordered outcome of one pipeline run. Unlike the map the old
// graph.Optimize returned, Passes is in deterministic pipeline order.
type Report struct {
	Passes []PassReport `json:"passes,omitempty"`
	// Rounds counts fixed-point iterations over the scalar passes; CapHit
	// reports that a loop was still finding rewrites when it hit MaxRounds.
	Rounds int  `json:"rounds"`
	CapHit bool `json:"cap_hit,omitempty"`
}

// Map renders the report as the pass→rewrites map older consumers expect.
func (r *Report) Map() map[string]int {
	if r == nil {
		return nil
	}
	out := make(map[string]int, len(r.Passes))
	for _, p := range r.Passes {
		out[p.Pass] = p.Rewrites
	}
	return out
}

// Total sums rewrites across all passes.
func (r *Report) Total() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, p := range r.Passes {
		n += p.Rewrites
	}
	return n
}

// Run executes the pipeline over g: scalar passes to a bounded fixed point,
// structural passes once, then the scalar loop again to clean up after the
// structural rewrites. The returned error is non-nil only when the verifier
// is on and a pass broke a graph invariant (always a pass bug).
func (p *Pipeline) Run(g *graph.Graph) (*Report, error) {
	rep := &Report{}
	counts := make(map[string]int, len(p.passes))
	runOne := func(ps *Pass) (int, error) {
		n := ps.Run(g)
		counts[ps.Name] += n
		if n > 0 {
			// Structural mutation invalidates any cached executor schedule.
			g.Plan = nil
			if p.verify {
				if err := Verify(g); err != nil {
					return n, fmt.Errorf("passes: invariant broken after %q: %w", ps.Name, err)
				}
			}
		}
		return n, nil
	}
	scalarLoop := func() error {
		for round := 0; round < MaxRounds; round++ {
			changed := 0
			for i := range p.passes {
				if p.passes[i].Structural {
					continue
				}
				n, err := runOne(&p.passes[i])
				if err != nil {
					return err
				}
				changed += n
			}
			rep.Rounds++
			if changed == 0 {
				return nil
			}
		}
		rep.CapHit = true
		return nil
	}
	finish := func(err error) (*Report, error) {
		for i := range p.passes {
			rep.Passes = append(rep.Passes, PassReport{Pass: p.passes[i].Name, Rewrites: counts[p.passes[i].Name]})
		}
		return rep, err
	}
	if len(p.passes) == 0 {
		return rep, nil
	}
	if err := scalarLoop(); err != nil {
		return finish(err)
	}
	structural := 0
	for i := range p.passes {
		if !p.passes[i].Structural {
			continue
		}
		n, err := runOne(&p.passes[i])
		if err != nil {
			return finish(err)
		}
		structural += n
	}
	if structural > 0 {
		if err := scalarLoop(); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// Optimize is the convenience entry point: run the full default pipeline
// (the old graph.Optimize behaviour, deterministic report).
func Optimize(g *graph.Graph) *Report {
	rep, _ := New(Options{}).Run(g)
	return rep
}
