// Explainability for the speculative path (Figure 2's fallback arrow):
// every assumption failure is aggregated into a structured DeoptEvent —
// which assumption failed (kind, AST location), what the speculative
// profile expected, what the runtime observed, how often it happened and
// what the abandoned graph executions cost — so an operator can answer
// "why is this function slower than it should be" from Engine.Explain
// (surfaced as GET /v1/explain) instead of a bare fallback counter.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
)

// DeoptEvent aggregates every fallback caused by one speculative
// assumption (one Assert node lineage, identified by kind + AST node +
// description — node IDs change across regeneration, the AST anchor
// does not).
type DeoptEvent struct {
	// Kind is the assumption class: "true"/"false" (branch direction),
	// "eq-int"/"eq" (value specialization), "shape" (shape
	// specialization).
	Kind string `json:"kind"`
	// AST is the program-AST node whose assumption failed (-1 when the
	// failing assert could not be mapped back).
	AST int `json:"ast"`
	// Desc is the converter's human-readable description of the
	// assumption (e.g. `branch@17 assumed true`).
	Desc string `json:"desc"`
	// Expected is the profile-lattice value the converter specialized
	// on; LastActual is the most recently observed runtime value that
	// contradicted it.
	Expected   string `json:"expected,omitempty"`
	LastActual string `json:"last_actual,omitempty"`
	// Count is how many graph executions this assumption aborted;
	// WastedNS is their cumulative abandoned execution time (each such
	// run is thrown away and re-run imperatively).
	Count    int64 `json:"count"`
	WastedNS int64 `json:"wasted_ns"`
}

// Label renders the event's identity for trace annotations:
// "<kind>@ast<N>: <desc>".
func (d *DeoptEvent) Label() string {
	return fmt.Sprintf("%s@ast%d: %s", d.Kind, d.AST, d.Desc)
}

// deoptKey identifies the event across regenerations.
func deoptKey(kind string, ast int, desc string) string {
	return fmt.Sprintf("%s@%d:%s", kind, ast, desc)
}

// recordDeopt folds one assumption failure into the function's deopt
// ledger and the registry's deopt families (fs.mu held; fallback slow
// path, so registry lookups are fine here).
func (e *Engine) recordDeopt(fs *funcState, c *compiled, ae *exec.AssertError, wasted time.Duration) *DeoptEvent {
	var node *graph.Node
	for _, a := range c.res.Asserts {
		if a.ID == ae.NodeID {
			node = a
			break
		}
	}
	kind, ast, desc, expected := ae.Kind, -1, ae.Desc, ""
	if node != nil {
		ast = node.IntAttr("ast", -1)
		desc = node.StrAttr("desc")
		expected = expectedOf(node)
	}
	if fs.deopts == nil {
		fs.deopts = make(map[string]*DeoptEvent)
	}
	key := deoptKey(kind, ast, desc)
	ev := fs.deopts[key]
	if ev == nil {
		ev = &DeoptEvent{Kind: kind, AST: ast, Desc: desc, Expected: expected}
		fs.deopts[key] = ev
	}
	ev.Count++
	ev.WastedNS += int64(wasted)
	ev.LastActual = fmt.Sprintf("%v", ae.Actual)
	e.stats.reg.Counter("janus_deopt_total", helpDeopt, "kind", kind).Inc()
	e.stats.deoptWasted.ObserveDuration(wasted)
	return ev
}

// expectedOf renders the specialized value an Assert node validates —
// the profile-lattice level the converter committed to (§4.2.2: exact
// value ⊂ exact shape ⊂ partial shape ⊂ type).
func expectedOf(nd *graph.Node) string {
	switch nd.StrAttr("kind") {
	case "true", "false":
		return nd.StrAttr("kind")
	case "eq-int":
		return fmt.Sprintf("%d", nd.IntAttr("expected", 0))
	case "eq":
		return fmt.Sprintf("%v", nd.Attrs["expected"])
	case "shape":
		return fmt.Sprintf("shape %v", nd.Attrs["shape"])
	}
	return ""
}

// ExplainState describes one cache slot (training or inference) of an
// optimized function.
type ExplainState struct {
	// Path is "train" (optimize() graphs) or "infer" (forward-only).
	Path string `json:"path"`
	// ImperativeOnly marks functions with no graph representation;
	// ImperativeReason is the conversion error that pinned them.
	ImperativeOnly   bool   `json:"imperative_only"`
	ImperativeReason string `json:"imperative_reason,omitempty"`
	// ProfileIterations counts imperative executions the profiler has
	// observed; ReprofileUntil, when ahead of it, means a failed
	// assumption put the function back into the profiling window.
	ProfileIterations int `json:"profile_iterations"`
	ReprofileUntil    int `json:"reprofile_until,omitempty"`
	// CachedGraphs counts live compiled entries for this slot.
	CachedGraphs int `json:"cached_graphs"`
	// DistrustedAST lists AST nodes whose assumptions failed: the
	// converter will not re-speculate on them.
	DistrustedAST []int `json:"distrusted_ast,omitempty"`
	// Deopts lists assumption failures, most frequent first.
	Deopts []DeoptEvent `json:"deopts,omitempty"`
	// Graphs describes each cached compiled graph: its specialization
	// signature, node count, and which post-processor passes fired on it
	// (in pipeline order) — so an operator can see per graph whether e.g.
	// fusion or im2col sharing actually landed.
	Graphs []ExplainGraph `json:"graphs,omitempty"`
}

// ExplainGraph is one cached compiled graph's post-processor outcome.
type ExplainGraph struct {
	Signature []string `json:"signature"`
	Static    bool     `json:"static"`
	// Nodes is the graph's node count after the pipeline ran.
	Nodes int `json:"nodes"`
	// Passes is the ordered pass report (nil when the pipeline was off);
	// CapHit marks a fixed-point loop that hit its round cap.
	Passes []passes.PassReport `json:"passes,omitempty"`
	CapHit bool                `json:"cap_hit,omitempty"`
}

// ExplainReport is the per-function explainability view.
type ExplainReport struct {
	Function string         `json:"function"`
	States   []ExplainState `json:"states,omitempty"`
}

// Explain reports why the named function runs the way it does: per
// cache slot, whether it is pinned imperative (and why), its profiling
// window, its distrusted assumptions, and every deopt event with the
// exact failed assumption and its cost. Callers must hold the engine
// exclusively (as for Call).
func (e *Engine) Explain(name string) (*ExplainReport, error) {
	fn, err := e.LookupFunc(name)
	if err != nil {
		return nil, err
	}
	id := -1
	if fn.Def != nil {
		id = fn.Def.ID()
	}
	rep := &ExplainReport{Function: name}
	for _, infer := range []bool{false, true} {
		fs := e.cache.peek(cacheKey{fn: id, infer: infer})
		if fs == nil {
			continue
		}
		rep.States = append(rep.States, explainState(fs))
	}
	return rep, nil
}

// explainState snapshots one funcState under its lock.
func explainState(fs *funcState) ExplainState {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := ExplainState{
		Path:              "train",
		ImperativeOnly:    fs.imperativeOnly,
		ImperativeReason:  fs.impReason,
		ProfileIterations: fs.prof.Iterations(),
		ReprofileUntil:    fs.reprofileUntil,
		CachedGraphs:      len(fs.entries),
	}
	if fs.key.infer {
		st.Path = "infer"
	}
	for ast := range fs.distrust {
		st.DistrustedAST = append(st.DistrustedAST, ast)
	}
	sort.Ints(st.DistrustedAST)
	for _, c := range fs.entries {
		eg := ExplainGraph{
			Signature: append([]string(nil), c.pattern...),
			Static:    !c.res.Dynamic,
			Nodes:     len(c.res.Graph.Nodes),
		}
		if c.passes != nil {
			eg.Passes = append([]passes.PassReport(nil), c.passes.Passes...)
			eg.CapHit = c.passes.CapHit
		}
		st.Graphs = append(st.Graphs, eg)
	}
	for _, ev := range fs.deopts {
		st.Deopts = append(st.Deopts, *ev)
	}
	sort.Slice(st.Deopts, func(i, j int) bool {
		if st.Deopts[i].Count != st.Deopts[j].Count {
			return st.Deopts[i].Count > st.Deopts[j].Count
		}
		return st.Deopts[i].Desc < st.Deopts[j].Desc
	})
	return st
}

// GraphProfileEntry pairs one cached compiled graph with its always-on
// executor profile.
type GraphProfileEntry struct {
	// Path is "train" or "infer"; Signature is the cache entry's
	// specialization pattern; Static marks graphs with baked-in
	// gradient/update ops.
	Path      string               `json:"path"`
	Signature []string             `json:"signature"`
	Static    bool                 `json:"static"`
	Profile   exec.ProfileSnapshot `json:"profile"`
}

// FuncProfile is the per-function op-profile view behind GET /v1/profile.
type FuncProfile struct {
	Function string              `json:"function"`
	Graphs   []GraphProfileEntry `json:"graphs,omitempty"`
}

// Profile returns the executor's per-node profiles for every compiled
// graph cached for the named function. Callers must hold the engine
// exclusively (as for Call).
func (e *Engine) Profile(name string) (*FuncProfile, error) {
	fn, err := e.LookupFunc(name)
	if err != nil {
		return nil, err
	}
	id := -1
	if fn.Def != nil {
		id = fn.Def.ID()
	}
	fp := &FuncProfile{Function: name}
	for _, infer := range []bool{false, true} {
		fs := e.cache.peek(cacheKey{fn: id, infer: infer})
		if fs == nil {
			continue
		}
		path := "train"
		if infer {
			path = "infer"
		}
		fs.mu.Lock()
		entries := append([]*compiled(nil), fs.entries...)
		fs.mu.Unlock()
		for _, c := range entries {
			fp.Graphs = append(fp.Graphs, GraphProfileEntry{
				Path:      path,
				Signature: append([]string(nil), c.pattern...),
				Static:    !c.res.Dynamic,
				Profile:   exec.ProfileOf(c.res.Graph).Snapshot(),
			})
		}
	}
	return fp, nil
}
