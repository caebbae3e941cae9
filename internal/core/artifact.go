package core

// This file implements the persistent compiled-artifact cache: the warm
// state a long-running janusd accumulates — converted graphs, memory plans,
// pass reports, the per-function signature-hash index, profiling progress —
// serialized to a versioned file and restored at boot, so a restarted
// replica serves its first request from a warm cache instead of re-paying
// profile → convert → compile for its whole workload.
//
// Safety model: an artifact is only trusted when its format version, graph
// wire version and program hash all match the loading process; anything
// else (including a torn or corrupted file) is rejected as a unit and the
// replica simply boots cold, with the rejection reason counted in
// janus_artifact_rejected_total. Entries that cannot be serialized (graphs
// holding opaque heap references) are skipped at save time and counted in
// janus_artifact_skipped_total; everything that does round-trip replays
// bit-identically because the graph encoding is bit-exact (see
// internal/graph/serialize.go).

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/convert"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/graph/passes"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ArtifactVersion identifies the artifact file schema and the meaning of the
// graphs it holds. Bump on any change to the artifact structs below, and on
// any change to what a persisted graph computes: an op's inputs, arity or
// attrs, or a gradient rule that changes the ops or results of a training
// graph (version 2: PowGrad, SliceGrad and ConcatGradSlice take shapes and
// exponents as inputs, and a Variable's gradient sums every read; version 3:
// Abs has a gradient rule, so a program using abs trains a static graph
// where it trained on the tape before; version 4: int()/float() of a runtime
// value and a Python-value return no longer convert, and a list on a heap
// object is read through PyGetSubscr, so graphs persisted for such programs
// computed what the interpreter does not). The CI
// snapshot fixture must be regenerated in the same change (the cold-start
// workflow fails with a clear message otherwise).
const ArtifactVersion = 4

// Artifact metric help strings.
const (
	helpArtifactSaved    = "Compiled-graph cache entries written to a snapshot artifact."
	helpArtifactLoaded   = "Compiled-graph cache entries restored from a snapshot artifact."
	helpArtifactSkipped  = "Cache entries skipped at snapshot save (graph not serializable)."
	helpArtifactRejected = "Snapshot artifacts rejected at load, by reason."
	helpArtifactSaves    = "Snapshot artifact files written."
	helpArtifactLoads    = "Snapshot artifact files loaded successfully."
)

// artifactRejectReasons are the load-rejection classes, registered eagerly
// so the janus_artifact_rejected_total family is present in an exposition
// even when every load succeeded.
var artifactRejectReasons = []string{"open", "decode", "version", "wire", "program", "entry"}

// RegisterArtifactMetrics eagerly resolves every janus_artifact_* series in
// reg so family-presence checks (TestRequiredMetricFamilies) see them on a
// fresh boot, before any snapshot activity.
func RegisterArtifactMetrics(reg *obs.Registry) {
	reg.Counter("janus_artifact_saves_total", helpArtifactSaves)
	reg.Counter("janus_artifact_loads_total", helpArtifactLoads)
	reg.Counter("janus_artifact_saved_entries_total", helpArtifactSaved)
	reg.Counter("janus_artifact_loaded_entries_total", helpArtifactLoaded)
	reg.Counter("janus_artifact_skipped_total", helpArtifactSkipped)
	for _, r := range artifactRejectReasons {
		reg.Counter("janus_artifact_rejected_total", helpArtifactRejected, "reason", r)
	}
}

// Artifact is the on-disk snapshot of a GraphCache.
type Artifact struct {
	Version int `json:"version"`
	// GraphWire pins the graph encoding version the entries were written
	// with (graph.SerialVersion).
	GraphWire int `json:"graph_wire"`
	// ProgramHash fingerprints the loaded program source; cacheKey function
	// IDs are AST node IDs, only meaningful against the identical source.
	ProgramHash string         `json:"program_hash"`
	Funcs       []FuncArtifact `json:"funcs"`
	// Vars snapshots the parameter store. Compiled graphs read variables by
	// name at execution time, and those variables are normally created as a
	// side effect of imperative profiling runs — exactly the runs a warm
	// boot skips — so the parameters must travel with the graphs for the
	// first warm request to execute (and to reproduce the saving process's
	// outputs bit for bit).
	Vars []VarArtifact `json:"vars,omitempty"`
}

// VarArtifact is one persisted model parameter (bit-exact encoding).
type VarArtifact struct {
	Name   string          `json:"name"`
	Tensor json.RawMessage `json:"tensor"`
}

// FuncArtifact snapshots one function's cache state. The function is
// identified by (Prog, Offset): the load-order index of the program that
// defined it and the AST-ID offset inside that program's span. Raw AST IDs
// are process-global (they depend on everything parsed before), but the
// span-relative offset is stable whenever the same program sources load in
// the same order — which the program hash guarantees.
type FuncArtifact struct {
	Prog   int  `json:"prog"`
	Offset int  `json:"offset"`
	Infer  bool `json:"infer"`
	// ProfIters is the function's completed profiling iterations; restoring
	// it keeps the engine from re-gating cached graphs behind a fresh
	// observation window.
	ProfIters int `json:"prof_iters"`
	// ImperativeOnly functions have no graph representation; restoring the
	// verdict avoids one doomed conversion attempt per restart.
	ImperativeOnly bool            `json:"imperative_only,omitempty"`
	ImpReason      string          `json:"imp_reason,omitempty"`
	Entries        []EntryArtifact `json:"entries,omitempty"`
}

// EntryArtifact snapshots one compiled graph.
type EntryArtifact struct {
	Pattern   []string `json:"pattern"`
	LeafCount int      `json:"leaf_count"`
	// Static is !Result.Dynamic; older builds' extra "dynamic" key is ignored.
	Static bool            `json:"static"`
	Graph  json.RawMessage `json:"graph"`
	// LossNode/LossOut locate the Result's loss port by node index (-1 =
	// zero port).
	LossNode int `json:"loss_node"`
	LossOut  int `json:"loss_out,omitempty"`
	// Asserts lists assumption-check nodes by node index.
	Asserts  []int    `json:"asserts,omitempty"`
	VarNames []string `json:"var_names,omitempty"`
	NumFeeds int      `json:"num_feeds"`
	// MemPlan is the executor's liveness/buffer-reuse analysis; restored
	// via exec.PrimePlan so the first request skips the analysis.
	MemPlan *graph.MemoryPlan `json:"mem_plan,omitempty"`
	// Passes is the post-processor report, surfaced through Explain.
	Passes *passes.Report `json:"passes,omitempty"`
	// SigHashes are the signature-hash index keys that resolved to this
	// entry, so restored replicas keep the hash fast path warm.
	SigHashes []uint64 `json:"sig_hashes,omitempty"`
	Hits      int64    `json:"hits,omitempty"`
}

// Snapshot serializes the cache's current compiled state, translating raw
// function IDs into span-relative (prog, offset) pairs via spans. Entries
// whose graphs cannot be serialized — and functions outside every recorded
// span — are skipped (counted in skipped); the rest of the snapshot is
// unaffected. The result is deterministic: functions sort by key, entries
// keep their insertion order.
func (c *GraphCache) Snapshot(programHash string, spans []progSpan) (*Artifact, int) {
	art := &Artifact{Version: ArtifactVersion, GraphWire: graph.SerialVersion, ProgramHash: programHash}
	skipped := 0
	encode := func(fn int) (int, int, bool) {
		for i, s := range spans {
			if fn >= s.First && fn <= s.Last {
				return i, fn - s.First, true
			}
		}
		return 0, 0, false
	}
	for _, fs := range c.states() {
		prog, off, ok := encode(fs.key.fn)
		if !ok {
			skipped++
			continue
		}
		fs.mu.Lock()
		fa := FuncArtifact{
			Prog:           prog,
			Offset:         off,
			Infer:          fs.key.infer,
			ProfIters:      fs.prof.Iterations(),
			ImperativeOnly: fs.imperativeOnly,
			ImpReason:      fs.impReason,
		}
		// Invert the signature-hash index once per function.
		hashes := make(map[*compiled][]uint64)
		for h, en := range fs.sigIndex {
			hashes[en] = append(hashes[en], h)
		}
		for _, e := range fs.entries {
			ea, err := snapshotEntry(e, hashes[e])
			if err != nil {
				skipped++
				continue
			}
			fa.Entries = append(fa.Entries, ea)
		}
		fs.mu.Unlock()
		if len(fa.Entries) == 0 && !fa.ImperativeOnly && fa.ProfIters == 0 {
			continue
		}
		art.Funcs = append(art.Funcs, fa)
	}
	sort.Slice(art.Funcs, func(i, j int) bool {
		a, b := art.Funcs[i], art.Funcs[j]
		if a.Prog != b.Prog {
			return a.Prog < b.Prog
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return !a.Infer && b.Infer
	})
	return art, skipped
}

func snapshotEntry(e *compiled, sigHashes []uint64) (EntryArtifact, error) {
	buf, err := graph.MarshalGraph(e.res.Graph)
	if err != nil {
		return EntryArtifact{}, err
	}
	index := make(map[*graph.Node]int, len(e.res.Graph.Nodes))
	for i, n := range e.res.Graph.Nodes {
		index[n] = i
	}
	ea := EntryArtifact{
		Pattern:   e.pattern,
		LeafCount: e.leafCount,
		Static:    !e.res.Dynamic,
		Graph:     buf,
		LossNode:  -1,
		VarNames:  e.res.VarNames,
		NumFeeds:  e.res.NumFeeds,
		MemPlan:   exec.PlanMemory(e.res.Graph),
		Passes:    e.passes,
		Hits:      e.hits.Load(),
	}
	if e.res.Loss.Node != nil {
		j, ok := index[e.res.Loss.Node]
		if !ok {
			return EntryArtifact{}, fmt.Errorf("core: loss port outside graph")
		}
		ea.LossNode, ea.LossOut = j, e.res.Loss.Out
	}
	for _, a := range e.res.Asserts {
		j, ok := index[a]
		if !ok {
			return EntryArtifact{}, fmt.Errorf("core: assert node outside graph")
		}
		ea.Asserts = append(ea.Asserts, j)
	}
	sort.Slice(sigHashes, func(i, j int) bool { return sigHashes[i] < sigHashes[j] })
	ea.SigHashes = sigHashes
	return ea, nil
}

// ErrArtifactRejected wraps every artifact-load failure; callers fall back
// to a cold boot.
var ErrArtifactRejected = errors.New("core: artifact rejected")

// artifactError tags a rejection with its metric reason label.
type artifactError struct {
	reason string
	msg    string
}

func (e *artifactError) Error() string {
	return fmt.Sprintf("core: artifact rejected (%s): %s", e.reason, e.msg)
}

func (e *artifactError) Is(target error) bool { return target == ErrArtifactRejected }

// rejectf builds a reason-tagged rejection error.
func rejectf(reason, format string, args ...any) error {
	return &artifactError{reason: reason, msg: fmt.Sprintf(format, args...)}
}

// RejectReason extracts the reason tag of an artifact rejection ("" for
// other errors).
func RejectReason(err error) string {
	var ae *artifactError
	if errors.As(err, &ae) {
		return ae.reason
	}
	return ""
}

// Restore loads an artifact into the cache, translating span-relative
// (prog, offset) function keys back into this process's AST IDs via spans.
// The artifact must carry the current format and wire versions and match
// programHash; any mismatch or malformed entry rejects the whole artifact
// (the cache is left exactly as it was — entries are staged and only
// committed once every one decoded). Returns the number of compiled
// entries restored.
func (c *GraphCache) Restore(art *Artifact, programHash string, spans []progSpan) (int, error) {
	if art.Version != ArtifactVersion {
		return 0, rejectf("version", "artifact version %d, want %d", art.Version, ArtifactVersion)
	}
	if art.GraphWire != graph.SerialVersion {
		return 0, rejectf("wire", "graph wire version %d, want %d", art.GraphWire, graph.SerialVersion)
	}
	if art.ProgramHash != programHash {
		return 0, rejectf("program", "artifact built for program %s, loaded program is %s", art.ProgramHash, programHash)
	}
	// Stage: decode everything before touching the cache.
	type staged struct {
		fa      FuncArtifact
		fn      int
		entries []*compiled
		hashes  [][]uint64
		mems    []*graph.MemoryPlan
	}
	all := make([]staged, 0, len(art.Funcs))
	for _, fa := range art.Funcs {
		if fa.Prog < 0 || fa.Prog >= len(spans) {
			return 0, rejectf("entry", "function references program %d of %d loaded", fa.Prog, len(spans))
		}
		sp := spans[fa.Prog]
		if fa.Offset < 0 || sp.First+fa.Offset > sp.Last {
			return 0, rejectf("entry", "function offset %d outside program %d span", fa.Offset, fa.Prog)
		}
		st := staged{fa: fa, fn: sp.First + fa.Offset}
		for _, ea := range fa.Entries {
			e, mem, err := restoreEntry(ea)
			if err != nil {
				return 0, rejectf("entry", "prog %d offset %d: %v", fa.Prog, fa.Offset, err)
			}
			st.entries = append(st.entries, e)
			st.hashes = append(st.hashes, ea.SigHashes)
			st.mems = append(st.mems, mem)
		}
		all = append(all, st)
	}
	// Commit. Functions that already hold live compiled state keep it — a
	// snapshot never clobbers entries converted in this process.
	restored := 0
	for _, st := range all {
		fs := c.state(cacheKey{fn: st.fn, infer: st.fa.Infer})
		fs.mu.Lock()
		fs.prof.ForceIterations(st.fa.ProfIters)
		if st.fa.ImperativeOnly && !fs.imperativeOnly {
			fs.imperativeOnly = true
			fs.impReason = st.fa.ImpReason
		}
		if len(fs.entries) > 0 {
			fs.mu.Unlock()
			continue
		}
		for i, e := range st.entries {
			fs.entries = append(fs.entries, e)
			c.noteInsert(e)
			for _, h := range st.hashes[i] {
				memoizeSig(fs, h, e)
			}
			restored++
		}
		fs.mu.Unlock()
		// Prime execution plans outside the funcState lock: plan building
		// is pure per-graph work and PrimePlan has its own mutex.
		for i, e := range st.entries {
			_ = exec.PrimePlan(e.res.Graph, st.mems[i])
		}
	}
	return restored, nil
}

func restoreEntry(ea EntryArtifact) (*compiled, *graph.MemoryPlan, error) {
	g, err := graph.UnmarshalGraph(ea.Graph)
	if err != nil {
		return nil, nil, err
	}
	res := &convert.Result{
		Graph:     g,
		Dynamic:   !ea.Static,
		VarNames:  ea.VarNames,
		Signature: ea.Pattern,
		NumFeeds:  ea.NumFeeds,
	}
	if ea.LossNode >= 0 {
		if ea.LossNode >= len(g.Nodes) {
			return nil, nil, fmt.Errorf("loss node %d of %d", ea.LossNode, len(g.Nodes))
		}
		res.Loss = graph.Port{Node: g.Nodes[ea.LossNode], Out: ea.LossOut}
	}
	for _, j := range ea.Asserts {
		if j < 0 || j >= len(g.Nodes) {
			return nil, nil, fmt.Errorf("assert node %d of %d", j, len(g.Nodes))
		}
		res.Asserts = append(res.Asserts, g.Nodes[j])
	}
	if ea.LeafCount < 0 || ea.NumFeeds < 0 {
		return nil, nil, fmt.Errorf("negative leaf/feed count")
	}
	e := &compiled{
		pattern:      ea.Pattern,
		leafCount:    ea.LeafCount,
		res:          res,
		passes:       ea.Passes,
		fromSnapshot: true,
	}
	e.hits.Store(ea.Hits)
	return e, ea.MemPlan, nil
}

// --- file I/O ---------------------------------------------------------------

// artifactFile is the conventional snapshot file name inside -snapshot-dir.
const artifactFile = "janus-cache.snap"

// ArtifactPath returns the snapshot file path inside dir.
func ArtifactPath(dir string) string { return filepath.Join(dir, artifactFile) }

// SaveArtifact snapshots the engine's cache into path (gzip-compressed
// JSON), written atomically via a temp file + rename so a crash mid-write
// can never leave a torn artifact where a boot would find it.
func (e *Engine) SaveArtifact(path, programHash string) (int, error) {
	reg := e.obs
	art, skipped := e.cache.Snapshot(programHash, e.spans())
	for _, name := range e.Store.Names() {
		t, ok := e.Store.Get(name)
		if !ok {
			continue
		}
		buf, err := graph.MarshalTensor(t)
		if err != nil {
			skipped++
			continue
		}
		art.Vars = append(art.Vars, VarArtifact{Name: name, Tensor: buf})
	}
	if reg != nil && skipped > 0 {
		reg.Counter("janus_artifact_skipped_total", helpArtifactSkipped).Add(int64(skipped))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".janus-snap-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	zw := gzip.NewWriter(tmp)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(art); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := zw.Close(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	saved := 0
	for _, fa := range art.Funcs {
		saved += len(fa.Entries)
	}
	if reg != nil {
		reg.Counter("janus_artifact_saves_total", helpArtifactSaves).Inc()
		reg.Counter("janus_artifact_saved_entries_total", helpArtifactSaved).Add(int64(saved))
	}
	return saved, nil
}

// LoadArtifact restores a snapshot file into the engine's cache, validating
// format version, graph wire version and program hash. Every failure mode —
// missing file, torn gzip stream, corrupted JSON, version skew, a program
// mismatch, a malformed entry — returns ErrArtifactRejected with a tagged
// reason, counts janus_artifact_rejected_total{reason}, and leaves the
// cache untouched so the caller boots cold. Call after the program source
// has been loaded (Run), since function identity is resolved against the
// programs this engine has seen. Returns the number of entries restored.
func (e *Engine) LoadArtifact(path, programHash string) (int, error) {
	reg := e.obs
	reject := func(err error) (int, error) {
		if reg != nil {
			reg.Counter("janus_artifact_rejected_total", helpArtifactRejected, "reason", RejectReason(err)).Inc()
		}
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return reject(rejectf("open", "%v", err))
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return reject(rejectf("decode", "%v", err))
	}
	var art Artifact
	if err := json.NewDecoder(zr).Decode(&art); err != nil {
		return reject(rejectf("decode", "%v", err))
	}
	if err := zr.Close(); err != nil {
		return reject(rejectf("decode", "gzip checksum: %v", err))
	}
	// Decode parameters before committing anything, so a malformed tensor
	// rejects the artifact with the cache still untouched.
	params := make(map[string]*tensor.Tensor, len(art.Vars))
	for _, va := range art.Vars {
		t, err := graph.UnmarshalTensor(va.Tensor)
		if err != nil {
			return reject(rejectf("entry", "variable %q: %v", va.Name, err))
		}
		params[va.Name] = t
	}
	n, err := e.cache.Restore(&art, programHash, e.spans())
	if err != nil {
		return reject(err)
	}
	// Install parameters that don't already exist — a live value (from
	// training since boot, or a checkpoint) always wins over the snapshot.
	for name, t := range params {
		e.Store.GetOrCreate(name, func() *tensor.Tensor { return t })
	}
	if reg != nil {
		reg.Counter("janus_artifact_loads_total", helpArtifactLoads).Inc()
		reg.Counter("janus_artifact_loaded_entries_total", helpArtifactLoaded).Add(int64(n))
	}
	return n, nil
}
