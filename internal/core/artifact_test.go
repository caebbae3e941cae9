package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// servePredictProgram is an inference-shaped module with an elementwise
// tail, so compiled graphs carry Fused programs through the pass pipeline —
// the artifact round trip must preserve them bit for bit.
const servePredictProgram = `
def predict(x):
    w = variable("w", [2, 4])
    h = relu(matmul(x, w))
    return sigmoid(h * 0.5 + 1.5)
`

func newPredictEngine(t *testing.T, cfg Config, cache *GraphCache) *Engine {
	t.Helper()
	e := NewEngineShared(cfg, vars.NewStore(), cache)
	if err := e.Run(servePredictProgram); err != nil {
		t.Fatalf("load program: %v", err)
	}
	return e
}

func callPredict(t *testing.T, e *Engine, rows int) *tensor.Tensor {
	t.Helper()
	x := tensor.NewRNG(uint64(rows)).Randn(rows, 2)
	out, err := e.Call("predict", []minipy.Value{minipy.NewTensor(x)})
	if err != nil {
		t.Fatalf("predict rows=%d: %v", rows, err)
	}
	tv, ok := out.(*minipy.TensorVal)
	if !ok {
		t.Fatalf("predict returned %T", out)
	}
	return tv.T()
}

func bitIdentical(a, b *tensor.Tensor) bool {
	if len(a.Data()) != len(b.Data()) {
		return false
	}
	for i, v := range a.Data() {
		if v != b.Data()[i] && !(v != v && b.Data()[i] != b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestArtifactRoundTripWarmBoot is the core warm-boot property: a cache
// snapshotted from one process and restored into a fresh one serves its
// first request with zero conversions AND zero imperative profiling steps,
// producing bit-identical outputs.
func TestArtifactRoundTripWarmBoot(t *testing.T) {
	dir := t.TempDir()
	path := ArtifactPath(dir)
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Seed = 11

	cold := newPredictEngine(t, cfg, NewGraphCache())
	var coldOut = map[int]*tensor.Tensor{}
	for _, rows := range []int{4, 8} {
		callPredict(t, cold, rows) // profile / compile
		coldOut[rows] = callPredict(t, cold, rows)
	}
	if cold.Stats().Conversions == 0 {
		t.Fatal("cold engine never converted")
	}
	saved, err := cold.SaveArtifact(path, "hash-a")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if saved == 0 {
		t.Fatal("snapshot saved no entries")
	}

	warmCache := NewGraphCache()
	warm := newPredictEngine(t, cfg, warmCache)
	loaded, err := warm.LoadArtifact(path, "hash-a")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d entries, saved %d", loaded, saved)
	}
	for _, rows := range []int{4, 8} {
		got := callPredict(t, warm, rows)
		if !bitIdentical(got, coldOut[rows]) {
			t.Fatalf("rows=%d: warm output differs from cold\n%v\nvs\n%v", rows, got, coldOut[rows])
		}
	}
	s := warm.Stats()
	if s.Conversions != 0 {
		t.Fatalf("warm boot converted %d times, want 0", s.Conversions)
	}
	if s.ImperativeSteps != 0 {
		t.Fatalf("warm boot ran %d imperative profiling steps, want 0", s.ImperativeSteps)
	}
	if s.CacheHits == 0 {
		t.Fatal("warm boot never hit the restored cache")
	}
	// Provenance must be visible on inspection.
	info := warmCache.Inspect()
	if len(info.EntryList) == 0 {
		t.Fatal("no entries in warm cache")
	}
	for _, e := range info.EntryList {
		if e.Provenance != "snapshot" {
			t.Fatalf("entry provenance %q, want snapshot", e.Provenance)
		}
	}
	for _, e := range cold.Cache().Inspect().EntryList {
		if e.Provenance != "compiled" {
			t.Fatalf("cold entry provenance %q, want compiled", e.Provenance)
		}
	}
}

// TestArtifactRejection drives every rejection class: missing file, garbage
// bytes, truncated gzip, format-version skew (an artifact of the previous
// version included), and a program-hash mismatch.
// Each must reject without touching the cache, count the tagged reason, and
// leave the engine able to compile cold.
func TestArtifactRejection(t *testing.T) {
	dir := t.TempDir()
	path := ArtifactPath(dir)
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Seed = 11
	cold := newPredictEngine(t, cfg, NewGraphCache())
	callPredict(t, cold, 4)
	callPredict(t, cold, 4)
	if _, err := cold.SaveArtifact(path, "hash-a"); err != nil {
		t.Fatalf("save: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	writeGz := func(t *testing.T, p string, art *Artifact) {
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		if err := json.NewEncoder(zw).Encode(art); err != nil {
			t.Fatal(err)
		}
		zw.Close()
		f.Close()
	}

	cases := []struct {
		name    string
		reason  string
		prepare func(t *testing.T, p string)
		hash    string
	}{
		{"missing", "open", func(t *testing.T, p string) { os.Remove(p) }, "hash-a"},
		{"garbage", "decode", func(t *testing.T, p string) {
			os.WriteFile(p, []byte("definitely not gzip"), 0o644)
		}, "hash-a"},
		{"truncated", "decode", func(t *testing.T, p string) {
			os.WriteFile(p, good[:len(good)/2], 0o644)
		}, "hash-a"},
		{"version-skew", "version", func(t *testing.T, p string) {
			writeGz(t, p, &Artifact{Version: ArtifactVersion + 1, GraphWire: 1, ProgramHash: "hash-a"})
		}, "hash-a"},
		{"previous-version", "version", func(t *testing.T, p string) {
			// Version 1 graphs predate the current gradient ops: a
			// training entry would fail on every step or train wrongly.
			var art Artifact
			zr, err := gzip.NewReader(bytes.NewReader(good))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(zr).Decode(&art); err != nil {
				t.Fatal(err)
			}
			art.Version = 1
			writeGz(t, p, &art)
		}, "hash-a"},
		{"wire-skew", "wire", func(t *testing.T, p string) {
			writeGz(t, p, &Artifact{Version: ArtifactVersion, GraphWire: 999, ProgramHash: "hash-a"})
		}, "hash-a"},
		{"program-mismatch", "program", func(t *testing.T, p string) {
			os.WriteFile(p, good, 0o644)
		}, "hash-b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "janus-cache.snap")
			os.WriteFile(p, good, 0o644)
			tc.prepare(t, p)
			cache := NewGraphCache()
			e := newPredictEngine(t, cfg, cache)
			reg := e.Registry()
			RegisterArtifactMetrics(reg)
			n, err := e.LoadArtifact(p, tc.hash)
			if err == nil {
				t.Fatal("load succeeded, want rejection")
			}
			if !errors.Is(err, ErrArtifactRejected) {
				t.Fatalf("error %v is not ErrArtifactRejected", err)
			}
			if got := RejectReason(err); got != tc.reason {
				t.Fatalf("reason %q, want %q (%v)", got, tc.reason, err)
			}
			if n != 0 || cache.Entries() != 0 {
				t.Fatalf("rejected load still restored %d entries (%d cached)", n, cache.Entries())
			}
			var count float64
			for _, sv := range reg.Series("janus_artifact_rejected_total") {
				if obs.LabelValue(sv.Labels, "reason") == tc.reason {
					count = sv.Value
				}
			}
			if count != 1 {
				t.Fatalf("janus_artifact_rejected_total{reason=%q} = %v, want 1", tc.reason, count)
			}
			// Cold fallback still works.
			callPredict(t, e, 4)
			callPredict(t, e, 4)
			if e.Stats().Conversions == 0 {
				t.Fatal("cold fallback never compiled")
			}
		})
	}
}

// TestRelaxMergeSharesOneGraph proves the symbolic batch-dim variant: with
// RelaxBatchDim on, distinct batch sizes collapse into one wildcard entry,
// a third size is a cache hit with no conversion at all, and every bucketed
// output is bit-identical to exact-shape compilation.
func TestRelaxMergeSharesOneGraph(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Seed = 11
	cfg.RelaxBatchDim = true
	relaxed := newPredictEngine(t, cfg, NewGraphCache())

	callPredict(t, relaxed, 4) // profile
	callPredict(t, relaxed, 4) // compile exact
	callPredict(t, relaxed, 8) // compile + merge into wildcard entry
	if got := relaxed.Cache().Entries(); got != 1 {
		t.Fatalf("cache holds %d entries after merge, want 1", got)
	}
	info := relaxed.Cache().Inspect()
	if !info.EntryList[0].Bucketed {
		t.Fatalf("merged entry not marked bucketed: %v", info.EntryList[0].Signature)
	}
	before := relaxed.Stats().Conversions
	out16 := callPredict(t, relaxed, 16) // third size: wildcard hit
	if got := relaxed.Stats().Conversions; got != before {
		t.Fatalf("third batch size reconverted: %d -> %d", before, got)
	}

	// Bit-identity vs exact-shape compilation on a fresh engine.
	exactCfg := cfg
	exactCfg.RelaxBatchDim = false
	exact := newPredictEngine(t, exactCfg, NewGraphCache())
	callPredict(t, exact, 16)
	if want := callPredict(t, exact, 16); !bitIdentical(out16, want) {
		t.Fatalf("bucketed output differs from exact compilation:\n%v\nvs\n%v", out16, want)
	}
	if exact.Cache().Entries() < 1 {
		t.Fatal("exact engine cached nothing")
	}

	// The relax counter fired exactly once.
	var merges float64
	for _, sv := range relaxed.Registry().Series("janus_bucket_relaxed_total") {
		merges += sv.Value
	}
	if merges != 1 {
		t.Fatalf("janus_bucket_relaxed_total = %v, want 1", merges)
	}
}

// TestRecursiveGraphNeitherMergesNorSnapshots: a recursive function's
// compiled graph has no canonical encoding, so the batch-dim merge passes
// it over and a snapshot skips it — neither may crash the process.
func TestRecursiveGraphNeitherMergesNorSnapshots(t *testing.T) {
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.RelaxBatchDim = true
	e := NewEngine(cfg)
	if err := e.Run(`
def chain(x, n):
    if n <= 0:
        return x
    return tanh(x) + chain(x, n - 1)
`); err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{4, 4, 8, 8} {
		x := minipy.NewTensor(tensor.Full(0.5, rows, 2))
		if _, err := e.Call("chain", []minipy.Value{x, minipy.NewTensor(tensor.Scalar(2))}); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
	}
	if got := e.Cache().Entries(); got != 2 {
		t.Fatalf("cache holds %d entries, want one per batch size", got)
	}
	saved, err := e.SaveArtifact(ArtifactPath(t.TempDir()), "h")
	if err != nil || saved != 0 {
		t.Fatalf("SaveArtifact saved %d entries (%v), want 0", saved, err)
	}
}

// TestArtifactRoundTripRelaxedEntry checks the two features compose: a
// wildcard (bucketed) entry survives the snapshot round trip and still
// serves multiple batch sizes warm.
func TestArtifactRoundTripRelaxedEntry(t *testing.T) {
	dir := t.TempDir()
	path := ArtifactPath(dir)
	cfg := DefaultJanusConfig()
	cfg.ProfileIters = 1
	cfg.Seed = 11
	cfg.RelaxBatchDim = true
	cold := newPredictEngine(t, cfg, NewGraphCache())
	callPredict(t, cold, 4)
	callPredict(t, cold, 4)
	callPredict(t, cold, 8)
	if _, err := cold.SaveArtifact(path, "h"); err != nil {
		t.Fatal(err)
	}
	warmCache := NewGraphCache()
	warm := newPredictEngine(t, cfg, warmCache)
	if _, err := warm.LoadArtifact(path, "h"); err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{4, 8, 32} {
		want := callPredict(t, cold, rows)
		got := callPredict(t, warm, rows)
		if !bitIdentical(got, want) {
			t.Fatalf("rows=%d differs across snapshot round trip", rows)
		}
	}
	if s := warm.Stats(); s.Conversions != 0 || s.ImperativeSteps != 0 {
		t.Fatalf("warm engine did cold work: %d conversions, %d imperative steps",
			s.Conversions, s.ImperativeSteps)
	}
	info := warmCache.Inspect()
	if len(info.EntryList) != 1 || !info.EntryList[0].Bucketed || info.EntryList[0].Provenance != "snapshot" {
		t.Fatalf("restored entry = %+v", info.EntryList)
	}
}

// TestArtifactReplayProperty is the randomized replay property: for a batch
// of generated programs with random elementwise tails, an engine restored
// from a cold engine's artifact replays every one bit-identically with zero
// conversions and zero imperative steps. The generated corpus must include
// entries whose serialized graphs carry Fused elementwise programs and
// pooled memory plans, so the property covers the pass pipeline's output,
// not just plain op graphs.
func TestArtifactReplayProperty(t *testing.T) {
	tails := []string{"relu(%s)", "sigmoid(%s)", "tanh(%s)", "exp(%s * 0.25)",
		"(%s * 1.5 + 0.5)", "(%s - 0.25)"}
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	fusedSeen, plannedSeen := false, false
	for trial := 0; trial < 10; trial++ {
		expr := "matmul(x, w)"
		for n := 1 + rng.Intn(4); n > 0; n-- {
			expr = fmt.Sprintf(tails[rng.Intn(len(tails))], expr)
		}
		src := fmt.Sprintf("\ndef f(x):\n    w = variable(\"w\", [3, 5])\n    return %s\n", expr)
		cfg := DefaultJanusConfig()
		cfg.ProfileIters = 1
		cfg.Seed = 11
		mk := func() *Engine {
			e := NewEngineShared(cfg, vars.NewStore(), NewGraphCache())
			if err := e.Run(src); err != nil {
				t.Fatalf("trial %d: load %q: %v", trial, expr, err)
			}
			return e
		}
		rows := 2 + rng.Intn(6)
		x := tensor.NewRNG(uint64(trial+1)).Randn(rows, 3)
		call := func(e *Engine) *tensor.Tensor {
			out, err := e.Call("f", []minipy.Value{minipy.NewTensor(x)})
			if err != nil {
				t.Fatalf("trial %d: call %q: %v", trial, expr, err)
			}
			return out.(*minipy.TensorVal).T()
		}
		cold := mk()
		call(cold)
		want := call(cold)
		path := filepath.Join(dir, fmt.Sprintf("trial-%d.snap", trial))
		if _, err := cold.SaveArtifact(path, "prop"); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		warm := mk()
		if _, err := warm.LoadArtifact(path, "prop"); err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if got := call(warm); !bitIdentical(got, want) {
			t.Fatalf("trial %d: %q replays differently across the artifact round trip", trial, expr)
		}
		if s := warm.Stats(); s.Conversions != 0 || s.ImperativeSteps != 0 {
			t.Fatalf("trial %d: warm engine did cold work: %d conversions, %d imperative steps",
				trial, s.Conversions, s.ImperativeSteps)
		}
		// Inspect what was actually serialized, to keep the corpus honest.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var art Artifact
		if err := json.NewDecoder(zr).Decode(&art); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for _, fa := range art.Funcs {
			for _, ea := range fa.Entries {
				if strings.Contains(string(ea.Graph), `"Fused"`) {
					fusedSeen = true
				}
				if ea.MemPlan != nil && ea.MemPlan.NumClasses > 0 {
					plannedSeen = true
				}
			}
		}
	}
	if !fusedSeen {
		t.Fatal("no generated program serialized a Fused elementwise graph — the property lost its pass-pipeline coverage")
	}
	if !plannedSeen {
		t.Fatal("no serialized entry carried a memory plan")
	}
}
