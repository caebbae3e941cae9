package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	setParallelism()
	warmup = 200 * time.Millisecond
	os.Exit(m.Run())
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, ascending
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}

func TestCleanSlices(t *testing.T) {
	// Ten slices, six of them inside a burst (slow, long latencies): the
	// window's numbers must come from the fastest fifth only.
	t0 := time.Unix(0, 0)
	slice := func(rate, opMs float64, ops int) sliceStat {
		st := sliceStat{Rate: rate, Ops: ops, cpuMs: opMs * float64(ops)}
		for i := 0; i < ops; i++ {
			st.samples = append(st.samples, opSample{start: t0, end: t0.Add(time.Duration(opMs * float64(time.Millisecond)))})
		}
		return st
	}
	w := &window{slices: []sliceStat{
		slice(60, 3.5, 6), slice(100, 2.0, 10), slice(62, 3.4, 6), slice(61, 3.6, 6), slice(98, 2.1, 10),
		slice(60, 3.5, 6), slice(102, 1.9, 10), slice(63, 3.3, 6), slice(99, 2.0, 10), slice(64, 3.2, 6),
	}}
	st := w.stats()
	if st.rate != 101 || st.p50 != 1.9 || st.p99 != 2.0 || st.samples != 20 {
		t.Errorf("stats = %+v, want rate 101 (median of 102 and 100), p50 1.9, p99 2.0 over 20 ops", st)
	}
	if math.Abs(st.cpuPerOp-1.95) > 1e-12 {
		t.Errorf("cpuPerOp = %v, want 1.95", st.cpuPerOp)
	}
	for i, s := range w.slices {
		if s.Clean != (i == 1 || i == 6) {
			t.Errorf("slice %d clean = %v", i, s.Clean)
		}
	}
	// A short window still keeps one slice.
	if one := (&window{slices: []sliceStat{slice(50, 4, 3)}}).stats(); one.rate != 50 || one.samples != 3 {
		t.Errorf("one-slice window stats = %+v", one)
	}
}

func TestLoopCountsAndRates(t *testing.T) {
	w := loop{clients: 2, items: 3, firstOp: 10, fixedOps: 9, op: func(_, i int) error {
		if i == 12 {
			return os.ErrInvalid
		}
		return nil
	}}.run()
	if w.ops() != 9 || w.failed != 1 || w.firstErr == nil {
		t.Fatalf("ops=%d failed=%d err=%v, want 9, 1, an error", w.ops(), w.failed, w.firstErr)
	}
	var idx []int
	for _, s := range w.samples() {
		idx = append(idx, s.index)
	}
	sort.Ints(idx)
	for k, i := range idx {
		if i != 10+k {
			t.Fatalf("op indices %v, want 10..18", idx)
		}
	}
	if w.lastOp(10) != 19 {
		t.Errorf("lastOp = %d, want 19", w.lastOp(10))
	}
	if len(w.slices) != 1 || w.slices[0].Ops != 9 || w.slices[0].Rate <= 0 {
		t.Errorf("slices = %+v", w.slices)
	}
}

func TestSeedsDecideInputs(t *testing.T) {
	gens := map[string]func(seed uint64) string{
		"images": func(s uint64) string { _, h := genImageBatches(s, 4); return h },
		"trees":  func(s uint64) string { _, h := genTrees(s, 32); return h },
		"rows":   func(s uint64) string { _, h := genRows(s, 16); return h },
	}
	for name, gen := range gens {
		if gen(1) != gen(1) {
			t.Errorf("%s: the same seed gave different input bytes", name)
		}
		if gen(1) == gen(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same input bytes", name)
		}
	}
}

func TestTreeWorkDoesNotDependOnSeed(t *testing.T) {
	count := func(seed uint64) (internal, leaves int) {
		trees, _ := genTrees(seed, treePoolSize)
		for _, tr := range trees {
			i, l := treeNodes(tr)
			internal, leaves = internal+i, leaves+l
		}
		return
	}
	i1, l1 := count(1)
	i2, l2 := count(2)
	if i1 != i2 || l1 != l2 {
		t.Errorf("seed 1 has %d cells and %d leaves, seed 2 has %d and %d", i1, l1, i2, l2)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with nested children 10..40 and 30..60 (overlap 30..40
	// counted once), one child hanging over the end, and a grandchild.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Name: "pull", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "push", Start: 30, End: 60, Parent: 1},
		{ID: 4, Name: "late", Start: 90, End: 130, Parent: 1},
		{ID: 5, Name: "inner", Start: 15, End: 25, Parent: 2},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// A replay child ran after its parent; it covers its own duration from
	// the parent's start, and never more than the parent.
	ladder := []span{
		{ID: 1, Name: "fn.Call", Start: 0, End: 100},
		{ID: 2, Name: "CallNamed", Start: 500, End: 580, Parent: 1, Replay: true},
		{ID: 3, Name: "exec.Run", Start: 900, End: 1000, Parent: 2, Replay: true},
	}
	self = selfTimes(ladder)
	if self[1] != 20 || self[2] != 0 || self[3] != 100 {
		t.Errorf("ladder self times = %v, want 20, 0, 100", self)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's metric tables the
// same list: names, units, direction and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func checkResult(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	var got []string
	for k, m := range res.Metrics {
		got = append(got, k)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", name, k, m.Value)
		}
	}
	sort.Strings(got)
	want := metricNames(defs)
	if len(got) != len(want) {
		t.Fatalf("%s: emitted metrics %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: emitted metrics %v, want %v", name, got, want)
		}
	}
}

// TestSmoke runs every workload for one second: every op must pass its
// checks and the result must carry exactly the end-to-end metric names.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		rep, res, err := measure(options{workload: name, seed: 1, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Reference != "ok" {
			t.Errorf("%s: reference check: %s %s", name, rep.Reference, rep.FirstError)
		}
		checkResult(t, name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
}

// TestTracedCountsRepeat runs the traced ladder twice with a fixed op count
// and checks that the count-type layer metrics repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{
		"core.conversions", "core.fallbacks", "exec.nodes_per_op", "passes.rewrites", "passes.nodes_after",
		"convert.graph_nodes", "ps.pulls_per_op", "ps.pushes_per_op", "ps.bytes_pulled_per_op", "ps.bytes_pushed_per_op",
	}
	for _, name := range workloadNames {
		o := options{workload: name, seed: 1, ops: 24, trace: true, spans: filepath.Join(t.TempDir(), name+".json")}
		_, first, err := measure(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkResult(t, name, first, perLayer)
		_, second, err := measure(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range counts {
			if a, b := first.Metrics[c].Value, second.Metrics[c].Value; a != b {
				t.Errorf("%s: %s was %v then %v on the same seed and op count", name, c, a, b)
			}
		}
		raw, err := os.ReadFile(o.spans)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: span file: %d spans, %v", name, len(file.Spans), err)
		}
	}
}

type fakeWorkload struct {
	workload
	c, r int
}

func (f fakeWorkload) name() string  { return "fake" }
func (f fakeWorkload) clients() int  { return f.c }
func (f fakeWorkload) replicas() int { return f.r }

func TestRefusesMoreClientsThanProcessors(t *testing.T) {
	if err := fixEnvironment(fakeWorkload{c: 1, r: 1}); err != nil {
		t.Errorf("one client refused: %v", err)
	}
	if err := fixEnvironment(fakeWorkload{c: 4096, r: 1}); err == nil {
		t.Error("4096 clients accepted")
	}
	if err := fixEnvironment(fakeWorkload{c: 1, r: 4096}); err == nil {
		t.Error("4096 replicas accepted")
	}
}
