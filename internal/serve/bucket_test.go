package serve

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// projectProgram exercises shared (broadcast) feeds: w is a weight-like
// argument the function reads whole, not per-row.
const projectProgram = `
def project(x, w):
    return matmul(x, w)
`

func bitEqual(a, b *tensor.Tensor) bool {
	if len(a.Data()) != len(b.Data()) {
		return false
	}
	for i, v := range a.Data() {
		if v != b.Data()[i] {
			return false
		}
	}
	return true
}

func counterSum(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, sv := range reg.Series(name) {
		sum += sv.Value
	}
	return sum
}

// TestBucketPaddingBitIdentical is the bucketing contract: padded batch
// sizes produce bit-identical real rows vs an unbucketed pool, near-miss
// sizes land on power-of-two buckets (counted in janus_bucket_*), and with
// RelaxBatchDim the bucket sizes share one wildcard graph.
func TestBucketPaddingBitIdentical(t *testing.T) {
	bucketed := newTestPool(t, Config{Workers: 1, MaxBatch: 1,
		BucketBatch: true, MaxBucket: 16, Engine: janusConfig(1)})
	exact := newTestPool(t, Config{Workers: 1, MaxBatch: 1, Engine: janusConfig(1)})

	batch := func(rows int) *tensor.Tensor {
		data := make([]float64, rows*2)
		for i := range data {
			data[i] = float64(i%7) - 3
		}
		return tensor.New([]int{rows, 2}, data)
	}
	for _, rows := range []int{3, 3, 5, 6, 13} {
		got, err := predict(bucketed, batch(rows))
		if err != nil {
			t.Fatalf("bucketed rows=%d: %v", rows, err)
		}
		want, err := predict(exact, batch(rows))
		if err != nil {
			t.Fatalf("exact rows=%d: %v", rows, err)
		}
		if got.Dim(0) != rows {
			t.Fatalf("rows=%d: got %d output rows (padding leaked)", rows, got.Dim(0))
		}
		if !bitEqual(got, want) {
			t.Fatalf("rows=%d: bucketed output differs from exact\n%v\nvs\n%v", rows, got, want)
		}
	}
	reg := bucketed.Registry()
	if n := counterSum(reg, "janus_bucket_padded_batches_total"); n == 0 {
		t.Fatal("no batch was ever padded")
	}
	if n := counterSum(reg, "janus_bucket_pad_rows_total"); n == 0 {
		t.Fatal("no padding rows counted")
	}
	// Every distinct size mapped onto a bucket {4, 8, 16}; with relax-merge
	// those buckets share graphs, so the cache must hold far fewer entries
	// than distinct request sizes.
	if n := bucketed.Cache().Entries(); n > 3 {
		t.Fatalf("bucketed cache holds %d entries for predict, want <= 3", n)
	}
}

// trafficSizes are batch sizes a mixed-traffic client would send: with
// MaxBucket 16 they land on the power-of-two buckets {1, 2, 4, 8, 16}, so
// five compiled shapes serve eight request shapes.
var trafficSizes = []int{1, 2, 3, 5, 7, 8, 11, 13}

func rowsInput(rows int) *tensor.Tensor {
	data := make([]float64, rows*2)
	for i := range data {
		data[i] = float64(i%11)*0.25 - 1
	}
	return tensor.New([]int{rows, 2}, data)
}

// TestBucketedHitRateAcrossSizes gates the steady-state cache hit rate of a
// bucketed pool under variable batch sizes — the rate that collapses when
// bucketing stops mapping near-miss sizes onto shared graphs (every distinct
// size would convert its own).
func TestBucketedHitRateAcrossSizes(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 1, BucketBatch: true, MaxBucket: 16,
		Engine: janusConfig(1)})
	for cycle := 0; cycle < 8; cycle++ {
		for _, rows := range trafficSizes {
			if _, err := predict(p, rowsInput(rows)); err != nil {
				t.Fatalf("cycle %d rows=%d: %v", cycle, rows, err)
			}
		}
	}
	st := p.Stats()
	rate := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	if rate < 0.75 {
		t.Fatalf("bucketed cache hit rate %.3f (%d hits, %d misses) over %d sizes, want >= 0.75",
			rate, st.CacheHits, st.CacheMisses, len(trafficSizes))
	}
	if st.CachedGraphs >= len(trafficSizes) {
		t.Fatalf("%d compiled graphs for %d request sizes: bucketing shared nothing", st.CachedGraphs, len(trafficSizes))
	}
}

// TestBucketRejectsScalarOutput: a padded execution whose output collapses
// the batch dimension (train_step's mean loss) must fail with a clear
// error, not silently return a value aggregated over synthetic rows.
func TestBucketRejectsScalarOutput(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, MaxBatch: 1, BucketBatch: true, Engine: janusConfig(1)})
	x := tensor.New([]int{3, 2}, []float64{1, 2, 3, 4, 5, 6})
	y := tensor.New([]int{3, 3}, make([]float64, 9))
	_, err := p.CallNamed(context.Background(), "train_step",
		map[string]*tensor.Tensor{"x": x, "y": y})
	if err == nil {
		t.Fatal("padded scalar-output call succeeded, want rejection")
	}
	if !strings.Contains(err.Error(), "bucketing") && !strings.Contains(err.Error(), "BucketBatch") {
		t.Fatalf("error does not point at the bucketing knob: %v", err)
	}
}

// TestSharedFeedBroadcast: a feed marked shared is exempt from the
// batch-dimension contract and reaches the function whole.
func TestSharedFeedBroadcast(t *testing.T) {
	p := NewPool(Config{Workers: 1, MaxBatch: 4, BucketBatch: true, Engine: janusConfig(1)})
	if _, err := p.Load(projectProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	x := tensor.New([]int{3, 2}, []float64{1, 2, 3, 4, 5, 6})
	w := tensor.New([]int{2, 3}, []float64{1, 0, 2, 0, 1, 3})
	feeds := map[string]*tensor.Tensor{"x": x, "w": w}

	// Unmarked, w (2 rows) disagrees with x (3 rows) on the batch dim.
	if _, err := p.CallNamed(context.Background(), "project", feeds); err == nil {
		t.Fatal("mismatched batch dims accepted without a shared marking")
	}
	outs, err := p.CallNamedShared(context.Background(), "project", feeds, []string{"w"})
	if err != nil {
		t.Fatalf("shared call: %v", err)
	}
	want := tensor.MatMul(x, w)
	if len(outs) != 1 || !bitEqual(outs[0], want) {
		t.Fatalf("project returned %v, want %v", outs, want)
	}
	// Unknown shared names fail up front.
	if _, err := p.CallNamedShared(context.Background(), "project", feeds, []string{"nope"}); err == nil {
		t.Fatal("unknown shared feed name accepted")
	}
}

// TestPoolSnapshotWarmBoot drives the full serving round trip: warm a pool,
// save its snapshot, boot a fresh pool from it, and require every saved
// entry to be restored and every traffic shape to be served with zero
// conversions, zero imperative profiling steps and bit-identical outputs.
func TestPoolSnapshotWarmBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "janus-cache.snap")
	mk := func() *Pool {
		return newTestPool(t, Config{Workers: 2, MaxBatch: 4, BucketBatch: true, MaxBucket: 16,
			Engine: janusConfig(1)})
	}
	cold := mk()
	coldOut := make(map[int]*tensor.Tensor)
	for _, rows := range trafficSizes {
		warm(t, cold, rowsInput(rows), 3)
		out, err := predict(cold, rowsInput(rows))
		if err != nil {
			t.Fatal(err)
		}
		coldOut[rows] = out
	}
	saved, err := cold.SaveSnapshot(path)
	if err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	if saved == 0 {
		t.Fatal("snapshot saved no entries")
	}

	warmPool := mk()
	loaded, err := warmPool.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d entries, saved %d", loaded, saved)
	}
	for _, rows := range trafficSizes {
		got, err := predict(warmPool, rowsInput(rows))
		if err != nil {
			t.Fatalf("warm rows=%d: %v", rows, err)
		}
		if !bitEqual(got, coldOut[rows]) {
			t.Fatalf("warm rows=%d output differs from cold:\n%v\nvs\n%v", rows, got, coldOut[rows])
		}
	}
	st := warmPool.Stats()
	if st.Conversions != 0 || st.ImperativeSteps != 0 {
		t.Fatalf("warm boot did cold work: %d conversions, %d imperative steps",
			st.Conversions, st.ImperativeSteps)
	}
	for _, e := range warmPool.Cache().Inspect().EntryList {
		if e.Provenance != "snapshot" {
			t.Fatalf("warm entry provenance %q, want snapshot", e.Provenance)
		}
	}

	// A pool loaded with different sources must reject the artifact and
	// keep serving cold.
	other := NewPool(Config{Workers: 1, Engine: janusConfig(1)})
	if _, err := other.Load(projectProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadSnapshot(path); err == nil {
		t.Fatal("snapshot for a different program was accepted")
	} else if core.RejectReason(err) != "program" {
		t.Fatalf("reject reason %q, want program (%v)", core.RejectReason(err), err)
	}
}
