package ps

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/minipy"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// mlpProgram is the distributed fixture: a two-layer MLP classifier, the
// same shape of workload as the paper's Figure 8 CNN panels at toy scale.
const mlpProgram = `
def mlp_step(x, y):
    w1 = variable("mlp/w1", [16, 32])
    b1 = variable("mlp/b1", [32])
    w2 = variable("mlp/w2", [32, 4])
    h = relu(matmul(x, w1) + b1)
    return cross_entropy(matmul(h, w2), y)
`

const mlpDriver = `__loss = optimize(lambda: mlp_step(cur_x, cur_y))`

// mlpBuild wires the MLP plus a synthetic dataset into an engine. All
// workers use one seed, so initialization and data agree across replicas;
// the batch index partitions the stream.
func mlpBuild(seed uint64, batch int) func(int, *core.Engine) (StepFunc, error) {
	return func(_ int, e *core.Engine) (StepFunc, error) {
		if err := e.Run(mlpProgram); err != nil {
			return nil, err
		}
		ds := synthFlat(seed, 96, 16, 4)
		driver := minipy.MustParse(mlpDriver)
		return func(i int) (float64, error) {
			x, y := ds.batchAt(i, batch)
			e.Define("cur_x", minipy.NewTensor(x))
			e.Define("cur_y", minipy.NewTensor(y))
			if err := e.RunProgram(driver); err != nil {
				return 0, err
			}
			v, ok := e.Local.Globals.Lookup("__loss")
			if !ok {
				return 0, fmt.Errorf("step driver did not set __loss")
			}
			return v.(*minipy.TensorVal).T().Item(), nil
		}, nil
	}
}

// flatDS is a flattened-image classification dataset.
type flatDS struct {
	imgs    *data.Images
	feat    int
	classes int
}

func synthFlat(seed uint64, n, feat, classes int) *flatDS {
	// 4x4 single-channel images flattened to feat=16 features.
	return &flatDS{imgs: data.SynthImages(tensor.NewRNG(seed), n, 1, 4, 4, classes),
		feat: feat, classes: classes}
}

func (d *flatDS) batchAt(i, bs int) (*tensor.Tensor, *tensor.Tensor) {
	x, y := d.imgs.Batch(i, bs)
	return x.Reshape(bs, d.feat), y
}

func workerEngineConfig() core.Config {
	cfg := core.DefaultJanusConfig()
	cfg.ProfileIters = 2
	cfg.Workers = 1
	cfg.Seed = 42
	cfg.PyOverheadNs = -1
	cfg.LR = 0.05
	return cfg
}

// singleEngineLosses trains the same model on one engine over the same
// global batch sequence and returns the loss trajectory.
func singleEngineLosses(t *testing.T, steps, batch int) []float64 {
	t.Helper()
	e := core.NewEngine(workerEngineConfig())
	step, err := mlpBuild(42, batch)(0, e)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out := make([]float64, steps)
	for i := range out {
		if out[i], err = step(i); err != nil {
			t.Fatalf("single-engine step %d: %v", i, err)
		}
	}
	return out
}

// TestClusterMatchesSingleEngine is the tentpole acceptance check: 4 workers
// training the MLP through the sharded parameter server converge to the
// same loss ballpark as one engine training on the same data.
func TestClusterMatchesSingleEngine(t *testing.T) {
	const workers, batch = 4, 8
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	steps := rounds * workers

	single := singleEngineLosses(t, steps, batch)
	singleFinal := mean(single[len(single)-8:])

	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		// Linear LR-scaling rule: N workers average gradients over an N×
		// global batch, so the server LR scales by N to keep the parameter
		// trajectory comparable to the single-engine baseline.
		Workers: workers, Shards: 4, LR: cfg.LR * workers, Engine: cfg,
		Build: mlpBuild(42, batch),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.Run(rounds)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	clusterFinal := mean(res.Losses[len(res.Losses)-2:])

	first := single[0]
	t.Logf("initial loss %.4f; single-engine final %.4f; 4-worker cluster final %.4f (stale drops %d)",
		first, singleFinal, clusterFinal, res.Stale)
	if clusterFinal >= first*0.7 {
		t.Fatalf("cluster did not train: initial %.4f, final %.4f", first, clusterFinal)
	}
	// "Same ballpark": the distributed run's final loss is within 3x of the
	// single-engine run's (gradient averaging makes the effective schedules
	// differ slightly, so exact equality is not expected).
	if clusterFinal > 3*singleFinal+0.05 {
		t.Fatalf("cluster converged far from single engine: single %.4f, cluster %.4f",
			singleFinal, clusterFinal)
	}

	st := cluster.Server().Stats()
	if st.Vars != 3 {
		t.Fatalf("server holds %d vars, want 3", st.Vars)
	}
	if st.Pushes == 0 || st.Pulls == 0 {
		t.Fatalf("no parameter-server traffic: %+v", st)
	}
	// Per-tensor streaming: pushes must outnumber steps (3 tensors/step).
	minPushes := int64(workers * rounds * 2)
	if st.Pushes < minPushes {
		t.Fatalf("pushes %d, want >= %d (per-tensor streaming)", st.Pushes, minPushes)
	}
}

// TestClusterSmoke is the CI smoke test: a 2-worker cluster makes training
// progress end to end (run under -race in short mode).
func TestClusterSmoke(t *testing.T) {
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: 2, Shards: 2, LR: cfg.LR, Engine: cfg,
		Build: mlpBuild(42, 8),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.Run(10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.FinalLoss() >= res.Losses[0] {
		t.Fatalf("no training progress: losses %v", res.Losses)
	}
	ws := cluster.Workers()[0].Stats()
	if ws.Pushes == 0 || ws.PullsFresh == 0 {
		t.Fatalf("worker exchanged no parameters: %+v", ws)
	}
}

// TestClusterWorkersStayOnStaticGraph is the gate against a replica falling
// back to tape mode: past warm-up every worker's training entry is the
// static graph with baked gradient ops, replayed on the pooled memory plan,
// while its gradients still go to the server.
func TestClusterWorkersStayOnStaticGraph(t *testing.T) {
	cfg := workerEngineConfig()
	cluster, err := NewCluster(ClusterConfig{
		Workers: 2, Shards: 2, LR: cfg.LR, Engine: cfg,
		Build: mlpBuild(42, 8),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if _, err := cluster.Run(6); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, w := range cluster.Workers() {
		e := w.Engine()
		train := 0
		for _, en := range e.Cache().Inspect().EntryList {
			if en.Infer {
				continue
			}
			train++
			if !en.Static {
				t.Fatalf("worker %d: training entry %v is not static", w.ID, en.Signature)
			}
		}
		st := e.Stats()
		if train == 0 || st.GraphSteps == 0 || st.PoolHits == 0 {
			t.Fatalf("worker %d: %d training entries, stats %+v: want graph steps on the pooled plan", w.ID, train, st)
		}
		if w.Stats().Pushes == 0 {
			t.Fatalf("worker %d pushed nothing", w.ID)
		}
	}
}

// TestClusterOverHTTP runs a 2-worker cluster against the server through
// the real HTTP transport.
func TestClusterOverHTTP(t *testing.T) {
	server := mustServer(t, Config{Shards: 3, LR: 0.05, Workers: 2})
	ts := httptest.NewServer(NewHandler(server))
	defer ts.Close()

	cfg := workerEngineConfig()
	cluster, err := NewClusterOver(NewClient(ts.URL, ts.Client()), ClusterConfig{
		Workers: 2, LR: cfg.LR, Engine: cfg,
		Build: mlpBuild(42, 8),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	res, err := cluster.Run(8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.FinalLoss() >= res.Losses[0] {
		t.Fatalf("no training progress over HTTP: losses %v", res.Losses)
	}
	st := server.Stats()
	if st.Pushes == 0 {
		t.Fatalf("no pushes reached the HTTP server: %+v", st)
	}
}

func TestShardPlacementPartitionsVariables(t *testing.T) {
	s := mustServer(t, Config{Shards: 4, LR: 0.1})
	vals := map[string]*tensor.Tensor{}
	for i := 0; i < 32; i++ {
		vals[fmt.Sprintf("layer%d/w", i)] = tensor.Zeros(2, 2)
	}
	if err := s.InitVars(context.Background(), vals); err != nil {
		t.Fatalf("init: %v", err)
	}
	total := 0
	for i := 0; i < 4; i++ {
		params, _, _, err := s.Pull(context.Background(), i, -1)
		if err != nil {
			t.Fatalf("pull shard %d: %v", i, err)
		}
		for name := range params {
			if got := vars.ShardOf(name, 4); got != i {
				t.Fatalf("variable %q pulled from shard %d but hashes to %d", name, i, got)
			}
		}
		total += len(params)
	}
	if total != 32 {
		t.Fatalf("shards hold %d vars total, want 32", total)
	}
}

func TestVersionedPullSkipsUnchanged(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1})
	w := tensor.New([]int{2}, []float64{1, 2})
	if err := s.InitVars(context.Background(), map[string]*tensor.Tensor{"w": w}); err != nil {
		t.Fatalf("init: %v", err)
	}
	params, v1, _, err := s.Pull(context.Background(), 0, -1)
	if err != nil || params == nil {
		t.Fatalf("first pull: params=%v err=%v", params, err)
	}
	// Unchanged: the server returns no payload.
	params, v2, _, err := s.Pull(context.Background(), 0, v1)
	if err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if params != nil || v2 != v1 {
		t.Fatalf("unchanged pull returned params=%v version %d (want nil, %d)", params, v2, v1)
	}
	// After a push the same pull returns fresh params.
	if _, err := s.PushGrad(context.Background(), 0, -1, 1, map[string]*tensor.Tensor{"w": tensor.New([]int{2}, []float64{1, 1})}); err != nil {
		t.Fatalf("push: %v", err)
	}
	params, v3, _, err := s.Pull(context.Background(), 0, v1)
	if err != nil || params == nil || v3 == v1 {
		t.Fatalf("post-push pull: params=%v version=%d err=%v", params, v3, err)
	}
}

func TestStalenessBoundRejectsLaggards(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1, Staleness: 2})
	if err := s.InitVars(context.Background(), map[string]*tensor.Tensor{"w": tensor.Zeros(2)}); err != nil {
		t.Fatalf("init: %v", err)
	}
	g := map[string]*tensor.Tensor{"w": tensor.New([]int{2}, []float64{1, 1})}
	if _, err := s.PushGrad(context.Background(), 0, -1, 10, g); err != nil {
		t.Fatalf("fresh push: %v", err)
	}
	// Within the bound: accepted.
	if _, err := s.PushGrad(context.Background(), 0, -1, 8, g); err != nil {
		t.Fatalf("push within bound: %v", err)
	}
	// Beyond the bound: ErrStale.
	if _, err := s.PushGrad(context.Background(), 0, -1, 7, g); !errors.Is(err, ErrStale) {
		t.Fatalf("laggard push: got %v, want ErrStale", err)
	}
	if st := s.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stale drops %d, want 1", st.StaleDrops)
	}
}

func TestPushUnknownVariableFails(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1})
	_, err := s.PushGrad(context.Background(), 0, -1, 0, map[string]*tensor.Tensor{"ghost": tensor.Zeros(1)})
	if err == nil {
		t.Fatal("push of unregistered variable succeeded")
	}
}

func TestPushShapeMismatchFails(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1})
	if err := s.InitVars(context.Background(), map[string]*tensor.Tensor{"w": tensor.Zeros(2, 3)}); err != nil {
		t.Fatalf("init: %v", err)
	}
	// A malformed wire gradient must produce an error, not a server panic.
	_, err := s.PushGrad(context.Background(), 0, -1, 0, map[string]*tensor.Tensor{"w": tensor.Zeros(3, 2)})
	if err == nil {
		t.Fatal("mismatched gradient shape accepted")
	}
}

// TestGradientAveraging checks the 1/Workers scaling: with K workers
// configured, one push moves a parameter by lr*g/K.
func TestGradientAveraging(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.5, Workers: 4})
	if err := s.InitVars(context.Background(), map[string]*tensor.Tensor{"w": tensor.Zeros(1)}); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := s.PushGrad(context.Background(), 0, -1, 0, map[string]*tensor.Tensor{"w": tensor.New([]int{1}, []float64{8})}); err != nil {
		t.Fatalf("push: %v", err)
	}
	params, _, _, err := s.Pull(context.Background(), 0, -1)
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	// w = 0 - 0.5 * 8/4 = -1.
	if got := params["w"].Item(); got != -1 {
		t.Fatalf("w after averaged push = %v, want -1", got)
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestStaleRoundTripHTTP: the staleness sentinel survives the 409 mapping
// through a real HTTP server and back through the client.
func TestStaleRoundTripHTTP(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, Staleness: 0, Workers: 1})
	if err := s.InitVars(context.Background(), map[string]*tensor.Tensor{"w": tensor.Scalar(1)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	g := map[string]*tensor.Tensor{"w": tensor.Scalar(0.1)}
	if _, err := c.PushGrad(context.Background(), 0, -1, 5, g); err != nil {
		t.Fatalf("fresh push: %v", err)
	}
	_, err := c.PushGrad(context.Background(), 0, -1, 2, g)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("stale push over HTTP: got %v, want ErrStale", err)
	}
}
