package janus

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// TrainOptions configures a distributed data-parallel training cluster: N
// worker replicas around a sharded parameter server (internal/ps), reachable
// entirely through the public function-handle API — no internal imports
// required.
type TrainOptions struct {
	// Options configures every worker replica's engine. A zero Seed is
	// replaced with 1: replicas must agree on parameter initialization, and
	// an unseeded RNG would give each replica different initial values. The
	// replica count is named Replicas (not Workers) so it never shadows the
	// embedded Options.Workers.
	Options
	// Replicas is the number of data-parallel worker replicas (default 1).
	Replicas int
	// Shards is the parameter server's shard count (default = Replicas).
	// Ignored when ServerAddr is set: the external server's own -shards
	// applies (Stats reports the server's actual count either way).
	Shards int
	// Staleness bounds asynchrony in worker steps: a gradient push lagging
	// the freshest observed step by more than Staleness is rejected with
	// ErrStale and dropped. The handle API barriers replicas per Call, so 0
	// (synchronous) never rejects. Ignored when ServerAddr is set — the
	// external server's -staleness applies.
	Staleness int
	// Optimizer names the server-side update rule applied to pushed
	// gradients: "sgd" (default), "momentum", or "adam". Optimizer state
	// (velocity, Adam moments and per-tensor step counts) lives on the
	// server's shards keyed by variable name, so replicas stay stateless.
	// Ignored when ServerAddr is set — the external server's -optimizer
	// applies.
	Optimizer string
	// Async makes each Call a free-running epoch instead of one barriered
	// round: every replica loops AsyncSteps local steps on its slice of the
	// batch — pull fresh shards, run the function, stream gradients — with
	// no per-step barrier across replicas. The only cross-replica
	// synchronization is the server's shard step clock enforcing Staleness:
	// a replica whose pushes are rejected as stale backs off (bounded) and
	// re-pulls rather than failing. The Call returns when every replica has
	// finished its steps.
	Async bool
	// AsyncSteps is how many free-running local steps each replica runs per
	// Call when Async is set (default 1). Each step re-runs the function on
	// the replica's same feed slice against freshly pulled parameters.
	AsyncSteps int
	// ServerAddr, when non-empty, connects the replicas to an external
	// janusps parameter server (e.g. "http://localhost:8081") instead of
	// hosting an in-process one. The external server must be configured for
	// the same number of workers (gradients are averaged 1/Replicas
	// server-side), and ITS -lr and -optimizer govern the updates — with
	// ServerAddr set, Options.LearningRate only affects the replicas' local
	// optimize() bookkeeping, not the applied updates.
	ServerAddr string
	// Retries, when positive, wraps the cluster's transport in a retrying
	// layer: transient failures (ErrUnavailable — an unreachable or failing-
	// over server) are retried up to Retries times per RPC with capped
	// full-jitter exponential backoff before the sentinel surfaces to the
	// caller. Retried gradient pushes are safe: the server deduplicates on
	// (replica, step), so a push whose response was lost is applied exactly
	// once. 0 disables retrying (every transient failure surfaces
	// immediately).
	Retries int
	// RetryTimeout caps one attempt's wall-clock time when Retries is set
	// (default 2s): a hung server fails the attempt — retryably — instead
	// of wedging the replica.
	RetryTimeout time.Duration
}

// Cluster is a data-parallel training cluster behind the function-handle
// API: Program/Func resolve handles exactly as on a Runtime or Server, and
// each Call runs one global round — the feeds' leading batch dimension is
// split into contiguous per-replica slices, every replica executes the
// function on its slice concurrently, and each parameter's gradient streams
// to the sharded server the moment backprop finalizes it (overlapping
// communication with compute, the effect the paper's §6.3.2 attributes the
// graph engine's multi-device scalability to). The call returns the
// row-weighted mean of the replicas' scalar losses.
//
// With TrainOptions.Async set, a Call is instead a free-running epoch: each
// replica loops AsyncSteps pull→step→push iterations on its slice with no
// per-step barrier, the staleness bound arbitrating between fast and slow
// replicas (see TrainOptions.Async); the call returns each replica's final
// loss row-weighted.
//
// Calls are serialized (a round — or async epoch — is a global barrier);
// concurrency lives inside the round. Context cancellation stops every
// replica between training steps with ErrCanceled; gradients of interrupted
// steps are never half-applied, so server parameters always correspond to
// completed pushes.
// Atomicity is per replica step, not per round: a replica already past the
// cancellation check finishes its step and its pushes land, so a canceled
// round may be partially applied across replicas (training remains correct
// — it is equivalent to those replicas having run one extra stale-free
// step — but the round is not transactional).
//
// The first Call additionally bootstraps every replica by running the
// function once with gradients discarded (parameters are created lazily
// inside the step, and the resulting initial values are registered with the
// server set-if-absent). That throwaway run applies interpreter side
// effects: a program that advances module state per step (a batch counter,
// prints) sees the function execute twice on each replica during the first
// Call. Feeds passed by the caller are unaffected — the real first round
// re-runs on the same slices.
type Cluster struct {
	opts    TrainOptions
	server  *ps.Server // nil when ServerAddr points at an external janusps
	trans   ps.Transport
	shards  int // the server's actual shard count (external servers ignore opts.Shards)
	engines []*core.Engine
	workers []*ps.Worker

	mu sync.Mutex
	// booted tracks bootstrap per function name and replica: each handle's
	// first Call must run its function once with gradients discarded so the
	// variables THAT function creates lazily get registered with the server
	// (two handles may use disjoint variable sets). Per-replica flags make
	// a partially failed bootstrap resumable without re-applying the
	// throwaway run's module-state side effects to replicas that already
	// ran it.
	booted map[string][]bool
}

// NewCluster compiles src onto every worker replica and wires the replicas
// to the parameter server. The returned cluster's Program handle resolves
// the program's functions into distributed training handles.
func NewCluster(src string, opts TrainOptions) (*Cluster, error) {
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Shards < 1 {
		opts.Shards = opts.Replicas
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	ecfg := opts.Options.coreConfig()
	c := &Cluster{opts: opts}
	if opts.ServerAddr != "" {
		c.trans = ps.NewClient(opts.ServerAddr, nil)
	} else {
		server, err := ps.NewServer(ps.Config{
			Shards:    opts.Shards,
			LR:        ecfg.LR,
			Workers:   opts.Replicas,
			Staleness: opts.Staleness,
			Optimizer: opts.Optimizer,
		})
		if err != nil {
			return nil, fmt.Errorf("janus: cluster: %w", err)
		}
		c.server = server
		c.trans = c.server
	}
	if opts.Retries > 0 {
		var reg *obs.Registry
		if c.server != nil {
			reg = c.server.Registry()
		}
		c.trans = ps.NewRetryTransport(c.trans, ps.RetryPolicy{
			Budget:  opts.Retries,
			Attempt: opts.RetryTimeout,
		}, reg)
	}
	shards, err := c.trans.NumShards()
	if err != nil {
		return nil, fmt.Errorf("janus: cluster: %w", err)
	}
	c.shards = shards
	for i := 0; i < opts.Replicas; i++ {
		e := core.NewEngine(ecfg)
		if err := e.Run(src); err != nil {
			return nil, fmt.Errorf("janus: cluster worker %d compile: %w", i, err)
		}
		w, err := ps.NewWorker(i, e, nil, c.trans)
		if err != nil {
			return nil, err
		}
		c.engines = append(c.engines, e)
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// Program returns the handle onto the cluster's compiled program.
func (c *Cluster) Program() *Program { return &Program{b: clusterBackend{c}} }

// Func resolves a module-level function into a distributed training handle
// (shorthand for Program().Func).
func (c *Cluster) Func(name string) (*Function, error) { return c.Program().Func(name) }

// Parameters snapshots the server-side trained parameters (every shard).
func (c *Cluster) Parameters() (map[string]*tensor.Tensor, error) {
	out := make(map[string]*tensor.Tensor)
	for s := 0; s < c.shards; s++ {
		params, _, _, err := c.trans.Pull(context.Background(), s, -1)
		if err != nil {
			return nil, err
		}
		for name, t := range params {
			out[name] = t
		}
	}
	return out, nil
}

// Parameter returns one named server-side trained parameter.
func (c *Cluster) Parameter(name string) (*tensor.Tensor, error) {
	params, _, _, err := c.trans.Pull(context.Background(), vars.ShardOf(name, c.shards), -1)
	if err != nil {
		return nil, err
	}
	t, ok := params[name]
	if !ok {
		return nil, fmt.Errorf("janus: unknown parameter %q", name)
	}
	return t, nil
}

// ClusterStats aggregates the replicas' parameter-server traffic.
type ClusterStats struct {
	Workers     int
	Shards      int
	Steps       int64
	Pulls       int64
	Pushes      int64
	StaleDrops  int64
	BytesPulled int64
	BytesPushed int64
}

// Stats snapshots the cluster's traffic counters.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{Workers: len(c.workers), Shards: c.shards}
	for _, w := range c.workers {
		ws := w.Stats()
		st.Steps += ws.Steps
		st.Pulls += ws.Pulls
		st.Pushes += ws.Pushes
		st.StaleDrops += ws.StaleDrops
		st.BytesPulled += ws.BytesPulled
		st.BytesPushed += ws.BytesPushed
	}
	return st
}

// clusterBackend runs handle calls as global data-parallel rounds.
type clusterBackend struct{ c *Cluster }

func (b clusterBackend) funcParams(_ context.Context, name string) ([]string, error) {
	// Serialize against in-flight rounds: the lookup reads engine 0's
	// interpreter globals, which a running step function may be writing.
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	fn, err := b.c.engines[0].LookupFunc(name)
	if err != nil {
		return nil, err
	}
	return fn.ParamList(), nil
}

func (b clusterBackend) call(ctx context.Context, name string, feeds Feeds) (Outputs, error) {
	c := b.c
	c.mu.Lock()
	defer c.mu.Unlock()
	chunks, rows, err := splitFeeds(feeds, len(c.workers))
	if err != nil {
		return nil, fmt.Errorf("janus: %s: %w", name, err)
	}
	// First round per function: bootstrap every replica — run the call once
	// with gradients discarded so the function's variables initialize,
	// propose the initial values set-if-absent (identical across replicas,
	// which share a seed), then pull the authoritative copy.
	if c.booted == nil {
		c.booted = make(map[string][]bool)
	}
	if c.booted[name] == nil {
		c.booted[name] = make([]bool, len(c.workers))
	}
	for i, w := range c.workers {
		if c.booted[name][i] {
			continue
		}
		i := i
		if err := w.BootstrapWith(func() error {
			_, err := c.engines[i].CallNamed(ctx, name, feedValues(chunks[i]))
			return err
		}); err != nil {
			return nil, err
		}
		c.booted[name][i] = true
	}
	type result struct {
		loss float64
		err  error
	}
	results := make([]result, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		// The server averages pushes uniformly (1/Replicas); when chunk
		// sizes differ by a row, scale each replica's gradients by its
		// share of the batch so the applied update is exactly the gradient
		// of the global batch mean: (k_i*n/rows)/n sums to k_i/rows.
		if rows > 0 {
			w.SetPushScale(float64(chunkRows(rows, len(c.workers), i)*len(c.workers)) / float64(rows))
		} else {
			w.SetPushScale(1)
		}
		wg.Add(1)
		go func(i int, w *ps.Worker) {
			defer wg.Done()
			body := func() (float64, error) {
				out, err := c.engines[i].CallNamed(ctx, name, feedValues(chunks[i]))
				if err != nil {
					return 0, err
				}
				outs, err := toOutputs(name, out)
				if err != nil {
					return 0, err
				}
				return outs.Scalar()
			}
			// Per-round stale-drop counts are discarded here; cumulative
			// drops stay observable via Cluster.Stats().
			if c.opts.Async {
				// Free-running epoch: this replica loops AsyncSteps local
				// steps against its same slice with no cross-replica barrier;
				// stale pushes back off and re-pull inside RunFree.
				steps := c.opts.AsyncSteps
				if steps < 1 {
					steps = 1
				}
				losses, _, err := w.RunFree(ctx, steps, func(int) (float64, error) { return body() })
				var last float64
				if len(losses) > 0 {
					last = losses[len(losses)-1]
				}
				results[i] = result{loss: last, err: err}
				return
			}
			loss, _, err := w.DoCtx(ctx, body)
			results[i] = result{loss: loss, err: err}
		}(i, w)
	}
	wg.Wait()
	mean, weight := 0.0, 0.0
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("janus: cluster worker %d: %w", i, r.err)
		}
		w := 1.0
		if rows > 0 {
			w = float64(chunkRows(rows, len(c.workers), i))
		}
		mean += r.loss * w
		weight += w
	}
	if weight > 0 {
		mean /= weight
	}
	return Outputs{tensor.Scalar(mean)}, nil
}

// splitFeeds slices every feed's leading batch dimension into n contiguous
// per-replica chunks (sizes differing by at most one). Empty feeds mean
// every replica calls the function with no arguments — data selection then
// lives inside the program. rows is 0 for the empty case.
func splitFeeds(feeds Feeds, n int) ([]Feeds, int, error) {
	chunks := make([]Feeds, n)
	if len(feeds) == 0 {
		return chunks, 0, nil
	}
	rows := -1
	first := ""
	for name, t := range feeds {
		if t.Rank() < 1 {
			return nil, 0, fmt.Errorf("feed %q is a scalar — distributed feeds need a leading batch dimension to split across workers", name)
		}
		if rows == -1 {
			rows, first = t.Dim(0), name
		} else if t.Dim(0) != rows {
			return nil, 0, fmt.Errorf("feeds disagree on the batch dimension (%q has %d rows, %q has %d)",
				first, rows, name, t.Dim(0))
		}
	}
	if rows < n {
		return nil, 0, fmt.Errorf("batch of %d rows cannot be split across %d workers — feed at least one row per worker", rows, n)
	}
	off := 0
	for i := 0; i < n; i++ {
		k := chunkRows(rows, n, i)
		chunk := make(Feeds, len(feeds))
		for name, t := range feeds {
			chunk[name] = tensor.SliceAxis(t, 0, off, off+k)
		}
		chunks[i] = chunk
		off += k
	}
	return chunks, rows, nil
}

// chunkRows is the size of chunk i when rows split across n workers.
func chunkRows(rows, n, i int) int {
	base, rem := rows/n, rows%n
	if i < rem {
		return base + 1
	}
	return base
}
