package ps

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ClusterConfig describes an in-process data-parallel training cluster: N
// worker replicas around one sharded parameter server, all in one binary —
// the harness behind the distributed tests and the benchmark's bypass ladder.
type ClusterConfig struct {
	// Workers is the number of data-parallel replicas (default 1).
	Workers int
	// Shards is the server's shard count (default = Workers).
	Shards int
	// LR is the server-side learning rate (default 0.1).
	LR float64
	// Staleness is the server's step-staleness bound (see Config.Staleness).
	// Run barriers workers per round, so 0 (synchronous) never rejects;
	// RunAsync drives workers free-running, where the bound is load-bearing.
	Staleness int
	// Optimizer is the server-side update rule ("sgd" default, "momentum",
	// "adam"); see Config.Optimizer.
	Optimizer string
	// Engine configures every worker replica. Use one Seed for all replicas
	// so parameter initialization (and the synthetic datasets the models
	// derive from the same seed) agree across the cluster.
	Engine core.Config
	// Build wires a model into a worker's engine and returns its step
	// driver. Workers partition data by global batch index: worker w of N
	// executes indices r*N+w for round r, so N workers cover exactly the
	// batches a single engine would in N sequential steps.
	Build func(workerID int, e *core.Engine) (StepFunc, error)
	// LeaseTTL and SnapshotEvery forward to the server Config (see there);
	// churn runs shrink LeaseTTL so silent workers expire within the run.
	LeaseTTL      time.Duration
	SnapshotEvery int
	// Retry, when non-nil, wraps every worker's transport in a
	// RetryTransport under this policy. Required for churn runs — a dead
	// shard otherwise fails the first push that touches it.
	Retry *RetryPolicy
	// Faults, when non-nil, layers a seeded FaultInjector UNDER the retry
	// wrapper, so injected drops/dups/lost replies exercise retry and dedup
	// instead of failing the run.
	Faults *FaultPlan
}

// Cluster is a running in-process cluster.
type Cluster struct {
	cfg     ClusterConfig
	server  *Server
	workers []*Worker
	// retry/faults are the shared transport middlewares when the config
	// enables them (nil otherwise); churn results read their counters.
	retry  *RetryTransport
	faults *FaultInjector
}

// RunResult summarizes one training run.
type RunResult struct {
	// Rounds is how many global rounds ran; every worker took one step per
	// round, so Workers*Rounds local steps happened in total.
	Rounds int
	// Losses is the per-round mean training loss across workers.
	Losses []float64
	// Stale counts gradients rejected by the staleness bound.
	Stale int64
	// Elapsed is wall-clock time for the run.
	Elapsed time.Duration
}

// FinalLoss returns the last round's mean loss (NaN-free runs only).
func (r RunResult) FinalLoss() float64 {
	if len(r.Losses) == 0 {
		return 0
	}
	return r.Losses[len(r.Losses)-1]
}

// NewCluster builds the server and workers and bootstraps parameters.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = cfg.Workers
	}
	server, err := NewServer(Config{
		Shards: cfg.Shards, LR: cfg.LR, Workers: cfg.Workers,
		Staleness: cfg.Staleness, Optimizer: cfg.Optimizer,
		LeaseTTL: cfg.LeaseTTL, SnapshotEvery: cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, server: server}
	return c, c.connect(server)
}

// NewClusterOver builds workers against an external server through the
// given transport (e.g. a Client against a cmd/janusps process). The
// transport's server must be configured for cfg.Workers replicas.
func NewClusterOver(t Transport, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	c := &Cluster{cfg: cfg}
	return c, c.connect(t)
}

func (c *Cluster) connect(t Transport) error {
	if c.cfg.Build == nil {
		return fmt.Errorf("ps: ClusterConfig.Build is required")
	}
	// Middleware order: worker → retry → fault injector → real transport,
	// so every injected transient fault is seen (and absorbed) by the
	// retry layer, exactly like a wire fault would be.
	var reg *obs.Registry
	if c.server != nil {
		reg = c.server.Registry()
	}
	if c.cfg.Faults != nil {
		c.faults = NewFaultInjector(t, *c.cfg.Faults, reg)
		t = c.faults
	}
	if c.cfg.Retry != nil {
		c.retry = NewRetryTransport(t, *c.cfg.Retry, reg)
		t = c.retry
	}
	for i := 0; i < c.cfg.Workers; i++ {
		e := core.NewEngine(c.cfg.Engine)
		step, err := c.cfg.Build(i, e)
		if err != nil {
			return fmt.Errorf("ps: build worker %d: %w", i, err)
		}
		w, err := NewWorker(i, e, step, t)
		if err != nil {
			return err
		}
		// Sequential bootstrap: the first worker's init lands, the rest
		// verify against it and pull. All replicas share one seed, so every
		// proposal is identical and order doesn't matter.
		if err := w.Bootstrap(i); err != nil {
			return err
		}
		c.workers = append(c.workers, w)
	}
	return nil
}

// Server returns the in-process server (nil when built with NewClusterOver).
func (c *Cluster) Server() *Server { return c.server }

// Workers returns the cluster's workers.
func (c *Cluster) Workers() []*Worker { return c.workers }

// Run trains for `rounds` global rounds. Each round, every worker runs one
// local step concurrently on its slice of the data (worker w takes global
// batch index round*N+w); the harness barriers between rounds. Within a
// round, each worker's gradient pushes overlap its backprop — the real,
// measurable form of the overlap the analytical model assumes.
func (c *Cluster) Run(rounds int) (RunResult, error) {
	return c.RunCtx(context.Background(), rounds)
}

// RunCtx is Run under a context: the round barrier doubles as a cancellation
// point, so a canceled training run stops after a whole round — every
// worker's gradients for that round fully pushed, none of the next round
// started — leaving server parameters in a consistent state.
func (c *Cluster) RunCtx(ctx context.Context, rounds int) (RunResult, error) {
	n := len(c.workers)
	res := RunResult{Rounds: rounds}
	start := time.Now()
	losses := make([]float64, n)
	stale := make([]int64, n)
	errs := make([]error, n)
	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			res.Rounds = r
			res.Elapsed = time.Since(start)
			return res, core.CanceledErr(ctx)
		}
		var wg sync.WaitGroup
		for wi, w := range c.workers {
			wg.Add(1)
			go func(wi int, w *Worker) {
				defer wg.Done()
				losses[wi], stale[wi], errs[wi] = w.Step(r*n + wi)
			}(wi, w)
		}
		wg.Wait()
		mean := 0.0
		for wi := 0; wi < n; wi++ {
			if errs[wi] != nil {
				return res, fmt.Errorf("ps: round %d worker %d: %w", r, wi, errs[wi])
			}
			mean += losses[wi]
			res.Stale += stale[wi]
		}
		res.Losses = append(res.Losses, mean/float64(n))
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AsyncResult summarizes one free-running training run.
type AsyncResult struct {
	// StepsPerWorker is how many local steps each worker ran.
	StepsPerWorker int
	// WorkerLosses is each worker's per-step training-loss trajectory.
	WorkerLosses [][]float64
	// Stale counts gradients the server rejected as stale (dropped, then
	// recovered by backoff + re-pull).
	Stale int64
	// Backoffs counts the backoff sleeps workers took after stale steps.
	Backoffs int64
	// Elapsed is wall-clock time for the run.
	Elapsed time.Duration
}

// TailMean smooths single-batch loss noise: the mean of the last few (four)
// values of a loss trajectory. Every FinalLoss uses it, so "final loss"
// means the same thing everywhere it is compared.
func TailMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tail := len(xs) - 4
	if tail < 0 {
		tail = 0
	}
	s := 0.0
	for _, x := range xs[tail:] {
		s += x
	}
	return s / float64(len(xs)-tail)
}

// FinalLoss returns the mean over workers of each worker's final-stretch
// loss (TailMean of its trajectory).
func (r AsyncResult) FinalLoss() float64 {
	sum, n := 0.0, 0
	for _, ls := range r.WorkerLosses {
		if len(ls) == 0 {
			continue
		}
		sum += TailMean(ls)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunAsync trains free-running: every worker loops on its own goroutine —
// pull fresh shards, run one local step, stream gradients — with NO round
// barrier; the only synchronization is the shard-side step clock enforcing
// the staleness bound (a laggard's pushes get ErrStale, and the worker backs
// off and re-pulls rather than failing). Worker w covers global batch
// indices s*N+w, the same data a barriered run covers, just in free-running
// order. Cancellation stops each worker between its local steps.
func (c *Cluster) RunAsync(ctx context.Context, stepsPerWorker int) (AsyncResult, error) {
	n := len(c.workers)
	res := AsyncResult{StepsPerWorker: stepsPerWorker, WorkerLosses: make([][]float64, n)}
	start := time.Now()
	before := int64(0)
	for _, w := range c.workers {
		before += w.Stats().Backoffs
	}
	stales := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for wi, w := range c.workers {
		wg.Add(1)
		go func(wi int, w *Worker) {
			defer wg.Done()
			res.WorkerLosses[wi], stales[wi], errs[wi] = w.RunFree(ctx, stepsPerWorker,
				func(s int) (float64, error) { return w.step(s*n + wi) })
		}(wi, w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	// Finish the accounting before error checks, so a failed run still
	// reports the stale/backoff counts it accumulated.
	for wi := 0; wi < n; wi++ {
		res.Stale += stales[wi]
	}
	for _, w := range c.workers {
		res.Backoffs += w.Stats().Backoffs
	}
	res.Backoffs -= before
	for wi := 0; wi < n; wi++ {
		if errs[wi] != nil {
			return res, fmt.Errorf("ps: async worker %d: %w", wi, errs[wi])
		}
	}
	return res, nil
}

// WorkerChurn schedules one worker's silent death and rejoin inside a churn
// run: after AtFrac of its local steps, the worker stops stepping AND
// heartbeating (as a crashed process would — no goodbye), stays dead for
// Down, then re-registers and runs its remaining steps. Down must exceed the
// server's lease TTL or the death is invisible to membership.
type WorkerChurn struct {
	Worker int
	AtFrac float64
	Down   time.Duration
}

// ShardChurn schedules one shard's death and failover: After the run starts
// (wall clock — shard death stalls every worker's progress, so step-count
// triggers would deadlock), the shard is killed; Down later a successor
// restores from the latest snapshot. The retry policy's total backoff
// capacity (Budget × Max) must comfortably exceed Down, or workers exhaust
// their budgets mid-outage and the run fails.
type ShardChurn struct {
	Shard int
	After time.Duration
	Down  time.Duration
}

// ChurnPlan is the kill schedule for RunAsyncChurn.
type ChurnPlan struct {
	Workers []WorkerChurn
	Shards  []ShardChurn
}

// ChurnResult extends AsyncResult with the fault ledger of a churn run.
type ChurnResult struct {
	AsyncResult
	// WorkerKills / WorkerRejoins count scheduled worker deaths and their
	// successful re-registrations.
	WorkerKills   int   `json:"worker_kills"`
	WorkerRejoins int   `json:"worker_rejoins"`
	ShardKills    int   `json:"shard_kills"`
	Failovers     int   `json:"shard_failovers"`
	LostUpdates   int64 `json:"lost_updates"`
	// Retries and LeaseExpiries are read from the cluster's transport and
	// server counters over the run.
	Retries       int64 `json:"retries"`
	LeaseExpiries int64 `json:"lease_expiries"`
	// Injected tallies injected faults by kind (nil without a FaultPlan).
	Injected map[string]int64 `json:"injected,omitempty"`
}

// RunAsyncChurn is RunAsync under a kill schedule: workers free-run with
// lease-based elastic data coverage while the plan kills and revives workers
// and shards mid-run. Each worker derives its global batch index from its
// live assignment (index = step*Live + Slot), so whenever membership
// changes, the survivors' coverage closes over the dead worker's slice —
// global batch coverage is preserved, not frozen at the initial membership.
// Requires an in-process server (NewCluster) and cfg.Retry; cfg.LeaseTTL
// should be well under every WorkerChurn.Down.
func (c *Cluster) RunAsyncChurn(ctx context.Context, stepsPerWorker int, plan ChurnPlan) (ChurnResult, error) {
	if c.server == nil {
		return ChurnResult{}, fmt.Errorf("ps: RunAsyncChurn needs an in-process server (NewCluster)")
	}
	if c.retry == nil {
		return ChurnResult{}, fmt.Errorf("ps: RunAsyncChurn needs ClusterConfig.Retry (a dead shard fails unretried pushes)")
	}
	n := len(c.workers)
	res := ChurnResult{AsyncResult: AsyncResult{StepsPerWorker: stepsPerWorker, WorkerLosses: make([][]float64, n)}}
	statsBefore := c.server.Stats()
	retriesBefore := c.retry.Total()
	backoffsBefore := int64(0)
	for _, w := range c.workers {
		backoffsBefore += w.Stats().Backoffs
	}
	start := time.Now()

	killByWorker := make(map[int]WorkerChurn, len(plan.Workers))
	for _, k := range plan.Workers {
		killByWorker[k.Worker] = k
	}

	var lostUpdates, shardKills, failovers atomic.Int64
	var churnWG sync.WaitGroup
	for _, sc := range plan.Shards {
		churnWG.Add(1)
		go func(sc ShardChurn) {
			defer churnWG.Done()
			select {
			case <-time.After(sc.After):
			case <-ctx.Done():
				return
			}
			if err := c.server.KillShard(sc.Shard); err != nil {
				return
			}
			shardKills.Add(1)
			// Unconditional sleep + failover: even a canceled run must not
			// leave the shard dead, or every later use of the server fails.
			time.Sleep(sc.Down)
			if lost, err := c.server.FailoverShard(sc.Shard); err == nil {
				failovers.Add(1)
				lostUpdates.Add(lost)
			}
		}(sc)
	}

	var workerKills, workerRejoins atomic.Int64
	stales := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for wi, w := range c.workers {
		wg.Add(1)
		go func(wi int, w *Worker) {
			defer wg.Done()
			leaseCtx, cancelLease := context.WithCancel(ctx)
			defer func() { cancelLease() }()
			if _, err := w.Join(leaseCtx); err != nil {
				errs[wi] = err
				return
			}
			// Elastic data coverage: re-read the assignment every step, so
			// the index stream follows membership. done counts this worker's
			// completed local steps across segments.
			done := 0
			body := func(i int) (float64, error) {
				a, _ := w.Assignment()
				live := a.Live
				if live < 1 {
					live = n
				}
				return w.step((done+i)*live + a.Slot)
			}
			segment := func(steps int) ([]float64, int64, error) {
				losses, stale, err := w.RunFree(ctx, steps, body)
				done += len(losses)
				return losses, stale, err
			}
			kill, hasKill := killByWorker[wi]
			first := stepsPerWorker
			if hasKill {
				first = int(kill.AtFrac * float64(stepsPerWorker))
				if first < 1 {
					first = 1
				}
				if first > stepsPerWorker {
					first = stepsPerWorker
				}
			}
			losses, stale, err := segment(first)
			res.WorkerLosses[wi] = losses
			stales[wi] = stale
			if err != nil || !hasKill {
				errs[wi] = err
				return
			}
			// Silent death: heartbeats stop, the step loop stops, nothing is
			// deregistered. The server must notice via lease expiry.
			cancelLease()
			workerKills.Add(1)
			select {
			case <-time.After(kill.Down):
			case <-ctx.Done():
				return
			}
			leaseCtx2, cancelLease2 := context.WithCancel(ctx)
			defer cancelLease2()
			if _, err := w.Join(leaseCtx2); err != nil {
				errs[wi] = fmt.Errorf("ps: worker %d rejoin: %w", wi, err)
				return
			}
			workerRejoins.Add(1)
			losses, stale, err = segment(stepsPerWorker - first)
			res.WorkerLosses[wi] = append(res.WorkerLosses[wi], losses...)
			stales[wi] += stale
			errs[wi] = err
		}(wi, w)
	}
	wg.Wait()
	churnWG.Wait()
	res.Elapsed = time.Since(start)

	for wi := 0; wi < n; wi++ {
		res.Stale += stales[wi]
	}
	for _, w := range c.workers {
		res.Backoffs += w.Stats().Backoffs
	}
	res.Backoffs -= backoffsBefore
	res.WorkerKills = int(workerKills.Load())
	res.WorkerRejoins = int(workerRejoins.Load())
	res.ShardKills = int(shardKills.Load())
	res.Failovers = int(failovers.Load())
	res.LostUpdates = lostUpdates.Load()
	res.Retries = c.retry.Total() - retriesBefore
	res.LeaseExpiries = c.server.Stats().LeaseExpiries - statsBefore.LeaseExpiries
	if c.faults != nil {
		res.Injected = c.faults.Injected()
	}
	for wi := 0; wi < n; wi++ {
		if errs[wi] != nil {
			return res, fmt.Errorf("ps: churn worker %d: %w", wi, errs[wi])
		}
	}
	return res, nil
}
