// Package ps is a real sharded parameter-server runtime for distributed
// data-parallel training — the subsystem that turns internal/dist's
// analytical Figure-8 model into a measurable claim.
//
// A Server partitions model parameters across K logical shards (by variable
// name hash, vars.ShardOf) and applies gradient updates with the same
// autodiff optimizers the single-engine paths use. Workers (see Worker) wrap
// a core.Engine replica each: every step they pull fresh parameters per
// shard, run one training step on their slice of the data, and push each
// parameter's gradient the moment backprop finalizes it — per tensor, while
// backprop is still descending through earlier layers — so gradient exchange
// overlaps compute exactly as the paper's §6.3.2 describes for graph
// engines.
//
// Consistency follows the stale-synchronous model: every push carries the
// worker's step clock, and the server rejects pushes whose clock lags the
// freshest observed step by more than the configured staleness bound
// (ErrStale); the worker drops that gradient and re-synchronizes on its next
// pull. Staleness 0 with a round-barrier harness (Cluster) is effectively
// synchronous data-parallel SGD with gradient averaging.
package ps

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/autodiff"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// ErrStale reports a gradient push rejected by the staleness bound; the
// worker should drop the gradient and re-pull before its next step.
var ErrStale = errors.New("ps: push rejected: worker step exceeds the staleness bound")

// StaleErr wraps a server-reported message with the ErrStale sentinel; the
// HTTP client maps 409 responses through it so errors.Is(err, ErrStale)
// round-trips the wire.
func StaleErr(msg string) error { return fmt.Errorf("%w: %s", ErrStale, msg) }

// ErrUnavailable reports a TRANSIENT transport failure: a dead shard awaiting
// failover, an unreachable server, or an injected fault. It is the retry
// class — RetryTransport retries exactly the errors carrying this sentinel,
// and surfaces it unchanged when the retry budget runs out, so callers can
// errors.Is-classify budget exhaustion. On the wire it is HTTP 503.
var ErrUnavailable = errors.New("ps: server unavailable")

// UnavailableErr wraps msg with the ErrUnavailable sentinel (the 503 inverse
// mapping, like StaleErr for 409).
func UnavailableErr(msg string) error { return fmt.Errorf("%w: %s", ErrUnavailable, msg) }

// ErrLeaseExpired reports a heartbeat for a lease the server no longer
// honors: it expired (the worker went silent past the TTL) or was superseded
// by a newer registration for the same worker ID. The worker must Register
// again; its coverage was already redistributed. On the wire it is HTTP 410.
var ErrLeaseExpired = errors.New("ps: worker lease expired")

// LeaseExpiredErr wraps msg with the ErrLeaseExpired sentinel (the 410
// inverse mapping).
func LeaseExpiredErr(msg string) error { return fmt.Errorf("%w: %s", ErrLeaseExpired, msg) }

// Config tunes a parameter server.
type Config struct {
	// Shards is the number of logical parameter shards (default 1).
	Shards int
	// LR is the server-side SGD learning rate (default 0.1).
	LR float64
	// Workers is the number of data-parallel replicas pushing gradients.
	// Incoming gradients are scaled by 1/Workers, so one round of pushes
	// from every worker equals one SGD step over the aggregated global batch
	// — the gradient-averaging semantics of synchronous data-parallel
	// training (default 1).
	Workers int
	// Staleness bounds asynchrony, measured in worker steps: a push whose
	// step clock lags the freshest observed step on that shard by more than
	// Staleness is rejected with ErrStale. Negative disables the bound
	// (fully asynchronous); 0 forces lockstep (default 0, which the
	// round-barrier Cluster harness satisfies trivially).
	Staleness int
	// Optimizer names the server-side update rule: "sgd" (default),
	// "momentum", or "adam". Optimizer state (velocity, moments, per-tensor
	// step counts) lives on the shard, keyed by variable name, so workers
	// stay stateless and a streamed single-tensor push advances exactly that
	// tensor's state.
	Optimizer string
	// LeaseTTL is how long a registered worker may stay silent before its
	// lease expires and its data coverage is redistributed to the remaining
	// live workers (default 2s; tests and churn benches use much shorter).
	// Workers heartbeat at roughly TTL/3. Expiry is checked lazily on every
	// membership operation, so a cluster with no live traffic expires no one.
	LeaseTTL time.Duration
	// SnapshotEvery bounds failover loss: every SnapshotEvery applied pushes,
	// a shard serializes its parameters + optimizer state (reusing the graph
	// tensor wire format), and a failed-over shard restores from the latest
	// snapshot. At most SnapshotEvery updates per shard (plus in-flight ones)
	// are lost on a shard death. 0 defaults to 8; negative disables periodic
	// snapshots (failover then restores the initial post-InitVars state).
	SnapshotEvery int
	// Obs, when non-nil, is the registry the server resolves its metrics
	// in (cmd/janusps shares one with its HTTP exposition). Nil gives the
	// server a private registry.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.LR == 0 {
		c.LR = 0.1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 8
	}
	return c
}

// Transport is the wire abstraction between a Worker and the parameter
// server. The Server itself implements it (in-process transport for the
// Cluster harness and tests); Client implements it over HTTP+JSON against a
// cmd/janusps process.
type Transport interface {
	// NumShards reports the server's shard count, so client-side placement
	// (vars.ShardOf) agrees with the server.
	NumShards() (int, error)
	// Pull fetches shard's parameters. have is the version from the caller's
	// previous pull: when the shard hasn't changed since, the server returns
	// (nil, have, step, nil) and the caller keeps its copy. Pass -1 to force
	// a full fetch. step is the freshest worker step clock the shard has
	// observed — free-running workers fast-forward their own clock to it on
	// every pull, so a laggard that re-pulls after ErrStale re-enters the
	// staleness window instead of being locked out forever. ctx carries
	// cancellation and the active obs.Trace: the in-process transport
	// records its spans directly into the caller's trace, the HTTP
	// transport propagates it in the Janus-Trace header and grafts the
	// server's span tree back under the RPC span. A dead shard awaiting
	// failover returns ErrUnavailable.
	Pull(ctx context.Context, shard int, have int64) (params map[string]*tensor.Tensor, version, step int64, err error)
	// PushGrad applies one or more named gradients to shard. step is the
	// worker's step clock for the staleness check; worker identifies the
	// pushing replica, making retried pushes idempotent: (worker, step, name)
	// names one logical gradient, and the server applies each at most once —
	// a retry of a push whose response was lost is deduplicated, never
	// double-applied. Negative worker opts out of deduplication. Returns the
	// shard version after the update, ErrStale on a staleness rejection, or
	// ErrUnavailable on a dead shard.
	PushGrad(ctx context.Context, shard, worker int, step int64, grads map[string]*tensor.Tensor) (int64, error)
	// InitVars registers initial parameter values, set-if-absent. Every
	// worker calls it after building its replica; with a shared seed all
	// replicas propose identical values, so whichever lands first wins
	// without coordination.
	InitVars(ctx context.Context, vals map[string]*tensor.Tensor) error
	// Register announces worker as a live member and returns its lease:
	// a renewal token, the server's TTL, and the worker's data-coverage
	// assignment. Re-registering an already-live worker supersedes its
	// previous lease (the old token starts failing with ErrLeaseExpired).
	Register(ctx context.Context, worker int) (Lease, error)
	// Heartbeat renews worker's lease and returns the current assignment —
	// the cheap poll through which membership changes propagate to workers.
	// ErrLeaseExpired means the lease lapsed or was superseded: the worker
	// must Register again.
	Heartbeat(ctx context.Context, worker int, lease int64) (Assignment, error)
}

// Assignment is a worker's slice of the global data coverage: among Live
// currently-leased workers, this worker is index Slot (0-based, ordered by
// worker ID). A free-running elastic worker derives its global batch index
// as round*Live+Slot, so at any membership the live set covers disjoint
// slices of every batch range and a dead worker's slice is re-covered the
// moment the membership epoch moves. Epoch bumps on every join, leave, and
// expiry.
type Assignment struct {
	Slot  int   `json:"slot"`
	Live  int   `json:"live"`
	Epoch int64 `json:"epoch"`
}

// Lease is a successful registration: the renewal token Heartbeat needs, the
// server's lease TTL (heartbeat at ~TTL/3), and the initial assignment.
type Lease struct {
	ID  int64         `json:"lease"`
	TTL time.Duration `json:"-"`
	Assignment
}

// dedupKey names one (worker, variable) push stream. Worker step clocks are
// strictly increasing, so remembering the last applied step per stream is a
// complete duplicate filter: any push at or below it was already applied (a
// retry whose first attempt landed but whose response was lost) and must not
// be applied again.
type dedupKey struct {
	worker int
	name   string
}

// shard is one parameter partition: a vars.Store (copy-on-write updates, so
// pulled tensors are immutable and safe to hand out or serialize) plus its
// version and step clocks, all behind one mutex.
type shard struct {
	mu    sync.Mutex
	store *vars.Store
	opt   autodiff.Optimizer
	// version counts applied updates; pulls use it to skip unchanged fetches.
	version int64
	// maxStep is the freshest worker step clock observed on this shard.
	maxStep int64
	// down marks a killed shard: every Pull/PushGrad returns ErrUnavailable
	// until FailoverShard restores a successor from the latest snapshot.
	down bool
	// applied is the idempotency ledger: last applied step per (worker, var)
	// push stream. Memory is O(workers × variables), so no GC is needed.
	applied map[dedupKey]int64
	// lastSnap is the latest serialized shard snapshot (params + optimizer
	// state), refreshed after InitVars and every snapEvery applied pushes;
	// FailoverShard restores from it. sincePush counts pushes since.
	lastSnap    []byte
	snapVersion int64
	sincePush   int
	// killedVersion records version at KillShard time, so FailoverShard can
	// report how many applied updates the restore rolled back.
	killedVersion int64
}

// Stats is a point-in-time snapshot of server activity.
type Stats struct {
	Shards        int    `json:"shards"`
	Optimizer     string `json:"optimizer"`
	Vars          int    `json:"vars"`
	Params        int    `json:"params"`
	Pulls         int64  `json:"pulls"`
	PullsFresh    int64  `json:"pulls_fresh"`
	Pushes        int64  `json:"pushes"`
	StaleDrops    int64  `json:"stale_drops"`
	DupDrops      int64  `json:"dup_drops"`
	Version       int64  `json:"version"`
	MaxStep       int64  `json:"max_step"`
	LiveWorkers   int    `json:"live_workers"`
	LeaseExpiries int64  `json:"lease_expiries"`
	Rebalances    int64  `json:"rebalances"`
	Failovers     int64  `json:"shard_failovers"`
	DownShards    int    `json:"down_shards"`
}

// Server is the sharded parameter server. It is safe for concurrent use;
// workers on different shards never contend.
type Server struct {
	cfg    Config
	shards []*shard

	// members is the worker-lease table behind elastic membership.
	members *membership

	obs     *obs.Registry
	metrics *metrics
}

// NewServer builds an empty parameter server. Each shard gets its own
// optimizer instance from Config.Optimizer — variable names partition across
// shards, so per-name optimizer state never collides.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, obs: reg, metrics: newMetrics(reg)}
	s.members = newMembership(cfg.LeaseTTL, s.metrics)
	for i := 0; i < cfg.Shards; i++ {
		opt, err := autodiff.NewOptimizer(cfg.Optimizer, cfg.LR)
		if err != nil {
			return nil, fmt.Errorf("ps: %w", err)
		}
		s.shards = append(s.shards, &shard{
			store:   vars.NewStore(),
			opt:     opt,
			applied: make(map[dedupKey]int64),
		})
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.obs }

// NumShards implements Transport.
func (s *Server) NumShards() (int, error) { return s.cfg.Shards, nil }

func (s *Server) shardAt(i int) (*shard, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("ps: shard %d out of range (have %d)", i, len(s.shards))
	}
	return s.shards[i], nil
}

// Pull implements Transport.
func (s *Server) Pull(ctx context.Context, shardIdx int, have int64) (map[string]*tensor.Tensor, int64, int64, error) {
	sh, err := s.shardAt(shardIdx)
	if err != nil {
		return nil, 0, 0, err
	}
	sp := obs.StartSpan(ctx, "ps.pull")
	defer sp.End()
	t0 := time.Now()
	defer s.metrics.pullLat.Since(t0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		return nil, 0, 0, UnavailableErr(fmt.Sprintf("shard %d is down, awaiting failover", shardIdx))
	}
	if have >= 0 && sh.version == have {
		s.metrics.pullsCached.Inc()
		return nil, sh.version, sh.maxStep, nil
	}
	s.metrics.pullsFresh.Inc()
	// ShardSnapshot with k=1 returns every variable in this shard's store;
	// tensors are copy-on-write so the map is safe to release unlocked.
	snap := sh.store.ShardSnapshot(0, 1)
	s.metrics.bytesPull.Add(tensorBytes(snap))
	return snap, sh.version, sh.maxStep, nil
}

// tensorBytes sizes a named-tensor payload (8 bytes per float64 element).
func tensorBytes(m map[string]*tensor.Tensor) int64 {
	var n int64
	for _, t := range m {
		n += int64(len(t.Data())) * 8
	}
	return n
}

// PushGrad implements Transport. Unknown variables are an error: gradients
// can only follow a successful InitVars. A non-negative worker makes the
// push idempotent: each (worker, step, variable) is applied at most once,
// so a retried push whose first attempt landed (response lost on the wire)
// is acknowledged without re-applying.
func (s *Server) PushGrad(ctx context.Context, shardIdx, worker int, step int64, grads map[string]*tensor.Tensor) (int64, error) {
	sh, err := s.shardAt(shardIdx)
	if err != nil {
		return 0, err
	}
	sp := obs.StartSpan(ctx, "ps.push")
	defer sp.End()
	t0 := time.Now()
	defer s.metrics.pushLat.Since(t0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		return 0, UnavailableErr(fmt.Sprintf("shard %d is down, awaiting failover", shardIdx))
	}
	if lag := sh.maxStep - step; lag > 0 {
		s.metrics.staleness.Observe(float64(lag))
	} else {
		s.metrics.staleness.Observe(0)
	}
	if s.cfg.Staleness >= 0 && sh.maxStep-step > int64(s.cfg.Staleness) {
		s.metrics.staleDrops.Inc()
		return sh.version, fmt.Errorf("%w (step %d, freshest %d, bound %d)",
			ErrStale, step, sh.maxStep, s.cfg.Staleness)
	}
	scaled := make(map[string]*tensor.Tensor, len(grads))
	for name, g := range grads {
		if worker >= 0 {
			if last, ok := sh.applied[dedupKey{worker, name}]; ok && step <= last {
				// Duplicate: this logical push already applied (worker step
				// clocks only move forward). Acknowledge, don't re-apply.
				s.metrics.dupDrops.Inc()
				continue
			}
		}
		cur, ok := sh.store.Get(name)
		if !ok {
			return sh.version, fmt.Errorf("ps: push for unregistered variable %q (InitVars first)", name)
		}
		if !tensor.SameShape(cur, g) {
			return sh.version, fmt.Errorf("ps: gradient shape %v for variable %q of shape %v",
				g.Shape(), name, cur.Shape())
		}
		scaled[name] = tensor.MulScalar(g, 1/float64(s.cfg.Workers))
	}
	if len(scaled) == 0 {
		// Every gradient in the request was a duplicate.
		return sh.version, nil
	}
	osp := sp.Trace().StartSpanChild("opt_apply", sp.ID())
	sh.opt.Apply(sh.store, scaled)
	osp.End()
	if worker >= 0 {
		for name := range scaled {
			sh.applied[dedupKey{worker, name}] = step
		}
	}
	sh.version++
	if step > sh.maxStep {
		sh.maxStep = step
	}
	s.metrics.pushes.Inc()
	s.metrics.bytesPush.Add(tensorBytes(grads))
	sh.sincePush++
	if s.cfg.SnapshotEvery > 0 && sh.sincePush >= s.cfg.SnapshotEvery {
		s.snapshotLocked(shardIdx, sh)
	}
	return sh.version, nil
}

// InitVars implements Transport: set-if-absent registration of initial
// values, each routed to its shard by name hash. Every shard that gained a
// variable refreshes its failover snapshot, so a shard that dies before its
// first periodic snapshot still fails over to a state where all its
// variables exist (at their initial values).
func (s *Server) InitVars(ctx context.Context, vals map[string]*tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	touched := make(map[int]bool)
	for name, t := range vals {
		idx := vars.ShardOf(name, s.cfg.Shards)
		sh := s.shards[idx]
		t := t
		sh.mu.Lock()
		if sh.down {
			sh.mu.Unlock()
			return UnavailableErr(fmt.Sprintf("shard %d is down, awaiting failover", idx))
		}
		created := false
		sh.store.GetOrCreate(name, func() *tensor.Tensor { created = true; return t.Clone() })
		if created {
			sh.version++
			touched[idx] = true
		}
		sh.mu.Unlock()
	}
	for idx := range touched {
		sh := s.shards[idx]
		sh.mu.Lock()
		s.snapshotLocked(idx, sh)
		sh.mu.Unlock()
	}
	return nil
}

// Register implements Transport: lease-based membership (see membership).
func (s *Server) Register(ctx context.Context, worker int) (Lease, error) {
	if err := ctx.Err(); err != nil {
		return Lease{}, err
	}
	return s.members.register(worker), nil
}

// Heartbeat implements Transport.
func (s *Server) Heartbeat(ctx context.Context, worker int, lease int64) (Assignment, error) {
	if err := ctx.Err(); err != nil {
		return Assignment{}, err
	}
	return s.members.heartbeat(worker, lease)
}

// Stats snapshots server activity.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:        len(s.shards),
		Optimizer:     s.shards[0].opt.Name(),
		Pulls:         s.metrics.pullsFresh.Value() + s.metrics.pullsCached.Value(),
		PullsFresh:    s.metrics.pullsFresh.Value(),
		Pushes:        s.metrics.pushes.Value(),
		StaleDrops:    s.metrics.staleDrops.Value(),
		DupDrops:      s.metrics.dupDrops.Value(),
		LiveWorkers:   s.members.live(),
		LeaseExpiries: s.metrics.leaseExpiries.Value(),
		Rebalances:    s.metrics.rebalances.Value(),
		Failovers:     s.metrics.failovers.Value(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Vars += sh.store.Len()
		st.Params += sh.store.NumParams()
		st.Version += sh.version
		if sh.maxStep > st.MaxStep {
			st.MaxStep = sh.maxStep
		}
		if sh.down {
			st.DownShards++
		}
		sh.mu.Unlock()
	}
	return st
}
