package ps

import (
	"context"
	"testing"
	"time"
)

// TestClusterAsyncChurn is the CI churn smoke test: a 4-worker free-running
// cluster keeps converging while the plan kills and revives a worker (silent
// death → lease expiry → coverage redistribution → rejoin) and a shard
// (kill → snapshot failover), with light injected wire faults on top. Run
// under -race in CI.
func TestClusterAsyncChurn(t *testing.T) {
	const workers, batch = 4, 8
	steps := 40
	if testing.Short() {
		steps = 24
	}
	cfg := workerEngineConfig()
	ccfg := ClusterConfig{
		Workers: workers, Shards: workers, LR: cfg.LR * workers,
		Staleness: 8, Engine: cfg, Build: mlpBuild(42, batch),
	}
	// The fault-free anchor: the same cluster, staleness bound and step
	// budget, free-running under runFreeInterleaved's fixed schedule.
	anchor, err := NewCluster(ccfg)
	if err != nil {
		t.Fatalf("anchor cluster: %v", err)
	}
	runFreeInterleaved(t, anchor, steps)

	ccfg.LeaseTTL = 40 * time.Millisecond
	ccfg.SnapshotEvery = 4
	ccfg.Retry = &RetryPolicy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Budget: 20}
	ccfg.Faults = &FaultPlan{Seed: 11, LostReply: 0.02, Dup: 0.02, Delay: 0.03, MaxDelay: 2 * time.Millisecond}
	cluster, err := NewCluster(ccfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	plan := ChurnPlan{
		Workers: []WorkerChurn{{Worker: 1, AtFrac: 0.3, Down: 150 * time.Millisecond}},
		Shards:  []ShardChurn{{Shard: 1, After: 100 * time.Millisecond, Down: 50 * time.Millisecond}},
	}
	res, err := cluster.RunAsyncChurn(context.Background(), steps, plan)
	if err != nil {
		t.Fatalf("churn run: %v", err)
	}
	if res.WorkerKills != 1 || res.WorkerRejoins != 1 {
		t.Fatalf("worker churn = %d kills / %d rejoins, want 1/1", res.WorkerKills, res.WorkerRejoins)
	}
	if res.ShardKills != 1 || res.Failovers != 1 {
		t.Fatalf("shard churn = %d kills / %d failovers, want 1/1", res.ShardKills, res.Failovers)
	}
	if res.LeaseExpiries < 1 {
		t.Fatalf("lease expiries = %d, want >=1 (the dead worker must expire)", res.LeaseExpiries)
	}
	// Every worker completed its full step count despite the churn.
	for wi, losses := range res.WorkerLosses {
		if len(losses) != steps {
			t.Fatalf("worker %d ran %d/%d steps", wi, len(losses), steps)
		}
	}
	first := res.WorkerLosses[0][0]
	final := res.FinalLoss()
	if final >= first*0.8 {
		t.Fatalf("no convergence under churn: first %.4f, final %.4f", first, final)
	}
	st := cluster.Server().Stats()
	if st.DownShards != 0 {
		t.Fatalf("run left %d shards down", st.DownShards)
	}
	// Convergence under churn: the parameters the churned run ends on score
	// within 15% of the anchor's. Both are scored by the first barriered
	// round's loss (batches 0..3 on freshly pulled parameters), not by the
	// trailing training losses, which depend on which batches the elastic
	// coverage dealt each worker and on how far the survivors ran ahead of
	// the dead one. The absolute epsilon is TestAsyncConvergesNearBarriered's:
	// where the shard kill lands in the run follows the host's timers.
	score := func(c *Cluster) float64 {
		t.Helper()
		res, err := c.Run(1)
		if err != nil {
			t.Fatalf("scoring round: %v", err)
		}
		return res.Losses[0]
	}
	churned, free := score(cluster), score(anchor)
	t.Logf("final-parameter loss: churn %.4f, fault-free anchor %.4f (%.2fx)", churned, free, churned/free)
	if churned > free*1.15+0.02 {
		t.Fatalf("churn derailed convergence: loss %.4f exceeds 1.15x the fault-free anchor's %.4f", churned, free)
	}
}
