package ps

import (
	"repro/internal/obs"
)

// Parameter-server metric help strings.
const (
	helpPulls     = "Parameter pulls, by result (fresh snapshot vs version-matched cache hit)."
	helpPushes    = "Gradient pushes applied."
	helpStale     = "Gradient pushes rejected by the staleness bound."
	helpPullLat   = "Server-side time to serve one parameter pull."
	helpPushLat   = "Server-side time to apply one gradient push."
	helpBytes     = "Parameter/gradient payload bytes moved, by direction."
	helpStaleness = "Observed worker-step lag behind the freshest shard clock, per push."
	helpDupDrops  = "Gradient pushes dropped as duplicates by the worker-step dedup ledger."
	helpExpiries  = "Worker leases expired for missed heartbeats."
	helpRebal     = "Coverage rebalances triggered by membership changes."
	helpFailovers = "Shard failovers completed from a snapshot."
	helpSnaps     = "Shard snapshots taken, by result."
	helpRetries   = "Client RPC retries after transient errors, by RPC."
	helpFaults    = "Faults injected by the fault-injection transport, by kind."
)

// metrics is the server's instrument set, resolved once in its registry.
// The former ad-hoc atomics (pulls, pushes, stale drops) live only here;
// Stats reads the counters back.
type metrics struct {
	pullsFresh  *obs.Counter
	pullsCached *obs.Counter
	pushes      *obs.Counter
	staleDrops  *obs.Counter

	pullLat   *obs.Histogram
	pushLat   *obs.Histogram
	bytesPull *obs.Counter
	bytesPush *obs.Counter
	staleness *obs.Histogram

	dupDrops      *obs.Counter
	leaseExpiries *obs.Counter
	rebalances    *obs.Counter
	failovers     *obs.Counter
	snapshots     *obs.Counter
	snapErrors    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		pullsFresh:  reg.Counter("janus_ps_pulls_total", helpPulls, "result", "fresh"),
		pullsCached: reg.Counter("janus_ps_pulls_total", helpPulls, "result", "cached"),
		pushes:      reg.Counter("janus_ps_pushes_total", helpPushes),
		staleDrops:  reg.Counter("janus_ps_stale_drops_total", helpStale),
		pullLat:     reg.Histogram("janus_ps_pull_seconds", helpPullLat, obs.DefBuckets),
		pushLat:     reg.Histogram("janus_ps_push_seconds", helpPushLat, obs.DefBuckets),
		bytesPull:   reg.Counter("janus_ps_bytes_moved_total", helpBytes, "dir", "pull"),
		bytesPush:   reg.Counter("janus_ps_bytes_moved_total", helpBytes, "dir", "push"),
		staleness:   reg.Histogram("janus_ps_staleness_steps", helpStaleness, obs.StepBuckets),

		dupDrops:      reg.Counter("janus_ps_dup_drops_total", helpDupDrops),
		leaseExpiries: reg.Counter("janus_ps_lease_expiries_total", helpExpiries),
		rebalances:    reg.Counter("janus_ps_rebalances_total", helpRebal),
		failovers:     reg.Counter("janus_ps_shard_failovers_total", helpFailovers),
		snapshots:     reg.Counter("janus_ps_snapshots_total", helpSnaps, "result", "ok"),
		snapErrors:    reg.Counter("janus_ps_snapshots_total", helpSnaps, "result", "error"),
	}
	// Eagerly resolve the client-side families (retries, injected faults) on
	// the server registry too, so a scrape of a quiet janusps still advertises
	// every family TestRequiredMetricFamilies requires. In-process runs
	// share this registry, so the same series then carry live counts.
	for _, rpc := range retryRPCs {
		reg.Counter("janus_ps_retries_total", helpRetries, "rpc", rpc)
	}
	for _, kind := range faultKinds {
		reg.Counter("janus_ps_faults_injected_total", helpFaults, "kind", kind)
	}
	return m
}
