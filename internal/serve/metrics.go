package serve

import (
	"repro/internal/obs"
)

// Serving-side metric help strings.
const (
	helpRequests  = "Requests accepted by the pool (calls, inference, exec scripts)."
	helpRejected  = "Requests refused because the wait queue was full (HTTP 429)."
	helpTimeouts  = "Requests that gave up waiting for a worker (HTTP 503)."
	helpQueued    = "Requests currently waiting for a worker or a session lock."
	helpSessions  = "Client sessions registered over the pool's lifetime."
	helpAcqWait   = "Time a request waited to claim a worker or session token."
	helpBatchSize = "Requests coalesced into one batched execution."
	helpBatchWait = "Time a request spent pending in its batch group before a worker claimed it."
	helpFlushes   = "Batched executions, by how the worker's claim ended (full: capped at MaxBatch; drain: took every pending request)."
	helpBatched   = "Requests served through the batcher."

	helpBucketPadded = "Batched executions padded up to a power-of-two row bucket."
	helpBucketExact  = "Batched executions whose row count already sat on a bucket boundary."
	helpBucketRows   = "Synthetic padding rows appended by the shape-bucketing policy."
)

// metrics is the pool's serving-side instrument set, resolved once in the
// pool's shared registry (the same registry every worker engine writes
// its own counters into, so one exposition covers the whole process).
// These counters replace the pool's former ad-hoc atomics: every count is
// recorded exactly once, and Stats() is a view over the registry.
type metrics struct {
	reg *obs.Registry

	requests *obs.Counter
	rejected *obs.Counter
	timedOut *obs.Counter

	claimWait *obs.Histogram

	batchSize  *obs.Histogram
	batchWait  *obs.Histogram
	flushFull  *obs.Counter
	flushDrain *obs.Counter
	batched    *obs.Counter

	// Shape-bucketing instruments (janus_bucket_*), registered eagerly so
	// the family is present in a fresh boot's exposition — the CI cold-start
	// gate checks family presence before any traffic arrives.
	bucketPadded *obs.Counter
	bucketExact  *obs.Counter
	bucketRows   *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:      reg,
		requests: reg.Counter("janus_serve_requests_total", helpRequests),
		rejected: reg.Counter("janus_serve_rejected_total", helpRejected),
		timedOut: reg.Counter("janus_serve_timeouts_total", helpTimeouts),
		claimWait: reg.Histogram("janus_serve_acquire_wait_seconds", helpAcqWait,
			obs.DefBuckets),
		batchSize: reg.Histogram("janus_serve_batch_size", helpBatchSize,
			obs.SizeBuckets),
		batchWait: reg.Histogram("janus_serve_batch_wait_seconds", helpBatchWait,
			obs.DefBuckets),
		flushFull:  reg.Counter("janus_serve_batch_flushes_total", helpFlushes, "reason", "full"),
		flushDrain: reg.Counter("janus_serve_batch_flushes_total", helpFlushes, "reason", "drain"),
		batched:    reg.Counter("janus_serve_batched_requests_total", helpBatched),

		bucketPadded: reg.Counter("janus_bucket_padded_batches_total", helpBucketPadded),
		bucketExact:  reg.Counter("janus_bucket_exact_batches_total", helpBucketExact),
		bucketRows:   reg.Counter("janus_bucket_pad_rows_total", helpBucketRows),
	}
}

// flushes sums both flush-reason series (the Stats Batches field).
func (m *metrics) flushes() int64 {
	return m.flushFull.Value() + m.flushDrain.Value()
}
