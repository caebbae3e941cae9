package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// batcher coalesces concurrent calls with the same signature into one
// batched execution. The signature is the full named-feed set — function
// name plus every feed's name and per-item shape (everything after the
// leading batch axis). A request joins its signature's pending group, stays
// there for gather, and then waits for a pool worker like every other
// request. Whichever waiter is handed a worker claims up to maxBatch pending
// requests of its group — what arrived during its gather plus everything that
// queued while the pool was busy — runs them as one execution and delivers
// each caller its rows. There is one dispatch rule and no per-group timer: a
// lone request on an idle pool runs as a batch of one, gather after it
// arrived, and batches grow with load, not with a clock. Results are split
// back row-for-row per output, so batched execution returns exactly what
// per-request execution would (the model function must be batch-dim
// parallel, as DL inference functions are).
type batcher struct {
	pool     *Pool
	maxBatch int

	mu sync.Mutex
	// groups holds each signature's pending (not yet claimed) requests,
	// oldest first.
	groups map[string][]*inferReq
}

// feed is one named input tensor. Shared feeds are weight-like inputs
// (lookup tables, projection matrices passed as arguments) that every
// request in a batch reads whole: they are never stacked along the batch
// axis, never padded, and never force a batch-dim split — requests batch
// together as long as their shared feeds hold identical bytes (enforced by
// a content fingerprint in the group key).
type feed struct {
	name   string
	t      *tensor.Tensor
	shared bool
}

type inferReq struct {
	ctx   context.Context
	feeds []feed
	rows  int
	// enq stamps submission time so the claim can record how long the
	// request sat in its group (janus_serve_batch_wait_seconds).
	enq time.Time
	// done is closed once outs/err are set, by whichever request's worker
	// ran the batch this request was claimed into.
	done chan struct{}
	outs []*tensor.Tensor
	err  error
}

// gather is how long a request stays in its group before it asks for a
// worker: the one fixed pause of the request path, a constant rather than an
// option. It keeps a closed loop of clients paced by the clock instead of by
// the processor, which is what lets the repository's benchmark repeat
// serve-call to within its bound (DESIGN.md §6 has the measurements with and
// without it). On an idle Linux processor the Go runtime rounds any shorter
// sleep up to 1 ms, so a smaller value would not buy a shorter wait.
const gather = time.Millisecond

func newBatcher(p *Pool, maxBatch int) *batcher {
	return &batcher{pool: p, maxBatch: maxBatch, groups: make(map[string][]*inferReq)}
}

// groupKey buckets requests that can share one execution: same function,
// same feed names, same per-item shapes (everything after the batch axis).
// Function and feed names are length-prefixed so client-chosen names
// containing the separator characters cannot forge a collision between
// different signatures (execute assumes every request in a group has the
// same feed list).
func groupKey(fn string, feeds []feed) string {
	b := make([]byte, 0, 128)
	b = strconv.AppendInt(b, int64(len(fn)), 10)
	b = append(b, ':')
	b = append(b, fn...)
	for _, f := range feeds {
		// Shared feeds batch across requests only when identical: the key
		// carries the full shape plus a content fingerprint, so two requests
		// passing different weights land in different groups (and each
		// group's batch can pass the tensor through whole).
		dims := f.t.Shape()
		if f.shared {
			b = append(b, "|s"...)
		} else {
			b = append(b, "|b"...)
			dims = dims[1:]
		}
		b = strconv.AppendInt(b, int64(len(f.name)), 10)
		b = append(b, ':')
		b = append(b, f.name...)
		b = append(b, '=')
		for _, d := range dims {
			b = strconv.AppendInt(b, int64(d), 10)
			b = append(b, ',')
		}
		if f.shared {
			b = append(b, '#')
			b = strconv.AppendUint(b, fingerprint(f.t), 16)
		}
	}
	return string(b)
}

// fingerprint hashes a tensor's exact bit content (FNV-1a over the
// little-endian IEEE-754 bit patterns).
func fingerprint(t *tensor.Tensor) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, f := range t.Data() {
		bits := math.Float64bits(f)
		for i := 0; i < 64; i += 8 {
			h ^= (bits >> i) & 0xff
			h *= prime64
		}
	}
	return h
}

// validateFeeds checks the batching contract up front, so shape mistakes
// fail with a clear client error instead of a recovered kernel panic deep in
// a batched execution: every feed must carry a leading batch dimension
// (rank >= 1) with at least one row, and all feeds of one request must agree
// on the batch size.
func validateFeeds(fn string, feeds []feed) (rows int, err error) {
	if len(feeds) == 0 {
		return 0, fmt.Errorf("serve: %s: at least one feed is required", fn)
	}
	rows = -1
	var first string
	for _, f := range feeds {
		if f.t == nil {
			return 0, fmt.Errorf("serve: %s: feed %q is nil", fn, f.name)
		}
		if f.shared {
			// Shared (broadcast) feeds carry no batch dimension contract.
			continue
		}
		if f.t.Rank() < 1 {
			return 0, fmt.Errorf("serve: %s: feed %q is a scalar — every batched feed needs a leading batch dimension (shape [1, ...] for a single example; mark weight-like inputs shared)", fn, f.name)
		}
		if f.t.Dim(0) == 0 {
			return 0, fmt.Errorf("serve: %s: feed %q has zero rows — a batched feed needs at least one row", fn, f.name)
		}
		if rows < 0 {
			rows, first = f.t.Dim(0), f.name
		} else if f.t.Dim(0) != rows {
			return 0, fmt.Errorf("serve: %s: feeds disagree on the batch dimension (%q has %d rows, %q has %d)",
				fn, first, rows, f.name, f.t.Dim(0))
		}
	}
	if rows < 0 {
		return 0, fmt.Errorf("serve: %s: every feed is marked shared — at least one batched feed is required (use Call for unbatched invocation)", fn)
	}
	return rows, nil
}

// submit queues one request behind its signature and blocks until a batch
// holding it has executed. Feeds must already be in a deterministic order
// (sorted by name; the pool's entry points do this). After gather the request
// waits for a worker under the pool's one admission discipline (admitWait):
// it may be handed a worker and run its group's batch itself, or find its
// result delivered by a request that got a worker first. A request that fails
// admission — queue full, acquire timeout, ctx done — leaves its group, so
// it neither holds a queue slot nor joins a later batch; a ctx that expires
// after the request was claimed returns ErrCanceled at once and the batch's
// result for it is discarded.
func (b *batcher) submit(ctx context.Context, fn string, feeds []feed) ([]*tensor.Tensor, error) {
	rows, err := validateFeeds(fn, feeds)
	if err != nil {
		return nil, err
	}
	req := &inferReq{ctx: ctx, feeds: feeds, rows: rows, enq: time.Now(), done: make(chan struct{})}
	key := groupKey(fn, feeds)
	b.mu.Lock()
	b.groups[key] = append(b.groups[key], req)
	b.mu.Unlock()
	linger := time.NewTimer(gather)
	select {
	case <-linger.C:
	case <-req.done:
		linger.Stop()
		return req.outs, req.err
	}
	for {
		e, err := admitWait(b.pool, ctx, b.pool.idle, req.done)
		if err != nil {
			if b.withdraw(key, req) {
				return nil, err
			}
			// Already claimed: the request is executing, so the admission
			// error no longer describes it. Only the caller's own ctx still
			// ends the wait.
			select {
			case <-req.done:
				return req.outs, req.err
			case <-ctx.Done():
				return nil, core.CanceledErr(ctx)
			}
		}
		if e == nil {
			return req.outs, req.err
		}
		batch := b.claim(key)
		if len(batch) == 0 {
			// Another worker emptied the group between the handoff and the
			// claim; req.done is closed or about to be.
			b.pool.release(e)
			continue
		}
		b.run(e, fn, batch)
		// Past maxBatch the claim is a prefix of the group that may stop
		// short of req: go round again.
	}
}

// claim takes up to maxBatch of the oldest pending requests of one group.
func (b *batcher) claim(key string) []*inferReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	pending := b.groups[key]
	n := min(len(pending), b.maxBatch)
	b.setPending(key, pending[n:])
	return pending[:n:n]
}

// withdraw removes a still-pending request from its group and reports
// whether it was there; false means a batch has claimed it.
func (b *batcher) withdraw(key string, req *inferReq) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	pending := b.groups[key]
	i := slices.Index(pending, req)
	if i < 0 {
		return false
	}
	b.setPending(key, slices.Delete(pending, i, i+1))
	return true
}

// setPending stores what is left of a group, dropping the entry once it is
// empty so the map holds only signatures with requests waiting. Callers hold
// b.mu.
func (b *batcher) setPending(key string, pending []*inferReq) {
	if len(pending) == 0 {
		delete(b.groups, key)
	} else {
		b.groups[key] = pending
	}
}

// run executes one claimed batch on e, delivers every request its result
// and returns e to the pool. Assembly, call and scatter all run under guard,
// so nothing a request carries can panic the process. Results go out before
// the worker does: batch-mates stop waiting for a worker the moment their
// rows arrive, so the released worker is handed to a request that still
// needs one.
func (b *batcher) run(e *core.Engine, fn string, batch []*inferReq) {
	m := b.pool.metrics
	if len(batch) == b.maxBatch {
		m.flushFull.Inc()
	} else {
		m.flushDrain.Inc()
	}
	m.batchSize.Observe(float64(len(batch)))
	m.batched.Add(int64(len(batch)))
	for _, r := range batch {
		m.batchWait.Since(r.enq)
	}
	outs, err := guard(func() ([][]*tensor.Tensor, error) { return b.execute(e, fn, batch) })
	for i, r := range batch {
		if err != nil {
			r.err = err
		} else {
			r.outs = outs[i]
		}
		close(r.done)
	}
	b.pool.release(e)
}

// execute stacks the batch's feeds along the batch axis, calls fn once, and
// returns each request's rows of every output.
func (b *batcher) execute(e *core.Engine, fn string, batch []*inferReq) ([][]*tensor.Tensor, error) {
	m := b.pool.metrics
	rows := 0
	for _, r := range batch {
		rows += r.rows
	}
	// Concat each batched feed across requests; shared feeds pass through
	// whole (the group key guarantees every request brought identical bytes).
	batched := make([]feed, len(batch[0].feeds))
	for j := range batched {
		proto := batch[0].feeds[j]
		if proto.shared {
			batched[j] = proto
			continue
		}
		parts := make([]*tensor.Tensor, len(batch))
		for i, r := range batch {
			parts[i] = r.feeds[j].t
		}
		t := parts[0]
		if len(parts) > 1 {
			t = tensor.Concat(0, parts...)
		}
		batched[j] = feed{name: proto.name, t: t}
	}
	// Shape bucketing: round the execution up to the next power-of-two row
	// count by repeating the last real row, so near-miss batch sizes share
	// one compiled graph instead of converting their own. Synthetic rows
	// are computed and discarded — only real rows scatter back.
	pad := 0
	if b.pool.cfg.BucketBatch {
		if bucket := nextPow2(rows); bucket > rows && bucket <= b.pool.cfg.MaxBucket {
			pad = bucket - rows
			for j := range batched {
				if !batched[j].shared {
					batched[j].t = padRows(batched[j].t, pad)
				}
			}
			m.bucketPadded.Inc()
			m.bucketRows.Add(int64(pad))
		} else {
			m.bucketExact.Inc()
		}
	}
	// A single-request batch can honor its caller's context end to end;
	// a shared batch must not be killed by one member's cancellation.
	callCtx := context.Background()
	if len(batch) == 1 {
		callCtx = batch[0].ctx
	}
	feeds := make(map[string]minipy.Value, len(batched))
	for _, f := range batched {
		feeds[f.name] = minipy.NewTensor(f.t)
	}
	out, err := e.CallNamed(callCtx, fn, feeds)
	if err != nil {
		return nil, fmt.Errorf("%w (calling %s with batched feeds %s)", err, fn, describeFeeds(batched))
	}
	outs, err := minipy.Tensors(out)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %v", fn, err)
	}
	if pad > 0 {
		// Drop the synthetic rows. Every output must preserve the (padded)
		// batch dimension: a shared scalar (e.g. a mean loss) would have
		// aggregated over rows that no client sent, so returning it would be
		// silently wrong — reject instead, pointing at the knob.
		for i, t := range outs {
			if t.Rank() < 1 || t.Dim(0) != rows+pad {
				return nil, fmt.Errorf("serve: %s output %d has shape %v, which does not preserve the batch dimension — shape bucketing pads the batch with synthetic rows, so %s needs batch-preserving outputs (disable BucketBatch to serve it)",
					fn, i, t.Shape(), fn)
			}
			outs[i] = tensor.SliceAxis(t, 0, 0, rows)
		}
	}
	if len(batch) == 1 {
		return [][]*tensor.Tensor{outs}, nil
	}
	// Per-output scatter rule: outputs that preserve the batch dimension
	// are sliced back row-for-row; rank-0 scalars (a merged train step's
	// loss over the concatenated batch) are shared — every request gets the
	// same value. Anything else is ambiguous and fails the whole batch.
	for i, t := range outs {
		if t.Rank() >= 1 && t.Dim(0) != rows {
			return nil, fmt.Errorf("serve: %s output %d has shape %v, which neither preserves the batch dimension (%d rows in) nor is a shared scalar",
				fn, i, t.Shape(), rows)
		}
	}
	scattered := make([][]*tensor.Tensor, len(batch))
	off := 0
	for k, r := range batch {
		slice := make([]*tensor.Tensor, len(outs))
		for i, t := range outs {
			if t.Rank() < 1 {
				slice[i] = t
				continue
			}
			slice[i] = tensor.SliceAxis(t, 0, off, off+r.rows)
		}
		scattered[k] = slice
		off += r.rows
	}
	return scattered, nil
}

// padRows appends pad copies of t's last row along axis 0. Repeating a real
// row (rather than zero-filling) keeps the synthetic rows inside the data
// distribution, so padded execution can never trip a value-dependent
// assertion (a speculation deopt) that the real rows would not have.
func padRows(t *tensor.Tensor, pad int) *tensor.Tensor {
	last := tensor.SliceAxis(t, 0, t.Dim(0)-1, t.Dim(0))
	parts := make([]*tensor.Tensor, 1, pad+1)
	parts[0] = t
	for i := 0; i < pad; i++ {
		parts = append(parts, last)
	}
	return tensor.Concat(0, parts...)
}

// describeFeeds renders a feed list as name:shape pairs for error messages.
func describeFeeds(feeds []feed) string {
	parts := make([]string, len(feeds))
	for i, f := range feeds {
		parts[i] = fmt.Sprintf("%s:%v", f.name, f.t.Shape())
	}
	return strings.Join(parts, ", ")
}

// sortedFeeds converts a name->tensor map into the batcher's canonical
// (name-sorted) feed list, marking the names in shared as broadcast feeds.
func sortedFeeds(m map[string]*tensor.Tensor, shared map[string]bool) []feed {
	feeds := make([]feed, 0, len(m))
	for name, t := range m {
		feeds = append(feeds, feed{name: name, t: t, shared: shared[name]})
	}
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].name < feeds[j].name })
	return feeds
}
