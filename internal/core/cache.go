package core

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/profile"
)

// sigBucketed reports whether a signature pattern is shape-generalized:
// any wildcard dim ("?") means several concrete shapes match the entry.
func sigBucketed(pattern []string) bool {
	for _, tok := range pattern {
		if strings.Contains(tok, "?") {
			return true
		}
	}
	return false
}

// cacheKey identifies one optimized function in the graph cache: the AST id
// of its definition plus whether the cached graphs are training graphs
// (generated for optimize(), carrying gradient/update ops) or forward-only
// inference graphs. The same function can have both.
type cacheKey struct {
	fn    int
	infer bool
}

// GraphCache is the compiled-graph cache of the paper's Figure 2, extracted
// so that several Engines can share one cache: a serving pool creates N
// engines with NewEngineShared and a graph converted on behalf of one client
// is a cache hit for every other.
//
// The cache itself is guarded by a mutex; each per-function state carries its
// own lock (see funcState.mu) so profiling and generation for one function
// never block graph execution of another. Code that holds a funcState lock
// may acquire the cache lock (nested optimize() calls do), so nothing may
// sweep per-function locks while holding the cache lock — snapshot the
// function list first, then visit each function's lock on its own.
//
// A cache built with NewGraphCacheCap bounds the number of compiled graphs:
// when an insertion pushes the count over capacity, the least-recently-hit
// entry anywhere in the cache is evicted (LRU by hit time). Re-requesting an
// evicted signature is an ordinary cache miss: the engine reconverts from
// the function's retained profile.
type GraphCache struct {
	mu    sync.Mutex
	funcs map[cacheKey]*funcState

	// capacity bounds compiled entries across all functions; <= 0 is
	// unlimited.
	capacity int
	// clock is the logical LRU clock: bumped on every entry hit or insert.
	clock atomic.Int64
	// entryCount tracks compiled entries across all functions.
	entryCount atomic.Int64
	evictions  atomic.Int64
	// evicting serializes background capacity enforcement.
	evicting atomic.Bool
}

// NewGraphCache returns an empty, unbounded cache.
func NewGraphCache() *GraphCache { return NewGraphCacheCap(0) }

// NewGraphCacheCap returns an empty cache holding at most capacity compiled
// graphs (<= 0 means unlimited).
func NewGraphCacheCap(capacity int) *GraphCache {
	return &GraphCache{funcs: make(map[cacheKey]*funcState), capacity: capacity}
}

// Capacity returns the configured entry bound (0 = unlimited).
func (c *GraphCache) Capacity() int { return c.capacity }

// Evictions returns how many entries capacity enforcement has removed.
func (c *GraphCache) Evictions() int64 { return c.evictions.Load() }

// state returns (creating on first use) the per-function bookkeeping.
func (c *GraphCache) state(k cacheKey) *funcState {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.funcs[k]
	if !ok {
		fs = &funcState{key: k, prof: profile.New(), distrust: make(map[int]bool),
			sigIndex: make(map[uint64]*compiled)}
		c.funcs[k] = fs
	}
	return fs
}

// peek returns the per-function bookkeeping without creating it (nil
// when the function has never been stepped or called).
func (c *GraphCache) peek(k cacheKey) *funcState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.funcs[k]
}

// states snapshots the per-function list so callers can visit funcState
// locks without holding the cache lock.
func (c *GraphCache) states() []*funcState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*funcState, 0, len(c.funcs))
	for _, fs := range c.funcs {
		out = append(out, fs)
	}
	return out
}

// touch stamps an entry as just-used and counts a hit on it.
func (c *GraphCache) touch(e *compiled) {
	e.hits.Add(1)
	e.lastUse.Store(c.clock.Add(1))
}

// noteInsert stamps a freshly inserted entry and accounts for it; the caller
// holds the owning funcState's lock. When the insert pushes the cache over
// capacity, enforcement runs on a background goroutine — it must sweep other
// functions' locks, which the calling goroutine may already hold (nested
// optimize() steps), so it can never run inline here.
func (c *GraphCache) noteInsert(e *compiled) {
	e.lastUse.Store(c.clock.Add(1))
	n := c.entryCount.Add(1)
	if c.capacity > 0 && n > int64(c.capacity) && c.evicting.CompareAndSwap(false, true) {
		go func() {
			// Re-check after releasing the flag: an insert that lost the CAS
			// while enforcement was winding down would otherwise leave the
			// cache over capacity with no evictor scheduled.
			for {
				c.enforceCapacity()
				c.evicting.Store(false)
				if c.entryCount.Load() <= int64(c.capacity) ||
					!c.evicting.CompareAndSwap(false, true) {
					return
				}
			}
		}()
	}
}

// noteRemove accounts for an entry removed outside capacity enforcement
// (assumption-failure eviction in noteFailure).
func (c *GraphCache) noteRemove() { c.entryCount.Add(-1) }

// enforceCapacity evicts least-recently-hit entries until the cache fits.
// Must not be called with any funcState lock held.
func (c *GraphCache) enforceCapacity() {
	if c.capacity <= 0 {
		return
	}
	for c.entryCount.Load() > int64(c.capacity) {
		var victimFS *funcState
		var victim *compiled
		best := int64(math.MaxInt64)
		for _, fs := range c.states() {
			fs.mu.Lock()
			for _, e := range fs.entries {
				if lu := e.lastUse.Load(); lu < best {
					best, victimFS, victim = lu, fs, e
				}
			}
			fs.mu.Unlock()
		}
		if victim == nil {
			return
		}
		victimFS.mu.Lock()
		removed := false
		for i, e := range victimFS.entries {
			if e == victim {
				victimFS.entries = append(victimFS.entries[:i], victimFS.entries[i+1:]...)
				removed = true
				break
			}
		}
		if removed {
			dropFromSigIndex(victimFS, victim)
		}
		victimFS.mu.Unlock()
		if !removed {
			// Lost a race with an assumption-failure eviction; the count
			// already moved, so just re-check the loop condition.
			continue
		}
		c.entryCount.Add(-1)
		c.evictions.Add(1)
	}
}

// Funcs returns the number of functions with cache state.
func (c *GraphCache) Funcs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.funcs)
}

// Entries returns the total number of compiled graphs currently cached
// across all functions and signatures.
func (c *GraphCache) Entries() int {
	n := 0
	for _, fs := range c.states() {
		fs.mu.Lock()
		n += len(fs.entries)
		fs.mu.Unlock()
	}
	return n
}

// CacheEntry describes one compiled graph for the inspection endpoint.
type CacheEntry struct {
	Func      int      `json:"func"`
	Infer     bool     `json:"infer"`
	Signature []string `json:"signature"`
	Static    bool     `json:"static"`
	Hits      int64    `json:"hits"`
	LastUse   int64    `json:"last_use"`
	// Provenance reports where the entry came from: "compiled" (converted
	// in this process) or "snapshot" (restored from a persisted artifact).
	Provenance string `json:"provenance"`
	// Bucketed marks shape-generalized entries: the signature carries
	// wildcard dims, so several concrete feed shapes (the serve batcher's
	// shape buckets) share this one graph.
	Bucketed bool `json:"bucketed"`
}

// CacheInfo is a point-in-time inspection snapshot of the cache.
type CacheInfo struct {
	Capacity       int          `json:"capacity"`
	Funcs          int          `json:"funcs"`
	Entries        int          `json:"entries"`
	Evictions      int64        `json:"evictions"`
	ImperativeOnly int          `json:"imperative_only"`
	EntryList      []CacheEntry `json:"entry_list"`
}

// Inspect snapshots every cached entry (most recently used first) for the
// serving layer's GET /v1/cache endpoint.
func (c *GraphCache) Inspect() CacheInfo {
	info := CacheInfo{Capacity: c.capacity, Evictions: c.evictions.Load()}
	states := c.states()
	info.Funcs = len(states)
	for _, fs := range states {
		fs.mu.Lock()
		if fs.imperativeOnly {
			info.ImperativeOnly++
		}
		for _, e := range fs.entries {
			prov := "compiled"
			if e.fromSnapshot {
				prov = "snapshot"
			}
			info.EntryList = append(info.EntryList, CacheEntry{
				Func:       fs.key.fn,
				Infer:      fs.key.infer,
				Signature:  append([]string(nil), e.pattern...),
				Static:     !e.res.Dynamic,
				Hits:       e.hits.Load(),
				LastUse:    e.lastUse.Load(),
				Provenance: prov,
				Bucketed:   sigBucketed(e.pattern),
			})
		}
		fs.mu.Unlock()
	}
	info.Entries = len(info.EntryList)
	sort.Slice(info.EntryList, func(i, j int) bool {
		return info.EntryList[i].LastUse > info.EntryList[j].LastUse
	})
	return info
}

// imperativeReasons returns the conversion-failure reason of every function
// pinned to the imperative executor (test/diagnostic use).
func (c *GraphCache) imperativeReasons() []string {
	var out []string
	for _, fs := range c.states() {
		fs.mu.Lock()
		if fs.imperativeOnly {
			out = append(out, fs.impReason)
		}
		fs.mu.Unlock()
	}
	return out
}
