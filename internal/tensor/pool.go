package tensor

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Pool recycles tensors between graph executions. The plan-driven executor
// (internal/exec) rents every intermediate buffer of a replayed graph from a
// per-engine Pool and returns it the moment its last consumer has fired, so
// steady-state replay allocates (almost) nothing and the garbage collector
// stays out of the hot path.
//
// Buffers are binned by size class (power-of-two element counts, with one
// shared bin for very small tensors). Whole *Tensor headers are recycled, not
// just backing arrays: Get rewrites the shape of a cached tensor in place, so
// a pool hit performs zero heap allocations.
//
// A Pool is safe for concurrent use by the scheduler's worker goroutines.
// Tensors handed out by Get have arbitrary (stale) contents; kernels writing
// through the destination-passing API are responsible for fully overwriting
// or zeroing them. Never Put a tensor that is still referenced elsewhere —
// the executor's liveness plan is what guarantees this.
type Pool struct {
	mu      sync.Mutex
	classes [numClasses]poolClass

	gets  atomic.Int64 // total rentals
	hits  atomic.Int64 // rentals served by reuse
	puts  atomic.Int64 // returns
	inUse atomic.Int64 // elements currently rented
}

// poolClass is one size class: its idle buffers, how many of its buffers
// are rented right now, and the most that ever were at once.
type poolClass struct {
	idle      []*Tensor
	out, peak int
}

// PoolStats is a point-in-time snapshot of pool activity.
type PoolStats struct {
	// Gets counts buffer rentals; Hits of them were served by reuse rather
	// than a fresh allocation.
	Gets int64
	// Hits counts rentals satisfied from the free lists.
	Hits int64
	// Puts counts buffers returned to the free lists.
	Puts int64
	// InUseElems is the total element count of currently rented buffers.
	InUseElems int64
}

// poolBinCap is the fewest idle tensors one size class retains; beyond
// max(poolBinCap, the class's peak concurrent rentals) returned buffers are
// dropped for the garbage collector. A replayed static graph has a small
// working set, so its classes keep the shallow floor. A tape-mode step
// holds all its forward activations until the step ends, so their class
// keeps as many buffers as one step rents — the next step's rentals are all
// hits — and never more than it once needed at a time.
const poolBinCap = 64

// minPoolClass is the smallest size class; anything at or below it shares a
// bin (scalars and tiny reductions are common and interchangeable).
const minPoolClass = 64

// numClasses covers every element count an int can hold.
const numClasses = 58

// NewPool returns an empty tensor pool.
func NewPool() *Pool { return &Pool{} }

// classOf returns the index and element count of the smallest size class
// holding n elements: minPoolClass, or the next power of two.
func classOf(n int) (idx, size int) {
	if n <= minPoolClass {
		return 0, minPoolClass
	}
	idx = bits.Len(uint(n-1)) - bits.Len(minPoolClass-1)
	return idx, minPoolClass << idx
}

// Get rents a tensor of the given shape with UNSPECIFIED contents. The
// caller must overwrite every element (or call GetZeroed).
func (p *Pool) Get(shape ...int) *Tensor {
	n := NumElements(shape)
	idx, size := classOf(n)
	p.gets.Add(1)
	p.inUse.Add(int64(n))
	p.mu.Lock()
	c := &p.classes[idx]
	if c.out++; c.out > c.peak {
		c.peak = c.out
	}
	if k := len(c.idle); k > 0 {
		t := c.idle[k-1]
		c.idle[k-1] = nil
		c.idle = c.idle[:k-1]
		p.mu.Unlock()
		p.hits.Add(1)
		t.shape = append(t.shape[:0], shape...)
		t.data = t.data[:n]
		return t
	}
	p.mu.Unlock()
	// Miss: allocate at the class size so the buffer is reusable by every
	// shape in the bin.
	data := make([]float64, n, size)
	return &Tensor{shape: append(make([]int, 0, 4), shape...), data: data}
}

// GetZeroed rents a tensor of the given shape with all elements zero.
func (p *Pool) GetZeroed(shape ...int) *Tensor {
	t := p.Get(shape...)
	clear(t.data)
	return t
}

// Put returns a tensor rented with Get to the pool. The tensor must not be
// used after Put. Tensors not created by a Pool are accepted too: their
// backing joins the largest bin it can fully serve (too-small backings are
// simply dropped for the garbage collector).
func (p *Pool) Put(t *Tensor) {
	if t == nil || cap(t.data) < minPoolClass {
		return
	}
	idx := bits.Len(uint(cap(t.data))) - bits.Len(minPoolClass)
	p.puts.Add(1)
	p.inUse.Add(int64(-len(t.data)))
	t.data = t.data[:0]
	p.mu.Lock()
	c := &p.classes[idx]
	if c.out > 0 {
		c.out--
	}
	if len(c.idle) < max(poolBinCap, c.peak) {
		c.idle = append(c.idle, t)
	}
	p.mu.Unlock()
}

// Disown takes a tensor rented with Get out of the pool's accounting for
// good: it stops counting as in use, and its holder keeps it. It must never
// be Put. A gradient handed to an optimizer, or an activation that escapes a
// tape-mode step, leaves the pool this way.
func (p *Pool) Disown(t *Tensor) {
	if t == nil {
		return
	}
	idx, _ := classOf(len(t.data))
	p.inUse.Add(int64(-len(t.data)))
	p.mu.Lock()
	if c := &p.classes[idx]; c.out > 0 {
		c.out--
	}
	p.mu.Unlock()
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:       p.gets.Load(),
		Hits:       p.hits.Load(),
		Puts:       p.puts.Load(),
		InUseElems: p.inUse.Load(),
	}
}

// Allocator hands out output tensors for destination-passing kernels. A nil
// Allocator means the Go heap. Pool implements it, as does the executor's
// in-place rebinding allocator.
type Allocator interface {
	// Get returns a tensor of the given shape with unspecified contents.
	Get(shape ...int) *Tensor
	// GetZeroed returns a tensor of the given shape, zero-filled.
	GetZeroed(shape ...int) *Tensor
	// Put returns a scratch tensor obtained from Get/GetZeroed. Kernels call
	// it only for internal scratch, never for the returned output.
	Put(t *Tensor)
}

// Rent gets a tensor of the given shape from a. A *Pool is called
// directly, so the shape stays on the caller's stack; through the interface
// every shape argument escapes to the heap. Kernels rent shapes they
// compute, as opposed to an existing tensor's Shape(), through here.
func Rent(a Allocator, shape ...int) *Tensor {
	if p, ok := a.(*Pool); ok {
		return p.Get(shape...)
	}
	return orHeap(a).Get(slices.Clone(shape)...)
}

// heapAllocator is the default Allocator: plain garbage-collected tensors.
type heapAllocator struct{}

func (heapAllocator) Get(shape ...int) *Tensor       { return Zeros(shape...) }
func (heapAllocator) GetZeroed(shape ...int) *Tensor { return Zeros(shape...) }
func (heapAllocator) Put(*Tensor)                    {}

// HeapAlloc is the heap-backed Allocator used when no pool is configured.
var HeapAlloc Allocator = heapAllocator{}

// orHeap returns a usable allocator for possibly-nil a.
func orHeap(a Allocator) Allocator {
	if a == nil {
		return HeapAlloc
	}
	return a
}
