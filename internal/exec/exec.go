// Package exec implements the speculative graph executor of the paper's
// Figure 2: a scheduler that runs every node of a graph in one cached
// topological order on the calling goroutine (parallelism lives inside the
// tensor kernels), with
//
//   - Switch/Merge conditional primitives via dead-token propagation (the
//     classic dataflow-architecture treatment the paper cites),
//   - structured While and Invoke operations whose bodies are subgraphs
//     (Invoke follows [20], enabling recursive models like TreeLSTM),
//   - AssertOp, which validates a speculative assumption at run time and
//     aborts the execution with a structured error on mismatch (§3.2),
//   - PyGetAttr/PySetAttr/PyGetSubscr/PySetSubscr heap operations with a
//     local-copy overlay and deferred write-back, giving the all-or-nothing
//     state-update semantics of §4.2.3,
//   - an optional trace tape: when a graph contains dynamic control flow,
//     tensor edges carry autodiff nodes and gradients are computed from the
//     executed trace (DESIGN.md §5); the forward values live in the tape's
//     pool until the step ends (DESIGN.md §3.1),
//   - plan-driven buffer reuse: with Options.Pool set (and no tape), every
//     intermediate tensor is rented from the pool according to the graph's
//     cached graph.MemoryPlan, elementwise ops write in place when their
//     input dies at that node, and buffers return to the pool the moment
//     their last consumer fires — steady-state replay allocates ~nothing.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// Heap abstracts the host-language heap (minipy objects) so the executor can
// read and write attributes without depending on the interpreter package.
type Heap interface {
	GetAttr(obj any, name string) (any, error)
	SetAttr(obj any, name string, v any) error
	GetSubscr(obj, key any) (any, error)
	SetSubscr(obj, key, v any) error
}

// AssertError reports a failed runtime assumption check. The runtime uses
// NodeID/Desc to decide which assumption to relax before regenerating.
type AssertError struct {
	NodeID int
	Kind   string
	Desc   string
	Actual any
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("exec: assumption failed at node %d (%s): %s (actual %v)", e.NodeID, e.Kind, e.Desc, e.Actual)
}

// Options configures one execution.
type Options struct {
	// Deprecated: ignored; graphs run serially in topological order and
	// only kernels use more than one goroutine.
	Workers int
	// Store resolves Variable and AssignSub nodes.
	Store *vars.Store
	// Heap resolves Py*Attr/Py*Subscr nodes; may be nil when the graph has
	// no heap ops.
	Heap Heap
	// Tape, when non-nil, makes tensor edges carry autodiff nodes so the
	// executed trace can be differentiated (dynamic-control-flow graphs).
	// Pure ops' results are rented from the tape's pool until the tape's
	// Reset; the run pins the ones that outlive it (Tape.Keep): its
	// outputs, the values it writes to Heap, a failed assertion's actual
	// value.
	Tape *autodiff.Tape
	// Pool, when non-nil and Tape is nil, enables plan-driven buffer reuse:
	// intermediate tensors are rented from the pool per the graph's memory
	// plan and returned when their last consumer fires. Feeds, constants,
	// variables reaching outputs, and anything crossing a subgraph or heap
	// boundary are pinned and never pooled.
	Pool *tensor.Pool
	// Arena, when non-nil, recycles per-run scheduler state (value arrays,
	// refcounts) across executions of the same graphs. Callers that run one
	// execution at a time (an Engine) share one Arena across runs; the
	// Arena itself is safe for concurrent use, and runs that overlap a
	// graph's running one (recursive Invoke) take bounded spare frames.
	Arena *Arena
	// DisableAsserts skips assumption validation (used by the assertion-cost
	// experiment; never by the real runtime).
	DisableAsserts bool
	// Stats, when non-nil, accumulates executed-op counts.
	Stats *Stats
	// Metrics, when non-nil, records plan-build timings, sampled per-op
	// kernel timings and in-place rebind counts into an obs registry. All
	// hot-path recording is sampled or a single atomic, so replay stays
	// allocation-free.
	Metrics *Metrics
	// Ctx, when non-nil, is checked between scheduled nodes — including
	// inside While/Invoke subgraph iterations — so cancellation lands in the
	// middle of a long graph execution, not just between steps. A canceled
	// run returns an error wrapping the context's cause before any deferred
	// state (heap overlay, variable updates) is committed, preserving the
	// all-or-nothing semantics.
	Ctx context.Context
	// GradSink, when non-nil, receives each AssignSub's raw gradient (a
	// private copy, not scaled by lr) the moment the node fires, instead of
	// a deferred local update. AssignSub waits on every Assert, so the first
	// emission is the run's commit point: from then on cancellation no
	// longer stops the run. Calls come from the goroutine running Run.
	GradSink func(name string, g *tensor.Tensor)
}

// Stats counts scheduler activity for tests and the evaluation harness.
type Stats struct {
	OpsExecuted atomic.Int64
	OpsSkipped  atomic.Int64 // dead-token skips
	AssertsRun  atomic.Int64
}

// Result is the outcome of a successful execution.
type Result struct {
	Outputs []graph.Val
	// Printed collects Print op output in node-ID order.
	Printed []string
}

// dead is the poison token produced by the untaken side of a Switch.
type deadToken struct{}

var dead = deadToken{}

// IsDead reports whether v is the dead token.
func IsDead(v graph.Val) bool { _, ok := v.(deadToken); return ok }

// overlay holds local copies of heap state (paper §4.2.3). Reads hit the
// overlay first; writes never touch the heap until Commit.
type overlay struct {
	attrs map[attrKey]any
	subs  map[subKey]any
	// writes preserves write sequence for deterministic commit.
	writes []heapWrite
}

type attrKey struct {
	obj  any
	name string
}

type subKey struct {
	obj any
	key string
}

// heapWrite is one deferred heap write: obj.name = v, or obj[key] = v when
// sub is set.
type heapWrite struct {
	obj, key, v any
	name        string
	sub         bool
}

func newOverlay() *overlay {
	return &overlay{attrs: make(map[attrKey]any), subs: make(map[subKey]any)}
}

func subKeyOf(obj, key any) subKey { return subKey{obj: obj, key: fmt.Sprintf("%T:%v", key, key)} }

func (o *overlay) getAttr(h Heap, obj any, name string) (any, error) {
	if v, ok := o.attrs[attrKey{obj, name}]; ok {
		return v, nil
	}
	return h.GetAttr(obj, name)
}

func (o *overlay) setAttr(obj any, name string, v any) {
	o.attrs[attrKey{obj, name}] = v
	o.writes = append(o.writes, heapWrite{obj: obj, name: name, v: v})
}

func (o *overlay) getSubscr(h Heap, obj, key any) (any, error) {
	if v, ok := o.subs[subKeyOf(obj, key)]; ok {
		return v, nil
	}
	return h.GetSubscr(obj, key)
}

func (o *overlay) setSubscr(obj, key any, v any) {
	o.subs[subKeyOf(obj, key)] = v
	o.writes = append(o.writes, heapWrite{obj: obj, key: key, v: v, sub: true})
}

// commit writes all deferred updates back to the heap, in program order.
func (o *overlay) commit(h Heap) error {
	for _, w := range o.writes {
		var err error
		if w.sub {
			err = h.SetSubscr(w.obj, w.key, w.v)
		} else {
			err = h.SetAttr(w.obj, w.name, w.v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ctx is the shared execution context threaded through subgraph invocations
// (Invoke/While recurse with the same ctx so the overlay and tape span the
// whole run).
type ctx struct {
	opts Options
	// overlay is created lazily on the first heap op — replayed compute
	// graphs usually have none, and the hot path should not pay for maps.
	overlay *overlay
	printed []string
	// updates collects deferred variable updates (AssignSub); they are
	// applied only after every assertion in the whole run has passed.
	updates []func()
	// emitted records that a gradient has left through GradSink.
	emitted bool
}

func (c *ctx) ov() *overlay {
	if c.overlay == nil {
		c.overlay = newOverlay()
	}
	return c.overlay
}

// keep pins the tape's forward rentals in v, which outlive the run (see
// Tape.Keep); without a tape nothing is rented.
func (c *ctx) keep(v graph.Val) {
	if c.opts.Tape != nil {
		c.opts.Tape.Keep(v)
	}
}

// canceled reports whether the run's context (if any) has been canceled,
// as an error wrapping the cancellation cause — unless a gradient has
// already left through the sink, after which the run must finish so the
// whole step reaches the sink.
func (c *ctx) canceled() error {
	if c.emitted || c.opts.Ctx == nil || c.opts.Ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("exec: run canceled: %w", context.Cause(c.opts.Ctx))
}

// Run executes g with the given placeholder feeds. On success all deferred
// state updates (heap overlay and variable updates) are committed; on any
// error — including assumption failures — no global state has been mutated.
func Run(g *graph.Graph, feeds map[string]graph.Val, opts Options) (*Result, error) {
	c := &ctx{opts: opts}
	outs := make([]graph.Val, len(g.Outputs))
	if err := runGraph(g, feeds, outs, c); err != nil {
		return nil, err
	}
	// The outputs and every value written to the heap outlive the run.
	for _, v := range outs {
		c.keep(v)
	}
	// All assertions passed: commit deferred state, in order.
	if opts.Heap != nil && c.overlay != nil {
		for _, w := range c.overlay.writes {
			c.keep(w.key)
			c.keep(w.v)
		}
		if err := c.overlay.commit(opts.Heap); err != nil {
			return nil, err
		}
	}
	for _, f := range c.updates {
		f()
	}
	return &Result{Outputs: outs, Printed: c.printed}, nil
}

// node fast-path kinds, precomputed per plan so the scheduler can bypass
// execNode (and its []Val returns) for the allocation-sensitive ops.
const (
	kindGeneric = iota
	kindConst
	kindPlaceholder
	kindVariable
	kindInto
)

// plan is the cached per-graph schedule: resolved flat input port indices,
// the topological execution order, and the buffer-reuse memory plan.
// Building it once per graph removes per-execution analysis cost — the
// scheduling advantage symbolic execution has over the per-statement
// interpreter.
type plan struct {
	inPort   [][]int32 // flat port id per node input
	topo     []int32
	outPort  []int32 // flat port id per graph output
	portBase []int32 // flat port offset per node (len n+1)
	kind     []int8  // fast-path kind per node
	phName   []string
	varName  []string
	defs     []*graph.OpDef // op definition per node, nil for an unregistered op
	mem      *graph.MemoryPlan
	// prof is the graph's always-on op profile; its flat arrays parallel
	// the plan's, so the scheduler accumulates without map lookups.
	prof *GraphProfile
}

// buildPlan analyzes a graph once; subsequent executions reuse the result.
func buildPlan(g *graph.Graph, m *Metrics) (*plan, error) {
	n := len(g.Nodes)
	index := make(map[*graph.Node]int32, n)
	for i, nd := range g.Nodes {
		index[nd] = int32(i)
	}
	counts := graph.PortCounts(g)
	p := &plan{
		inPort:   make([][]int32, n),
		portBase: make([]int32, n+1),
		kind:     make([]int8, n),
		phName:   make([]string, n),
		varName:  make([]string, n),
		defs:     make([]*graph.OpDef, n),
	}
	consumers := make([][]int32, n)
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		p.portBase[i+1] = p.portBase[i] + counts[i]
	}
	for i, nd := range g.Nodes {
		ports := make([]int32, len(nd.Inputs))
		for k, in := range nd.Inputs {
			j, ok := index[in.Node]
			if !ok {
				return nil, fmt.Errorf("exec: node %d input refers outside graph (op %s)", nd.ID, nd.Op)
			}
			ports[k] = p.portBase[j] + int32(in.Out)
			consumers[j] = append(consumers[j], int32(i))
			deg[i]++
		}
		p.inPort[i] = ports
		for _, d := range nd.ControlDeps {
			j, ok := index[d]
			if !ok {
				return nil, fmt.Errorf("exec: node %d control dep outside graph", nd.ID)
			}
			consumers[j] = append(consumers[j], int32(i))
			deg[i]++
		}
		p.defs[i] = graph.Lookup(nd.Op)
		switch nd.Op {
		case "Const":
			p.kind[i] = kindConst
		case "Placeholder":
			p.kind[i] = kindPlaceholder
			p.phName[i] = nd.StrAttr("name")
		case "Variable":
			p.kind[i] = kindVariable
			p.varName[i] = nd.StrAttr("name")
		default:
			if def := p.defs[i]; def != nil && def.Into != nil {
				p.kind[i] = kindInto
			}
		}
	}
	// Kahn's algorithm: the topological order doubles as the cycle check and
	// the execution order.
	queue := make([]int32, 0, n)
	for i := range deg {
		if deg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	topo := make([]int32, 0, n)
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		topo = append(topo, i)
		for _, ci := range consumers[i] {
			if deg[ci]--; deg[ci] == 0 {
				queue = append(queue, ci)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("exec: graph is not schedulable — %d of %d nodes are on a cycle", n-len(topo), n)
	}
	p.topo = topo
	p.outPort = make([]int32, len(g.Outputs))
	for i, o := range g.Outputs {
		j, ok := index[o.Node]
		if !ok {
			return nil, fmt.Errorf("exec: output %d refers outside graph", i)
		}
		p.outPort[i] = p.portBase[j] + int32(o.Out)
	}
	t0 := time.Now()
	p.mem = graph.BuildMemoryPlan(g)
	m.observeMemPlan(time.Since(t0))
	p.prof = newGraphProfile(g, p.mem)
	return p, nil
}

var planMu sync.Mutex

// planFor returns the graph's cached execution plan, building (and
// timing) it on first use. The schedule and memory-plan stages report
// separately, and a request trace riding c picks up matching spans — the
// "compile → memory-plan" phases of a cold Call.
func planFor(g *graph.Graph, c *ctx) (*plan, error) {
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := g.Plan.(*plan); ok {
		return p, nil
	}
	var m *Metrics
	var tctx context.Context
	if c != nil {
		m, tctx = c.opts.Metrics, c.opts.Ctx
	}
	sp := obs.StartSpan(tctx, "plan_build")
	t0 := time.Now()
	p, err := buildPlan(g, m)
	if err != nil {
		return nil, err
	}
	m.observePlanBuild(time.Since(t0))
	sp.End()
	g.Plan = p
	return p, nil
}

// PrimePlan eagerly builds and installs g's execution plan, substituting a
// previously computed memory plan when it still fits the graph. The artifact
// loader (internal/core) calls this at boot for every restored graph so the
// first served request skips both plan analysis and the liveness pass; a
// restored memory plan that no longer matches the graph's node count or
// port layout is silently discarded in favour of the fresh analysis —
// falling back costs a recompute, never correctness.
func PrimePlan(g *graph.Graph, mem *graph.MemoryPlan) error {
	planMu.Lock()
	defer planMu.Unlock()
	if _, ok := g.Plan.(*plan); ok {
		return nil
	}
	p, err := buildPlan(g, nil)
	if err != nil {
		return err
	}
	if mem != nil && memPlanFits(g, mem) {
		p.mem = mem
		p.prof = newGraphProfile(g, p.mem)
	}
	g.Plan = p
	return nil
}

// PlanMemory returns the memory plan of g's installed execution plan (nil
// when no plan has been built). The artifact saver persists it alongside
// the graph so a restored replica skips the liveness analysis.
func PlanMemory(g *graph.Graph) *graph.MemoryPlan {
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := g.Plan.(*plan); ok {
		return p.mem
	}
	return nil
}

// memPlanFits validates a deserialized memory plan against the graph it
// claims to describe: every per-node slice must cover the node list and
// every class index must be in range.
func memPlanFits(g *graph.Graph, mem *graph.MemoryPlan) bool {
	n := len(g.Nodes)
	if len(mem.OutClass) != n || len(mem.InClass) != n ||
		len(mem.PoolRecord) != n || len(mem.InPlace) != n ||
		len(mem.Refs) != mem.NumClasses || len(mem.Releasable) != mem.NumClasses {
		return false
	}
	counts := graph.PortCounts(g)
	for i, nd := range g.Nodes {
		if len(mem.OutClass[i]) != int(counts[i]) || len(mem.PoolRecord[i]) != int(counts[i]) {
			return false
		}
		if len(mem.InClass[i]) != len(nd.Inputs) {
			return false
		}
		if mem.InPlace[i] < -1 || int(mem.InPlace[i]) >= len(nd.Inputs) {
			return false
		}
		for _, c := range mem.OutClass[i] {
			if c < 0 || int(c) >= mem.NumClasses {
				return false
			}
		}
		for _, c := range mem.InClass[i] {
			if c < 0 || int(c) >= mem.NumClasses {
				return false
			}
		}
	}
	return true
}

// Arena recycles per-run scheduler state (value arrays, refcounts, buffer
// tables) across executions. One Arena is typically owned by one Engine.
// Each graph has one frame of such state for a run at a time; a run of a
// graph that is already running (a recursive Invoke, or concurrent use)
// takes a spare frame, up to spareFrameCap per graph, and beyond that falls
// back to fresh allocations.
//
// The per-graph map is bounded: compiled graphs are evicted from the
// GraphCache over time (capacity LRU, assumption failures), and an
// unbounded map would pin each dead graph's last-run value and buffer
// tables forever. Beyond arenaCap graphs, acquiring a new graph's slot
// evicts an idle one — arena state is pure scratch, so eviction only costs
// a re-allocation on that graph's next run.
type Arena struct {
	mu  sync.Mutex
	per map[*graph.Graph]*graphArena
}

// arenaCap bounds how many graphs' scratch state one Arena retains.
const arenaCap = 64

// spareFrameCap bounds the spare frames one graph keeps for runs that
// overlap its first: the depth of recursion whose frames are reused.
const spareFrameCap = 32

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{per: make(map[*graph.Graph]*graphArena)} }

// graphArena is one graph's scratch state: the frame of its outermost run
// and the idle spare frames of overlapping runs.
type graphArena struct {
	first     frame
	firstBusy bool
	spare     []*frame
	// made counts the spare frames ever created (at most spareFrameCap).
	made int
}

// idle reports whether none of the graph's frames is in use.
func (ga *graphArena) idle() bool { return !ga.firstBusy && len(ga.spare) == ga.made }

// frame is the scratch state of one run of a graph.
type frame struct {
	owner *graphArena
	vals  []graph.Val
	in    []graph.Val
	refs  []int32
	moved []bool
	bufs  []*tensor.Tensor
	// feeds is the feed map of a subgraph run (argFeeds).
	feeds map[string]graph.Val
	// alloc is the run's allocator for Into kernels under a memory plan.
	alloc nodeAlloc
}

// argFeeds maps the placeholders arg0, arg1, ... to args in the frame's own
// feed map, or in a fresh map when there is no frame.
func (f *frame) argFeeds(args []graph.Val) map[string]graph.Val {
	var m map[string]graph.Val
	if f == nil {
		m = make(map[string]graph.Val, len(args))
	} else {
		if f.feeds == nil {
			f.feeds = make(map[string]graph.Val, len(args))
		}
		m = f.feeds
	}
	for i, v := range args {
		m[argNames.name(i)] = v
	}
	return m
}

func (a *Arena) acquire(g *graph.Graph) *frame {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ga := a.per[g]
	if ga == nil {
		if len(a.per) >= arenaCap {
			for og, oga := range a.per {
				if oga.idle() {
					delete(a.per, og)
					break
				}
			}
		}
		ga = &graphArena{}
		ga.first.owner = ga
		a.per[g] = ga
	}
	var f *frame
	switch n := len(ga.spare); {
	case !ga.firstBusy:
		ga.firstBusy = true
		f = &ga.first
	case n > 0:
		f = ga.spare[n-1]
		ga.spare = ga.spare[:n-1]
	case ga.made < spareFrameCap:
		ga.made++
		f = &frame{owner: ga}
	default:
		return nil
	}
	return f
}

func (a *Arena) release(f *frame) {
	if a == nil || f == nil {
		return
	}
	// Drop the run's values before parking the frame: without this, the
	// arena would pin the last run's tensors (or, under a tape, the whole
	// autodiff tape) until the graph's next execution.
	clear(f.vals)
	clear(f.bufs)
	clear(f.feeds)
	f.alloc = nodeAlloc{}
	a.mu.Lock()
	ga := f.owner
	if f == &ga.first {
		ga.firstBusy = false
	} else {
		ga.spare = append(ga.spare, f)
	}
	a.mu.Unlock()
}

// memState is the per-execution view of a graph's memory plan: a live
// refcount per alias class, the pooled buffer owned by each class, and
// transfer flags for in-place rebinding.
type memState struct {
	mem     *graph.MemoryPlan
	pool    *tensor.Pool
	metrics *Metrics
	prof    *GraphProfile
	refs    []int32
	moved   []bool
	bufs    []*tensor.Tensor
}

// initMemState prepares (or recycles) per-run plan state; returns nil when
// buffer reuse is disabled for this execution.
func initMemState(p *plan, c *ctx, fr *frame) *memState {
	if c.opts.Pool == nil || c.opts.Tape != nil || p.mem == nil {
		return nil
	}
	nc := p.mem.NumClasses
	ms := &memState{mem: p.mem, pool: c.opts.Pool, metrics: c.opts.Metrics, prof: p.prof}
	if fr != nil {
		if cap(fr.refs) < nc {
			fr.refs = make([]int32, nc)
			fr.moved = make([]bool, nc)
			fr.bufs = make([]*tensor.Tensor, nc)
		}
		ms.refs, ms.moved, ms.bufs = fr.refs[:nc], fr.moved[:nc], fr.bufs[:nc]
		for i := range ms.moved {
			ms.moved[i] = false
			ms.bufs[i] = nil
		}
	} else {
		ms.refs = make([]int32, nc)
		ms.moved = make([]bool, nc)
		ms.bufs = make([]*tensor.Tensor, nc)
	}
	copy(ms.refs, p.mem.Refs)
	return ms
}

// adopt records a freshly produced, execution-private tensor as its alias
// class's pooled buffer (so the scheduler can return it on last use).
func (ms *memState) adopt(i int32, out0 graph.Val) {
	pr := ms.mem.PoolRecord[i]
	if len(pr) == 0 || !pr[0] {
		return
	}
	cls := ms.mem.OutClass[i][0]
	if !ms.mem.Releasable[cls] {
		return
	}
	if t, ok := out0.(*tensor.Tensor); ok {
		ms.bufs[cls] = t
		ms.prof.noteAdopt(cls, t)
	}
}

// releaseInputs counts down the classes consumed by node i, returning each
// class's buffer to the pool at zero.
func (ms *memState) releaseInputs(i int32) {
	for _, cls := range ms.mem.InClass[i] {
		if !ms.mem.Releasable[cls] {
			continue
		}
		ms.refs[cls]--
		if ms.refs[cls] == 0 && !ms.moved[cls] {
			if b := ms.bufs[cls]; b != nil {
				ms.pool.Put(b)
			}
		}
	}
}

// nodeAlloc is the tensor.Allocator handed to Into kernels: the first Get is
// the kernel's output (pool-backed, in-place-rebound, or heap for pinned
// outputs); subsequent Gets are scratch (always pooled). One nodeAlloc is
// reused across a run's nodes, so the hot path performs no per-node
// allocator allocations.
type nodeAlloc struct {
	pool       *tensor.Pool
	ms         *memState
	first      bool
	record     bool // pool-allocate & track the output
	inPlace    *tensor.Tensor
	inPlaceCls int32
	node       int32 // profiled node index (per-node rent/in-place counts)
}

func (a *nodeAlloc) Get(shape ...int) *tensor.Tensor {
	if a.first {
		a.first = false
		if a.inPlace != nil && tensor.ShapeEq(a.inPlace.Shape(), shape) {
			t := a.inPlace
			a.ms.moved[a.inPlaceCls] = true
			a.inPlace = nil
			a.ms.metrics.incInPlace()
			a.ms.prof.noteInPlace(a.node)
			return t
		}
		if !a.record {
			// Pinned output: it escapes the execution, so it must not come
			// from (or ever return to) the pool.
			return tensor.Zeros(shape...)
		}
	}
	a.ms.prof.noteRent(a.node)
	return a.pool.Get(shape...)
}

func (a *nodeAlloc) GetZeroed(shape ...int) *tensor.Tensor {
	t := a.Get(shape...)
	d := t.Data()
	for i := range d {
		d[i] = 0
	}
	return t
}

func (a *nodeAlloc) Put(t *tensor.Tensor) { a.pool.Put(t) }

// prep readies the allocator for node i, wiring the in-place candidate when
// the plan and the runtime state both allow it.
func (a *nodeAlloc) prep(ms *memState, i int32, in []graph.Val) {
	a.ms = ms
	a.pool = ms.pool
	a.first = true
	a.inPlace = nil
	a.node = i
	mem := ms.mem
	outCls := mem.OutClass[i][0]
	a.record = mem.PoolRecord[i][0] && mem.Releasable[outCls]
	if k := mem.InPlace[i]; k >= 0 && int(k) < len(in) {
		if t, ok := in[k].(*tensor.Tensor); ok {
			cls := mem.InClass[i][k]
			if ms.bufs[cls] == t && !ms.moved[cls] {
				a.inPlace = t
				a.inPlaceCls = cls
			}
		}
	}
}

// runGraph schedules one (sub)graph to completion, writing its outputs into
// outs.
func runGraph(g *graph.Graph, feeds map[string]graph.Val, outs []graph.Val, c *ctx) error {
	if len(g.Nodes) == 0 {
		clear(outs)
		return nil
	}
	p, err := planFor(g, c)
	if err != nil {
		return err
	}
	fr := c.opts.Arena.acquire(g)
	defer c.opts.Arena.release(fr)
	return runNodes(g, p, feeds, c, fr, outs)
}

// runArgs runs a subgraph whose placeholders arg0, arg1, ... take args (an
// Invoke's arguments or a While's loop variables), writing its outputs into
// outs, which may be args itself.
func runArgs(g *graph.Graph, args, outs []graph.Val, c *ctx) error {
	if len(g.Nodes) == 0 {
		clear(outs)
		return nil
	}
	p, err := planFor(g, c)
	if err != nil {
		return err
	}
	fr := c.opts.Arena.acquire(g)
	defer c.opts.Arena.release(fr)
	return runNodes(g, p, fr.argFeeds(args), c, fr, outs)
}

// execFast runs the allocation-free fast paths (Const, Placeholder,
// Variable, Into kernels) for node i and returns its single output value.
// It is only entered when ms != nil (plan-driven execution, no tape).
func execFast(p *plan, i int32, nd *graph.Node, in []graph.Val, feeds map[string]graph.Val, c *ctx, ms *memState, na *nodeAlloc) (graph.Val, error) {
	switch p.kind[i] {
	case kindConst:
		return nd.Attr("value"), nil
	case kindPlaceholder:
		v, ok := feeds[p.phName[i]]
		if !ok {
			return nil, fmt.Errorf("exec: no feed for placeholder %q", p.phName[i])
		}
		return v, nil
	case kindVariable:
		name := p.varName[i]
		if c.opts.Store == nil {
			return nil, fmt.Errorf("exec: Variable %q with no store", name)
		}
		t, ok := c.opts.Store.Get(name)
		if !ok {
			return nil, fmt.Errorf("exec: unknown variable %q", name)
		}
		// Snapshot the parameter (outputs must reflect the value read during
		// execution even after deferred updates land); the snapshot is
		// execution-private, so it can live in the pool.
		if ms.mem.PoolRecord[i][0] && ms.mem.Releasable[ms.mem.OutClass[i][0]] {
			buf := ms.pool.Get(t.Shape()...)
			copy(buf.Data(), t.Data())
			return buf, nil
		}
		return t.Clone(), nil
	case kindInto:
		na.prep(ms, i, in)
		return p.defs[i].Into(nd, in, na)
	}
	panic("exec: execFast on generic node")
}

// runNodes executes the plan's nodes in topological order on the calling
// goroutine: dead inputs propagate, every node writes its outputs into its
// slots of the value table, pooled buffers return on their last consumer,
// and the graph's outputs are written into outs. A kernel panic (e.g. a
// shape mismatch on malformed client feeds) becomes an error naming the
// node: a serving process must survive a bad request.
func runNodes(g *graph.Graph, p *plan, feeds map[string]graph.Val, c *ctx, fr *frame, outs []graph.Val) (err error) {
	var nd *graph.Node
	defer func() {
		if r := recover(); r != nil {
			if nd == nil {
				panic(r)
			}
			err = fmt.Errorf("exec: node %d (%s): %v", nd.ID, nd.Op, r)
		}
	}()
	n := len(g.Nodes)
	numPorts := int(p.portBase[n])
	var vals []graph.Val
	var inScratch []graph.Val
	if fr != nil {
		if cap(fr.vals) < numPorts {
			fr.vals = make([]graph.Val, numPorts)
		}
		vals = fr.vals[:numPorts]
		inScratch = fr.in
	} else {
		vals = make([]graph.Val, numPorts)
	}
	ms := initMemState(p, c, fr)
	var na *nodeAlloc
	if ms != nil {
		if fr != nil {
			na = &fr.alloc
		} else {
			na = new(nodeAlloc)
		}
	}
	prof := p.prof
	tick := prof.beginRun()
	for _, i := range p.topo {
		if err := c.canceled(); err != nil {
			return err
		}
		nd = g.Nodes[i]
		inPorts := p.inPort[i]
		if cap(inScratch) < len(inPorts) {
			inScratch = make([]graph.Val, len(inPorts)+8)
		}
		in := inScratch[:len(inPorts)]
		anyDead := false
		for k, pt := range inPorts {
			v := vals[pt]
			in[k] = v
			if IsDead(v) {
				anyDead = true
			}
		}
		base := p.portBase[i]
		out := vals[base:p.portBase[i+1]]
		if anyDead && nd.Op != "Merge" {
			for o := range out {
				out[o] = dead
			}
			prof.skip(i)
			if c.opts.Stats != nil {
				c.opts.Stats.OpsSkipped.Add(1)
			}
			if ms != nil {
				ms.releaseInputs(i)
			}
			continue
		}
		timed := i&profileStrideMask == tick
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		var err error
		if ms != nil && p.kind[i] != kindGeneric {
			out[0], err = execFast(p, i, nd, in, feeds, c, ms, na)
		} else {
			err = execNode(nd, p.defs[i], in, out, feeds, c)
		}
		if timed {
			prof.record(i, time.Since(t0), c.opts.Metrics, nd.Op)
		}
		if c.opts.Stats != nil {
			c.opts.Stats.OpsExecuted.Add(1)
		}
		if err != nil {
			return err
		}
		if ms != nil {
			ms.adopt(i, out[0])
			ms.releaseInputs(i)
		}
	}
	nd = nil
	if fr != nil {
		fr.in = inScratch
	}
	for i := range outs {
		if i < len(p.outPort) {
			outs[i] = vals[p.outPort[i]]
		} else {
			outs[i] = nil
		}
	}
	return nil
}
