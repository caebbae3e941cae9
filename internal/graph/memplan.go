package graph

// This file implements the static memory plan behind zero-allocation graph
// replay: a liveness/buffer-reuse analysis computed once per compiled graph
// and cached alongside the executor's schedule. The executor (internal/exec)
// uses it to rent every intermediate tensor from a per-engine pool, write
// elementwise results in place when the input dies at that node, and return
// buffers the moment their last consumer has fired.
//
// The unit of the analysis is the alias class: node output ports joined
// through value-forwarding ops (Identity, Assert, Switch, Merge), so a
// buffer is released only when every port that may carry it is dead. Classes
// are pinned — never pooled, never written in place — when they reach a graph
// output, a subgraph boundary (Invoke/While/Loop), or any op that may retain
// the tensor beyond its own execution (Pack, PySetAttr, PySetSubscr);
// placeholder feeds, constants and heap reads are never pool-owned in the
// first place, so caller- and interpreter-owned tensors are untouched.
// Everything here is conservative: the per-op facts come from the op table
// (OpDef.ReadsOnly, Fresh, InPlace), and an op without them — or an
// unregistered one — pins its inputs, which costs reuse, never correctness.

// MemoryPlan is the per-graph buffer-reuse plan. All slices are indexed by
// the node's position in Graph.Nodes.
type MemoryPlan struct {
	// NumClasses is the number of alias classes.
	NumClasses int
	// OutClass[i][o] is the alias class of node i's output port o.
	OutClass [][]int32
	// InClass[i][k] is the alias class consumed by node i's k-th input.
	InClass [][]int32
	// Refs[c] is the total number of times ports of class c appear as node
	// inputs; the executor counts down a per-run copy and releases the
	// class's pooled buffer at zero.
	Refs []int32
	// Releasable[c] reports that class c's buffer may be returned to the
	// pool when its refcount reaches zero (not pinned).
	Releasable []bool
	// PoolRecord[i][o] marks output ports whose producer yields a fresh,
	// execution-private tensor: the executor allocates it from the pool (for
	// Into kernels) or adopts it (fresh allocating kernels) and records it
	// as the class buffer.
	PoolRecord [][]bool
	// InPlace[i] is the input index whose buffer node i may overwrite with
	// its output (-1 = none). Statically it requires an elementwise op whose
	// input class is consumed only by node i; at run time the executor
	// additionally checks that the candidate tensor is the class's pooled
	// buffer and that shapes match.
	InPlace []int32
}

// PortCounts returns, per node, how many output ports the executor must
// reserve: NumOutputs, widened to cover any higher port index a consumer
// references (defensive — well-formed graphs never need the widening). The
// executor's flat value array and the memory plan both use this.
func PortCounts(g *Graph) []int32 {
	index := make(map[*Node]int, len(g.Nodes))
	for i, nd := range g.Nodes {
		index[nd] = i
	}
	counts := make([]int32, len(g.Nodes))
	for i, nd := range g.Nodes {
		c := int32(nd.NumOutputs)
		if c < 1 {
			c = 1
		}
		counts[i] = c
	}
	widen := func(p Port) {
		if j, ok := index[p.Node]; ok && int32(p.Out) >= counts[j] {
			counts[j] = int32(p.Out) + 1
		}
	}
	for _, nd := range g.Nodes {
		for _, in := range nd.Inputs {
			widen(in)
		}
	}
	for _, o := range g.Outputs {
		widen(o)
	}
	return counts
}

// aliasFanIn returns, for value-forwarding ops, which inputs the outputs
// alias (all outputs join those inputs' classes). Non-alias ops return nil.
func aliasFanIn(n *Node) []int {
	switch n.Op {
	case "Identity", "Assert":
		return []int{0}
	case "Switch":
		return []int{0} // both outputs carry in[0]; in[1] is the predicate
	case "Merge":
		idx := make([]int, len(n.Inputs))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return nil
}

// BuildMemoryPlan analyzes g and returns its buffer-reuse plan. The plan
// depends only on graph structure, so it is computed once and cached with
// the executor's schedule; it is valid for any execution without a trace
// tape (tape mode wraps tensors in autodiff nodes that outlive the run).
func BuildMemoryPlan(g *Graph) *MemoryPlan {
	n := len(g.Nodes)
	index := make(map[*Node]int32, n)
	for i, nd := range g.Nodes {
		index[nd] = int32(i)
	}
	// Flatten ports: port id = portBase[i] + out.
	counts := PortCounts(g)
	portBase := make([]int32, n+1)
	for i := 0; i < n; i++ {
		portBase[i+1] = portBase[i] + counts[i]
	}
	numPorts := int(portBase[n])

	// Union-find over ports.
	parent := make([]int32, numPorts)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	portOf := func(p Port) int32 { return portBase[index[p.Node]] + int32(p.Out) }

	for i, nd := range g.Nodes {
		for _, k := range aliasFanIn(nd) {
			if k < len(nd.Inputs) {
				for o := int32(0); o < counts[i]; o++ {
					union(portBase[i]+o, portOf(nd.Inputs[k]))
				}
			}
		}
	}

	// Compact class ids.
	classOf := make([]int32, numPorts)
	numClasses := 0
	seen := make(map[int32]int32, numPorts)
	for p := 0; p < numPorts; p++ {
		r := find(int32(p))
		c, ok := seen[r]
		if !ok {
			c = int32(numClasses)
			seen[r] = c
			numClasses++
		}
		classOf[p] = c
	}

	mp := &MemoryPlan{
		NumClasses: numClasses,
		OutClass:   make([][]int32, n),
		InClass:    make([][]int32, n),
		Refs:       make([]int32, numClasses),
		Releasable: make([]bool, numClasses),
		PoolRecord: make([][]bool, n),
		InPlace:    make([]int32, n),
	}
	pinned := make([]bool, numClasses)
	fresh := make([]bool, numClasses) // class has at least one fresh producer port

	for i, nd := range g.Nodes {
		outs := int(counts[i])
		oc := make([]int32, outs)
		pr := make([]bool, outs)
		def := Lookup(nd.Op)
		// Fresh outputs are execution-private and eligible for pool ownership:
		// every Into kernel's, plus the ops flagged Fresh.
		freshOut := def != nil && (def.Into != nil || def.Fresh) && aliasFanIn(nd) == nil
		for o := 0; o < outs; o++ {
			c := classOf[portBase[i]+int32(o)]
			oc[o] = c
			if freshOut {
				pr[o] = true
				fresh[c] = true
			}
		}
		mp.OutClass[i] = oc
		mp.PoolRecord[i] = pr

		ic := make([]int32, len(nd.Inputs))
		for k, in := range nd.Inputs {
			c := classOf[portOf(in)]
			ic[k] = c
			mp.Refs[c]++
			if def == nil || !def.ReadsOnly {
				pinned[c] = true
			}
		}
		mp.InClass[i] = ic
	}
	for _, o := range g.Outputs {
		pinned[classOf[portOf(o)]] = true
	}

	for c := 0; c < numClasses; c++ {
		mp.Releasable[c] = !pinned[c]
	}

	// In-place: node i may overwrite input 0 when the op allows it and input
	// 0's class is consumed exclusively by node i (so no other node — in any
	// schedule order — can still read the buffer). A pinned output class
	// disqualifies the node: transferring a pooled buffer into an escaping
	// output would drain the pool by one buffer per replay.
	for i, nd := range g.Nodes {
		mp.InPlace[i] = -1
		if def := Lookup(nd.Op); def == nil || !def.InPlace || len(nd.Inputs) == 0 {
			continue
		}
		if pinned[mp.OutClass[i][0]] {
			continue
		}
		c := mp.InClass[i][0]
		if pinned[c] || !fresh[c] {
			continue
		}
		// No other input may share input 0's alias class: a kernel like
		// CrossEntropyGradInto reads its second input in a later pass, after
		// in-place writes to dst would already have destroyed it. Single-pass
		// kernels would tolerate the aliasing, but rejecting it here keeps
		// the contract uniform (and the case — e.g. f(x, x) surviving CSE —
		// is rare enough that the lost reuse is irrelevant).
		shared := false
		for k := 1; k < len(mp.InClass[i]); k++ {
			if mp.InClass[i][k] == c {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		if mp.Refs[c] == 1 {
			mp.InPlace[i] = 0
		}
	}
	return mp
}
