package exec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Unwrap converts tape-mode values (autodiff nodes) back to raw values;
// exported for callers inspecting dynamic-graph outputs.
func Unwrap(v graph.Val) graph.Val { return unwrap(v) }

// unwrap converts tape-mode values (autodiff nodes) to raw values for
// non-differentiable kernels.
func unwrap(v graph.Val) graph.Val {
	if n, ok := v.(*autodiff.Node); ok {
		return n.Value
	}
	return v
}

// execNode runs one node, writing its outputs into out, the node's slots of
// the run's value table (which start out nil). It handles the impure and
// control-flow operations directly; pure ops fall through to def's kernel,
// evaluated on the heap — under a tape through Tape.Apply, which rents the
// result from the tape's pool and records differentiable ops for backprop.
// A kernel panic propagates to runNodes, which names the node.
func execNode(nd *graph.Node, def *graph.OpDef, in, out []graph.Val, feeds map[string]graph.Val, c *ctx) error {
	switch nd.Op {
	case "Placeholder":
		name := nd.StrAttr("name")
		v, ok := feeds[name]
		if !ok {
			return fmt.Errorf("exec: no feed for placeholder %q", name)
		}
		out[0] = v
		return nil

	case "Variable":
		name := nd.StrAttr("name")
		if c.opts.Store == nil {
			return fmt.Errorf("exec: Variable %q with no store", name)
		}
		t, ok := c.opts.Store.Get(name)
		if !ok {
			return fmt.Errorf("exec: unknown variable %q", name)
		}
		if c.opts.Tape != nil {
			out[0] = c.opts.Tape.Watch(name, t)
			return nil
		}
		// Snapshot the parameter: deferred AssignSub updates mutate the store
		// tensor in place at commit time, and outputs must reflect the value
		// read during execution, not the post-update value.
		out[0] = t.Clone()
		return nil

	case "AssignSub":
		// Parameter update var -= lr * input. With a gradient sink the raw
		// gradient leaves now (every Assert is a control dep, so the step is
		// already validated); otherwise the update is queued until the run
		// succeeds (all-or-nothing, §3.2).
		name := nd.StrAttr("name")
		gt, err := graph.AsTensor(unwrap(in[0]))
		if err != nil {
			return fmt.Errorf("exec: AssignSub %q: %v", name, err)
		}
		if sink := c.opts.GradSink; sink != nil {
			g := gt.Clone()
			if err := c.canceled(); err != nil {
				return err
			}
			c.emitted = true
			sink(name, g)
			return nil
		}
		lr := 1.0
		if v, ok := nd.Attrs["lr"]; ok {
			lr = v.(float64)
		}
		store, delta := c.opts.Store, tensor.MulScalar(gt, lr)
		c.updates = append(c.updates, func() { store.AssignSub(name, delta) })
		return nil

	case "Assert":
		if c.opts.Stats != nil {
			c.opts.Stats.AssertsRun.Add(1)
		}
		if !c.opts.DisableAsserts {
			if err := checkAssert(nd, unwrap(in[0])); err != nil {
				// The failed assumption's actual value outlives the run:
				// the deopt ledger keeps it.
				c.keep(err.Actual)
				return err
			}
		}
		out[0] = in[0]
		return nil

	case "Switch":
		// in[0]=data, in[1]=pred. Out 0 carries data when pred is true,
		// out 1 when false; the other port gets the dead token.
		pred, err := graph.AsBool(unwrap(in[1]))
		if err != nil {
			return fmt.Errorf("exec: Switch predicate: %v", err)
		}
		taken, untaken := 0, 1
		if !pred {
			taken, untaken = 1, 0
		}
		// A port no node reads has no slot.
		if taken < len(out) {
			out[taken] = in[0]
		}
		if untaken < len(out) {
			out[untaken] = dead
		}
		return nil

	case "Merge":
		out[0] = dead
		for _, v := range in {
			if !IsDead(v) {
				out[0] = v
				break
			}
		}
		return nil

	case "PyGetAttr":
		obj := unwrap(in[0])
		name := nd.StrAttr("attr")
		if c.opts.Heap == nil {
			return fmt.Errorf("exec: PyGetAttr with no heap")
		}
		v, err := c.ov().getAttr(c.opts.Heap, obj, name)
		if err != nil {
			return err
		}
		out[0] = v
		return nil

	case "PySetAttr":
		obj := unwrap(in[0])
		name := nd.StrAttr("attr")
		c.ov().setAttr(obj, name, unwrap(in[1]))
		return nil

	case "PyGetSubscr":
		obj := unwrap(in[0])
		key := unwrap(in[1])
		if c.opts.Heap == nil {
			return fmt.Errorf("exec: PyGetSubscr with no heap")
		}
		v, err := c.ov().getSubscr(c.opts.Heap, obj, key)
		if err != nil {
			return err
		}
		out[0] = v
		return nil

	case "PySetSubscr":
		c.ov().setSubscr(unwrap(in[0]), unwrap(in[1]), unwrap(in[2]))
		return nil

	case "Invoke":
		fg, ok := nd.Attrs["func"].(*graph.Graph)
		if !ok {
			return fmt.Errorf("exec: Invoke without func graph")
		}
		return runArgs(fg, in, out, c)

	case "While":
		// Structured loop: attrs cond/body are subgraphs over loop variables
		// arg0..argN-1. The node's slots hold the loop state when there is
		// one per variable, and the body writes the next iteration's loop
		// variables straight into them.
		condG, _ := nd.Attrs["cond"].(*graph.Graph)
		bodyG, _ := nd.Attrs["body"].(*graph.Graph)
		if condG == nil || bodyG == nil {
			return fmt.Errorf("exec: While without cond/body")
		}
		if len(bodyG.Outputs) != len(in) {
			return fmt.Errorf("exec: While body returned %d values, want %d", len(bodyG.Outputs), len(in))
		}
		maxIter := nd.IntAttr("maxIter", 1_000_000)
		state := out
		if len(out) != len(in) {
			state = make([]graph.Val, len(in))
			defer copy(out, state)
		}
		copy(state, in)
		var cond [1]graph.Val
		for iter := 0; ; iter++ {
			if iter >= maxIter {
				return fmt.Errorf("exec: While exceeded %d iterations", maxIter)
			}
			if err := c.canceled(); err != nil {
				return err
			}
			if err := runArgs(condG, state, cond[:], c); err != nil {
				return err
			}
			ok, err := graph.AsBool(unwrap(cond[0]))
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := runArgs(bodyG, state, state, c); err != nil {
				return err
			}
		}

	case "Loop":
		// Structured counted loop emitted by BASE-mode conversion (paper
		// §4.2.1 without the +UNRL optimization): the body subgraph runs a
		// fixed number of trips with loop-carried values, loop-invariant
		// values, per-iteration sequence elements, and append-accumulators.
		//
		// Input layout: carried[0..C) ++ inv[0..I) ++ seq0[0..T) ++ seq1[0..T) ...
		// Body placeholders: carried%d, inv%d, iter%d, idx.
		// Body outputs: next carried values (C) then accumulator elements (A).
		// Loop outputs: final carried values (C) then accumulated []Val lists (A).
		body, _ := nd.Attrs["body"].(*graph.Graph)
		if body == nil {
			return fmt.Errorf("exec: Loop without body")
		}
		trips := nd.IntAttr("trips", 0)
		numC := nd.IntAttr("carried", 0)
		numI := nd.IntAttr("inv", 0)
		numS := nd.IntAttr("seqs", 0)
		numA := nd.IntAttr("accum", 0)
		if len(in) != numC+numI+numS*trips {
			return fmt.Errorf("exec: Loop input count %d != %d carried + %d inv + %d seqs * %d trips",
				len(in), numC, numI, numS, trips)
		}
		if len(body.Outputs) != numC+numA {
			return fmt.Errorf("exec: Loop body returned %d values, want %d", len(body.Outputs), numC+numA)
		}
		state := append([]graph.Val(nil), in[:numC]...)
		accums := make([][]graph.Val, numA)
		trip := make([]graph.Val, numC+numA)
		feedsT := make(map[string]graph.Val, numC+numI+numS+1)
		for t := 0; t < trips; t++ {
			for i := 0; i < numC; i++ {
				feedsT[carriedNames.name(i)] = state[i]
			}
			for i := 0; i < numI; i++ {
				feedsT[invNames.name(i)] = in[numC+i]
			}
			for s := 0; s < numS; s++ {
				feedsT[iterNames.name(s)] = in[numC+numI+s*trips+t]
			}
			feedsT["idx"] = t
			if err := runGraph(body, feedsT, trip, c); err != nil {
				return err
			}
			copy(state, trip[:numC])
			for a := 0; a < numA; a++ {
				accums[a] = append(accums[a], trip[numC+a])
			}
		}
		for i := range out {
			if i < numC {
				out[i] = state[i]
			} else if a := i - numC; a < numA {
				out[i] = accums[a]
			}
		}
		return nil

	case "Print":
		var b strings.Builder
		for i, v := range in {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%v", unwrap(v))
		}
		c.printed = append(c.printed, b.String())
		return nil

	case "NoOp":
		return nil

	case "BatchNorm":
		v, err := execBatchNorm(nd, def, in, c)
		out[0] = v
		return err
	}

	if !def.Foldable() {
		return fmt.Errorf("exec: no kernel for op %s", nd.Op)
	}
	var v graph.Val
	var err error
	switch {
	case nd.Op == "Identity" || nd.Op == "Pack":
		// These ops only move values, so tape nodes pass through them as
		// they are.
		v, err = def.Kernel(nd, in)
	case c.opts.Tape != nil:
		v, err = c.opts.Tape.Apply(def, nd, in, true)
	default:
		// in is this node's scratch copy of its inputs.
		for k, x := range in {
			in[k] = unwrap(x)
		}
		v, err = def.Eval(nd, in)
	}
	out[0] = v
	return err
}

// feedNames interns the placeholder names prefix0, prefix1, ... that Invoke,
// While and Loop feed their subgraphs, so a call or a trip does not format
// them again.
type feedNames struct {
	prefix string
	names  [16]string
}

var argNames, carriedNames, invNames, iterNames = newFeedNames("arg"), newFeedNames("carried"),
	newFeedNames("inv"), newFeedNames("iter")

func newFeedNames(prefix string) *feedNames {
	f := &feedNames{prefix: prefix}
	for i := range f.names {
		f.names[i] = prefix + strconv.Itoa(i)
	}
	return f
}

func (f *feedNames) name(i int) string {
	if i >= 0 && i < len(f.names) {
		return f.names[i]
	}
	return f.prefix + strconv.Itoa(i)
}

// checkAssert validates one assumption. Kinds:
//
//	"true"/"false" — the input's truthiness must match (branch direction)
//	"eq-int"       — the input must equal attr "expected" (loop trip count,
//	                 list length, callee identity token)
//	"shape"        — the input tensor's shape must match attr "shape";
//	                 -1 entries are wildcards (Figure 4 relaxation)
//	"const"        — the input tensor must equal attr "value" exactly
func checkAssert(nd *graph.Node, actual graph.Val) *AssertError {
	fail := func(msg string) *AssertError {
		return &AssertError{NodeID: nd.ID, Kind: nd.StrAttr("kind"), Desc: nd.StrAttr("desc") + ": " + msg, Actual: actual}
	}
	switch nd.StrAttr("kind") {
	case "true", "false":
		b, err := graph.AsBool(actual)
		if err != nil {
			return fail(err.Error())
		}
		want := nd.StrAttr("kind") == "true"
		if b != want {
			return fail(fmt.Sprintf("branch went %v, assumed %v", b, want))
		}
	case "eq-int":
		got, err := graph.AsInt(actual)
		if err != nil {
			return fail(err.Error())
		}
		want := nd.IntAttr("expected", 0)
		if got != want {
			return fail(fmt.Sprintf("got %d, assumed %d", got, want))
		}
	case "eq":
		// Generic scalar equality (specialized attribute values, §4.2.2).
		want := nd.Attrs["expected"]
		if ws, ok := want.(string); ok {
			gs, ok := actual.(string)
			if !ok || gs != ws {
				return fail(fmt.Sprintf("got %v, assumed %q", actual, ws))
			}
			return nil
		}
		wt, err := graph.AsTensor(want)
		if err != nil {
			return fail("bad expected value")
		}
		gt, err := graph.AsTensor(actual)
		if err != nil {
			return fail(err.Error())
		}
		if wt.Size() != 1 || gt.Size() != 1 || wt.Item() != gt.Item() {
			return fail(fmt.Sprintf("got %v, assumed %v", actual, want))
		}
	case "shape":
		t, err := graph.AsTensor(actual)
		if err != nil {
			return fail(err.Error())
		}
		want, _ := nd.Attrs["shape"].([]int)
		if len(t.Shape()) != len(want) {
			return fail(fmt.Sprintf("rank %d, assumed %d", len(t.Shape()), len(want)))
		}
		for i, d := range want {
			if d >= 0 && t.Shape()[i] != d {
				return fail(fmt.Sprintf("shape %v, assumed %v", t.Shape(), want))
			}
		}
	case "const":
		t, err := graph.AsTensor(actual)
		if err != nil {
			return fail(err.Error())
		}
		want, err := graph.AsTensor(nd.Attrs["value"])
		if err != nil {
			return fail("bad expected value")
		}
		if !tensor.Equal(t, want) {
			return fail("value changed, assumed constant")
		}
	default:
		return fail("unknown assert kind")
	}
	return nil
}

// execBatchNorm runs batch normalization against store-managed statistics.
// The running-statistic mutation is deferred like any other state update.
func execBatchNorm(nd *graph.Node, def *graph.OpDef, in []graph.Val, c *ctx) (graph.Val, error) {
	xv := unwrap(in[0])
	x, err := graph.AsTensor(xv)
	if err != nil {
		return nil, err
	}
	name := nd.StrAttr("name")
	training := nd.Attrs["training"] == true
	store := c.opts.Store
	if store == nil {
		return nil, fmt.Errorf("exec: BatchNorm with no store")
	}
	ch := x.Shape()[1]
	gamma := store.GetOrCreate(name+"/gamma", func() *tensor.Tensor { return tensor.Full(1, ch) })
	beta := store.GetOrCreate(name+"/beta", func() *tensor.Tensor { return tensor.Zeros(ch) })
	rm := store.GetOrCreate(name+"/mean", func() *tensor.Tensor { return tensor.Zeros(ch) })
	rv := store.GetOrCreate(name+"/var", func() *tensor.Tensor { return tensor.Full(1, ch) })
	// Compute against copies; commit running-stat changes only on success.
	rmCopy, rvCopy := rm.Clone(), rv.Clone()
	out := tensor.BatchNorm(x, gamma, beta, rmCopy, rvCopy, training, 0.9, 1e-5)
	if training {
		c.updates = append(c.updates, func() {
			copy(rm.Data(), rmCopy.Data())
			copy(rv.Data(), rvCopy.Data())
		})
	}
	return c.opts.Tape.Record(def, nd, in[:1], out), nil
}
