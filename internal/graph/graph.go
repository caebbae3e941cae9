// Package graph implements the symbolic dataflow graph IR used by the
// JANUS-style engines: typed nodes and ports, an operation registry with
// pure-kernel implementations (shared by the executor and by constant
// folding), graph-level reverse-mode autodiff, and the optimizer passes that
// symbolic execution enables (constant folding, CSE, dead-code elimination,
// arithmetic simplification, elementwise fusion).
//
// The scheduler that actually runs graphs lives in internal/exec; this
// package is purely structural.
package graph

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Val is a value flowing along a graph edge. Tensors dominate; control-flow
// and heap ops also move ints, bools, strings and opaque object references
// (boxed minipy heap pointers, per the paper's "integer-typed scalar tensors
// which hold pointers" rule in §4.2.2).
type Val = any

// Port identifies one output of a node.
type Port struct {
	Node *Node
	Out  int
}

// Node is a single operation in the dataflow graph.
type Node struct {
	ID   int
	Op   string
	Name string
	// Inputs are data dependencies; Input i is the op's i-th operand.
	Inputs []Port
	// ControlDeps must complete before this node runs but carry no data.
	// JANUS uses these to defer state mutations until every AssertOp has
	// validated its assumption (§3.2, §4.2.3).
	ControlDeps []*Node
	// Attrs hold static operation parameters (shapes, constants, names...).
	Attrs map[string]Val
	// NumOutputs is the number of output ports (1 for almost all ops;
	// Switch has 2).
	NumOutputs int
}

// Attr returns a named attribute (nil if absent).
func (n *Node) Attr(key string) Val { return n.Attrs[key] }

// IntAttr returns an integer attribute with a default.
func (n *Node) IntAttr(key string, def int) int { return intAttr(n.Attrs, key, def) }

// intAttr is attrs' integer attribute key, or def.
func intAttr(attrs map[string]Val, key string, def int) int {
	if v, ok := attrs[key]; ok {
		switch x := v.(type) {
		case int:
			return x
		case int64:
			return int(x)
		case float64:
			return int(x)
		}
	}
	return def
}

// StrAttr returns a string attribute ("" if absent).
func (n *Node) StrAttr(key string) string {
	if v, ok := n.Attrs[key]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

// Out returns port i of the node.
func (n *Node) Out(i int) Port { return Port{Node: n, Out: i} }

// P returns the node's primary (first) output port.
func (n *Node) P() Port { return Port{Node: n} }

// Graph is a dataflow graph under construction or execution.
type Graph struct {
	Nodes []*Node
	// Outputs are the fetch targets; executing the graph produces one value
	// per output port.
	Outputs []Port
	// Updates are state-mutation nodes (AssignSub, PySetAttr, CommitOps...)
	// that must run for their side effects even though nothing consumes their
	// outputs.
	Updates []*Node
	// Plan caches the executor's schedule (consumers, indegrees, topological
	// order) so repeated executions skip re-analysis; internal/exec owns the
	// concrete type. Any structural mutation must clear it.
	Plan   any
	nextID int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Add creates a node with the given op, attributes and inputs.
func (g *Graph) Add(op string, attrs map[string]Val, inputs ...Port) *Node {
	n := &Node{ID: g.nextID, Op: op, Inputs: inputs, Attrs: attrs, NumOutputs: 1}
	if n.Attrs == nil {
		n.Attrs = map[string]Val{}
	}
	if op == "Switch" {
		n.NumOutputs = 2
	}
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Emit adds op as a node over the input ports in, making a graph the
// Emitter that Gradients runs the rules against.
func (g *Graph) Emit(op string, attrs map[string]Val, in Args) Val {
	ports := make([]Port, in.Len())
	for i := range ports {
		ports[i] = in.At(i).(Port)
	}
	return g.Add(op, attrs, ports...).P()
}

// Const adds a constant-tensor node.
func (g *Graph) Const(t *tensor.Tensor) *Node {
	return g.Add("Const", map[string]Val{"value": t})
}

// ConstVal adds a constant node holding an arbitrary boxed value.
func (g *Graph) ConstVal(v Val) *Node {
	return g.Add("Const", map[string]Val{"value": v})
}

// Placeholder adds an external-input node (the paper's PlaceholderOp).
func (g *Graph) Placeholder(name string) *Node {
	return g.Add("Placeholder", map[string]Val{"name": name})
}

// Variable adds a parameter-read node; the executor resolves it against the
// shared vars.Store.
func (g *Graph) Variable(name string) *Node {
	return g.Add("Variable", map[string]Val{"name": name})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// String renders the graph for debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%3d %-14s", n.ID, n.Op)
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, " %d:%d", in.Node.ID, in.Out)
		}
		if len(n.ControlDeps) > 0 {
			b.WriteString(" ^[")
			for i, d := range n.ControlDeps {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%d", d.ID)
			}
			b.WriteString("]")
		}
		if name := n.StrAttr("name"); name != "" {
			fmt.Fprintf(&b, " name=%s", name)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "outputs:")
	for _, o := range g.Outputs {
		fmt.Fprintf(&b, " %d:%d", o.Node.ID, o.Out)
	}
	b.WriteString("\n")
	return b.String()
}

// CountOps returns a histogram of op kinds, used by optimization tests and
// the ablation report.
func (g *Graph) CountOps() map[string]int {
	out := make(map[string]int)
	for _, n := range g.Nodes {
		out[n.Op]++
	}
	return out
}

// --- value helpers -----------------------------------------------------------

// TensorHolder is a value that carries a tensor without being one: a
// tracked node of the eager gradient tape, which kernels meet inside runtime
// lists.
type TensorHolder interface{ Tensor() *tensor.Tensor }

// AsTensor coerces a Val to a tensor: tensors pass through, tensor holders
// give theirs, numeric scalars are wrapped.
func AsTensor(v Val) (*tensor.Tensor, error) {
	switch x := v.(type) {
	case *tensor.Tensor:
		return x, nil
	case TensorHolder:
		return x.Tensor(), nil
	case float64:
		return tensor.Scalar(x), nil
	case int:
		return tensor.Scalar(float64(x)), nil
	case int64:
		return tensor.Scalar(float64(x)), nil
	case bool:
		if x {
			return tensor.Scalar(1), nil
		}
		return tensor.Scalar(0), nil
	}
	return nil, fmt.Errorf("graph: value %T is not a tensor", v)
}

// AsBool coerces a Val to a boolean (Python truthiness for the types that
// flow through graphs).
func AsBool(v Val) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case int:
		return x != 0, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	case *tensor.Tensor:
		if x.Size() != 1 {
			return false, fmt.Errorf("graph: truthiness of %v tensor", x.Shape())
		}
		return x.Item() != 0, nil
	case nil:
		return false, nil
	}
	return true, nil
}

// AsInt coerces a Val to an int.
func AsInt(v Val) (int, error) {
	switch x := v.(type) {
	case int:
		return x, nil
	case int64:
		return int(x), nil
	case float64:
		return int(x), nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case *tensor.Tensor:
		if x.Size() == 1 {
			return int(x.Item()), nil
		}
	}
	return 0, fmt.Errorf("graph: value %T is not an int", v)
}
