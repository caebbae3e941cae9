package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Gradients builds the reverse-mode gradient subgraph of a scalar loss port
// with respect to the named Variable nodes, returning one gradient port per
// requested variable name. This is the symbolic-graph autodiff the paper
// relies on ("operations for automatic differentiation ... are also
// automatically inserted", §3.1): it runs each op's OpDef.Grad rule with the
// graph as the Emitter — the same rules the eager tape runs. It fails closed
// and leaves g as it found it: a gradient reaching an op with neither Grad
// nor StopGrad, or any output k > 0, is an error, and the engine then trains
// the graph on the executor's trace tape (DESIGN.md §3.1).
//
// The converter emits one Variable node per read, so a variable's gradient
// is the sum over every node of that name, taken in the order the rules
// reported the contributions: the order in which the tape, which watches one
// node per name, accumulates them.
func Gradients(g *Graph, loss Port, varNames []string) (_ map[string]Port, err error) {
	n0, id0 := len(g.Nodes), g.nextID
	defer func() {
		if err != nil {
			clear(g.Nodes[n0:])
			g.Nodes, g.nextID = g.Nodes[:n0], id0
		}
	}()
	// Reverse topological walk: nodes were appended in construction order,
	// which is a valid topological order for our builders.
	grads := make(map[Port][]Port) // accumulated gradient contributions
	byVar := make(map[string][]Port)
	addGrad := func(p Port, gp Port) {
		if p.Node.Op == "Variable" {
			name := p.Node.StrAttr("name")
			byVar[name] = append(byVar[name], gp)
			return
		}
		grads[p] = append(grads[p], gp)
	}
	addGrad(loss, g.Const(tensor.Scalar(1)).P())

	// sum combines accumulated contributions into one port.
	sum := func(ps []Port) Port {
		acc := ps[0]
		for _, p := range ps[1:] {
			acc = g.Add("Add", nil, acc, p).P()
		}
		return acc
	}

	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		contribs, ok := grads[n.P()]
		if !ok || len(contribs) == 0 {
			continue
		}
		gout := sum(contribs)
		grads[n.P()] = []Port{gout}
		switch def := Lookup(n.Op); {
		case def != nil && def.Grad != nil:
			in := make([]Val, len(n.Inputs))
			for k, p := range n.Inputs {
				in[k] = p
			}
			add := func(k int, gp Val) { addGrad(n.Inputs[k], gp.(Port)) }
			if err := def.Grad(g, n, in, n.P(), gout, add); err != nil {
				return nil, err
			}
		case def != nil && def.StopGrad:
		default:
			return nil, fmt.Errorf("graph: no gradient registered for op %s", n.Op)
		}
	}
	// Rules differentiate output 0 only: the walk never read these. The
	// error names the first such port in node order.
	var bad *Port
	for p := range grads {
		if p.Out > 0 && (bad == nil || p.Node.ID < bad.Node.ID || p.Node.ID == bad.Node.ID && p.Out < bad.Out) {
			bad = &p
		}
	}
	if bad != nil {
		return nil, fmt.Errorf("graph: no gradient through output %d of op %s", bad.Out, bad.Node.Op)
	}

	out := make(map[string]Port, len(varNames))
	for _, name := range varNames {
		if ps := byVar[name]; len(ps) > 0 {
			out[name] = sum(ps)
			continue
		}
		var vn *Node
		for _, n := range g.Nodes {
			if n.Op == "Variable" && n.StrAttr("name") == name {
				vn = n
				break
			}
		}
		if vn == nil {
			return nil, fmt.Errorf("graph: no Variable node named %q", name)
		}
		// Variable does not influence the loss: zero gradient of the
		// variable's shape, computed at run time via FillLike with scale 0.
		z := g.Add("FillLike", map[string]Val{"scale": 0.0}, vn.P(), g.Const(tensor.Scalar(0)).P())
		out[name] = z.P()
	}
	return out, nil
}
