package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Gradients builds the reverse-mode gradient subgraph of a scalar loss port
// with respect to the named Variable nodes, returning one gradient port per
// requested variable name. This is the symbolic-graph autodiff the paper
// relies on ("operations for automatic differentiation ... are also
// automatically inserted", §3.1); it only handles static graphs — graphs
// containing dynamic control-flow ops are differentiated at run time by the
// executor's trace tape instead (see DESIGN.md §5).
func Gradients(g *Graph, loss Port, varNames []string) (map[string]Port, error) {
	// Reverse topological walk: nodes were appended in construction order,
	// which is a valid topological order for our builders.
	grads := make(map[Port][]Port) // accumulated gradient contributions
	key := func(p Port) Port { return p }
	addGrad := func(p Port, gp Port) {
		grads[key(p)] = append(grads[key(p)], gp)
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
		// Gather this node's output gradient (port 0 only; multi-output ops
		// are control-flow and unsupported here).
		contribs, ok := grads[n.P()]
		if !ok || len(contribs) == 0 {
			continue
		}
		gout := sum(contribs)
		grads[n.P()] = []Port{gout}
		switch def := Lookup(n.Op); {
		case def != nil && def.Grad != nil:
			if err := def.Grad(g, n, gout, addGrad); err != nil {
				return nil, err
			}
		case def != nil && def.StopGrad:
		default:
			return nil, fmt.Errorf("graph: no gradient registered for op %s", n.Op)
		}
	}

	out := make(map[string]Port, len(varNames))
	for _, name := range varNames {
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
		if ps, ok := grads[vn.P()]; ok && len(ps) > 0 {
			out[name] = sum(ps)
		} else {
			// Variable does not influence the loss: zero gradient of the
			// variable's shape, computed at run time via FillLike with scale 0.
			z := g.Add("FillLike", map[string]Val{"scale": 0.0}, vn.P(), g.Const(tensor.Scalar(0)).P())
			out[name] = z.P()
		}
	}
	return out, nil
}
