package graph

// Shared rewrite primitives for graph transformations. The optimizer passes
// themselves live in internal/graph/passes; these helpers stay here because
// they are pure structural operations on the IR.

// ReplaceUses rewires every consumer of `from` port (node inputs and graph
// outputs) to `to`. Callers are responsible for clearing g.Plan if the graph
// may already have an executor schedule.
func ReplaceUses(g *Graph, from, to Port) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == from {
				n.Inputs[i] = to
			}
		}
	}
	for i, o := range g.Outputs {
		if o == from {
			g.Outputs[i] = to
		}
	}
}
