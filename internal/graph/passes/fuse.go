package passes

import (
	"strings"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Elementwise-chain fusion: a single-consumer chain of elementwise ops
//
//	t1 = ReLUGrad(x, g); t2 = Mul(t1, m); y = ScaleByScalar(t2, s)
//
// becomes one Fused node carrying an op-code program
// (tensor.FusedStep), dispatched as a single destination-passing kernel
// that streams each element through the whole chain. Every fused-away
// node saves one executor dispatch (~270 ns, DESIGN.md §5) and one
// intermediate buffer per replay.

// fuseStep reports whether n can join a chain with the incoming value at
// input chainPos, and returns its program step, read from the op's
// OpDef.Fuse; ok=false means the node, or the op in that arity or
// orientation, is not fusable.
func fuseStep(n *graph.Node, chainPos int) (tensor.FusedStep, bool) {
	code, ok := graph.Lookup(n.Op).FusedCode(len(n.Inputs), chainPos)
	if !ok || n.NumOutputs > 1 || len(n.ControlDeps) > 0 {
		return tensor.FusedStep{}, false
	}
	return tensor.FusedStep{Code: code}, true
}

// use records one reference to a node's output port 0.
type use struct {
	node *graph.Node // consumer
	pos  int         // input index within the consumer
}

// fuseElementwise finds maximal chains (length ≥2) where each node's output
// is consumed exactly once, by the next elementwise node in the chain, and
// collapses each chain into the last node rewritten as a Fused op. The
// intermediate nodes become dead and are swept by the following DCE round.
func fuseElementwise(g *graph.Graph) int {
	// Uses of each node's port 0, plus "escapes": any reference that rules a
	// node out as an interior chain link (graph output, update, control dep,
	// higher port, multiple uses).
	uses := make(map[*graph.Node][]use, len(g.Nodes))
	escapes := make(map[*graph.Node]bool)
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in.Out == 0 {
				uses[in.Node] = append(uses[in.Node], use{n, i})
			} else {
				escapes[in.Node] = true
			}
		}
		for _, d := range n.ControlDeps {
			escapes[d] = true
		}
	}
	for _, o := range g.Outputs {
		escapes[o.Node] = true
	}
	for _, u := range g.Updates {
		escapes[u] = true
	}

	inChain := make(map[*graph.Node]bool)
	fused := 0
	for _, head := range g.Nodes {
		if inChain[head] {
			continue
		}
		// The head consumes its chain value at input 0 by convention.
		if _, ok := fuseStep(head, 0); !ok {
			continue
		}
		// Walk downstream while each link is the sole consumer of the
		// previous node's value.
		chain := []*graph.Node{head}
		poss := []int{0}
		cur := head
		for {
			us := uses[cur]
			if len(us) != 1 || escapes[cur] {
				break
			}
			next, pos := us[0].node, us[0].pos
			if inChain[next] {
				break
			}
			if _, ok := fuseStep(next, pos); !ok {
				break
			}
			chain = append(chain, next)
			poss = append(poss, pos)
			cur = next
		}
		if len(chain) < 2 {
			continue
		}

		// Build the program. The chain input is head's input 0; each binary
		// step's other operand becomes an extra input of the Fused node.
		chainIn := head.Inputs[0]
		prog := make([]tensor.FusedStep, 0, len(chain))
		extras := make([]graph.Port, 0, len(chain))
		labels := make([]string, 0, len(chain))
		for i, n := range chain {
			step, _ := fuseStep(n, poss[i])
			if len(n.Inputs) == 2 {
				extras = append(extras, n.Inputs[1-poss[i]])
				step.Arg = len(extras) - 1
			}
			prog = append(prog, step)
			labels = append(labels, n.Op)
		}

		// Rewrite the last chain node in place (keeps its ID and consumers);
		// the interior nodes lose their only consumer and die at DCE.
		last := chain[len(chain)-1]
		last.Op = "Fused"
		last.Inputs = append([]graph.Port{chainIn}, extras...)
		last.Attrs = map[string]graph.Val{
			"prog":  prog,
			"label": "Fused[" + strings.Join(labels, "+") + "]",
		}
		for _, n := range chain {
			inChain[n] = true
		}
		fused += len(chain) - 1
	}
	return fused
}
