package passes

import (
	"strings"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Elementwise-chain fusion: a single-consumer chain of elementwise ops
//
//	t1 = ReLUGrad(x, g); t2 = Mul(t1, m); y = Scale(t2, s=0.5)
//
// becomes one Fused node carrying an op-code program
// (tensor.FusedStep), dispatched as a single destination-passing kernel
// that streams each element through the whole chain. Every fused-away
// node saves one executor dispatch (~270 ns, DESIGN.md §5) and one
// intermediate buffer per replay.

// fuseStep maps op -> program step, given which input position carries the
// incoming chain value. ok=false means the op (or that orientation) is not
// fusable.
func fuseStep(n *graph.Node, chainPos int) (tensor.FusedStep, bool) {
	switch n.Op {
	// Unaries: chain value is the only input.
	case "Neg":
		return tensor.FusedStep{Code: tensor.FusedNeg}, true
	case "Abs":
		return tensor.FusedStep{Code: tensor.FusedAbs}, true
	case "Exp":
		return tensor.FusedStep{Code: tensor.FusedExp}, true
	case "Log":
		return tensor.FusedStep{Code: tensor.FusedLog}, true
	case "ReLU":
		return tensor.FusedStep{Code: tensor.FusedReLU}, true
	case "Sigmoid":
		return tensor.FusedStep{Code: tensor.FusedSigmoid}, true
	case "Tanh":
		return tensor.FusedStep{Code: tensor.FusedTanh}, true
	case "Scale":
		s, ok := n.Attr("s").(float64)
		if !ok {
			return tensor.FusedStep{}, false
		}
		return tensor.FusedStep{Code: tensor.FusedScale, Scalar: s}, true

	// Symmetric binaries: either input may carry the chain.
	case "Add":
		return tensor.FusedStep{Code: tensor.FusedAdd}, true
	case "Mul":
		return tensor.FusedStep{Code: tensor.FusedMul}, true
	case "Maximum":
		return tensor.FusedStep{Code: tensor.FusedMaximum}, true
	case "Minimum":
		return tensor.FusedStep{Code: tensor.FusedMinimum}, true

	// Ordered binaries: the orientation picks the op code.
	case "Sub":
		if chainPos == 0 {
			return tensor.FusedStep{Code: tensor.FusedSub}, true
		}
		return tensor.FusedStep{Code: tensor.FusedRSub}, true
	case "Div":
		if chainPos == 0 {
			return tensor.FusedStep{Code: tensor.FusedDiv}, true
		}
		return tensor.FusedStep{Code: tensor.FusedRDiv}, true

	// ScaleByScalar(x, s) is x * s.Item(); s is a size-1 tensor in every
	// well-formed graph (it is the gradient of a scalar loss), so
	// multiplying by the broadcast extra is the same expression.
	case "ScaleByScalar":
		if chainPos == 0 {
			return tensor.FusedStep{Code: tensor.FusedMul}, true
		}

	// Gradient gates: only specific positions have a pointwise form.
	case "ReLUGrad": // (x, grad)
		if chainPos == 1 {
			return tensor.FusedStep{Code: tensor.FusedReLUGate}, true
		}
		return tensor.FusedStep{Code: tensor.FusedReLUMask}, true
	case "SigmoidGradFromOut": // (out, grad): chain must be the grad
		if chainPos == 1 {
			return tensor.FusedStep{Code: tensor.FusedSigmoidGradOut}, true
		}
	case "TanhGradFromOut":
		if chainPos == 1 {
			return tensor.FusedStep{Code: tensor.FusedTanhGradOut}, true
		}
	}
	return tensor.FusedStep{}, false
}

func fusableBinary(op string) bool {
	switch op {
	case "Add", "Sub", "Mul", "Div", "Maximum", "Minimum", "ScaleByScalar",
		"ReLUGrad", "SigmoidGradFromOut", "TanhGradFromOut":
		return true
	}
	return false
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

	// fusableAt reports whether n can join a chain with the incoming value at
	// input chainPos, and returns its program step.
	fusableAt := func(n *graph.Node, chainPos int) (tensor.FusedStep, bool) {
		if n.Op == "Fused" || n.NumOutputs > 1 || len(n.ControlDeps) > 0 {
			return tensor.FusedStep{}, false
		}
		if def := graph.Lookup(n.Op); def != nil && def.SideEffect {
			return tensor.FusedStep{}, false
		}
		switch len(n.Inputs) {
		case 1:
			if chainPos != 0 || fusableBinary(n.Op) {
				return tensor.FusedStep{}, false
			}
		case 2:
			if !fusableBinary(n.Op) {
				return tensor.FusedStep{}, false
			}
		default:
			return tensor.FusedStep{}, false
		}
		return fuseStep(n, chainPos)
	}

	inChain := make(map[*graph.Node]bool)
	fused := 0
	for _, head := range g.Nodes {
		if inChain[head] {
			continue
		}
		// The head consumes its chain value at input 0 by convention.
		if _, ok := fusableAt(head, 0); !ok {
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
			if _, ok := fusableAt(next, pos); !ok {
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
			step, _ := fusableAt(n, poss[i])
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
