package passes

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The four scalar cleanup passes, ported from the original graph.Optimize.
// They correspond to the "further optimized by the post-processor" step in
// the paper's §3.1 and to the +SPCN ablation knob in Figure 7: when
// speculation replaced dynamic values with constants, folding and CSE find
// much more to do.

// constantFold evaluates pure nodes whose inputs are all Consts.
func constantFold(g *graph.Graph) int {
	changed := 0
	for _, n := range g.Nodes {
		def := graph.Lookup(n.Op)
		if n.Op == "Const" || !def.Foldable() || def.SideEffect || len(n.ControlDeps) > 0 {
			continue
		}
		if len(n.Inputs) == 0 {
			continue
		}
		allConst := true
		in := make([]graph.Val, len(n.Inputs))
		for i, p := range n.Inputs {
			if p.Node.Op != "Const" || p.Out != 0 {
				allConst = false
				break
			}
			in[i] = p.Node.Attr("value")
		}
		if !allConst {
			continue
		}
		out, err := def.Eval(n, in)
		if err != nil {
			continue
		}
		// Rewrite the node in place into a Const (keeps IDs stable).
		n.Op = "Const"
		n.Inputs = nil
		n.Attrs = map[string]graph.Val{"value": out}
		changed++
	}
	return changed
}

// signature produces a structural hash key for CSE.
func signature(n *graph.Node) string {
	var b strings.Builder
	b.WriteString(n.Op)
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "|%d:%d", in.Node.ID, in.Out)
	}
	// Sort attr keys for a stable signature.
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := n.Attrs[k]
		switch x := v.(type) {
		case *tensor.Tensor:
			if x.Size() <= 16 {
				fmt.Fprintf(&b, "|%s=%v%v", k, x.Shape(), x.Data())
			} else {
				// Large constants: identity only (conservative, no merge).
				fmt.Fprintf(&b, "|%s=@%p", k, x)
			}
		case []int:
			fmt.Fprintf(&b, "|%s=%v", k, x)
		default:
			fmt.Fprintf(&b, "|%s=%v", k, v)
		}
	}
	return b.String()
}

// commonSubexpr merges structurally identical pure nodes.
func commonSubexpr(g *graph.Graph) int {
	changed := 0
	seen := make(map[string]*graph.Node)
	for _, n := range g.Nodes {
		if def := graph.Lookup(n.Op); !def.Foldable() || def.SideEffect || len(n.ControlDeps) > 0 || n.NumOutputs != 1 {
			continue
		}
		sig := signature(n)
		if prev, ok := seen[sig]; ok && prev != n {
			graph.ReplaceUses(g, n.P(), prev.P())
			changed++
			continue
		}
		seen[sig] = n
	}
	return changed
}

// deadCodeElim removes nodes not reachable from outputs, updates, or
// side-effecting nodes.
func deadCodeElim(g *graph.Graph) int {
	live := make(map[*graph.Node]bool)
	var mark func(n *graph.Node)
	mark = func(n *graph.Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, in := range n.Inputs {
			mark(in.Node)
		}
		for _, d := range n.ControlDeps {
			mark(d)
		}
	}
	for _, o := range g.Outputs {
		mark(o.Node)
	}
	for _, u := range g.Updates {
		mark(u)
	}
	for _, n := range g.Nodes {
		if def := graph.Lookup(n.Op); def != nil && def.SideEffect {
			mark(n)
		}
	}
	removed := 0
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if live[n] {
			kept = append(kept, n)
		} else {
			removed++
		}
	}
	g.Nodes = kept
	return removed
}

// simplifyArithmetic applies algebraic identities: x+0, 0+x, x-0, x*1, 1*x,
// x/1, x**1.
func simplifyArithmetic(g *graph.Graph) int {
	changed := 0
	isConstScalar := func(p graph.Port, want float64) bool {
		if p.Node.Op != "Const" {
			return false
		}
		t, err := graph.AsTensor(p.Node.Attr("value"))
		if err != nil || t.Size() != 1 {
			return false
		}
		return t.Item() == want
	}
	for _, n := range g.Nodes {
		if len(n.Inputs) != 2 {
			continue
		}
		a, b := n.Inputs[0], n.Inputs[1]
		var repl *graph.Port
		switch n.Op {
		case "Add":
			if isConstScalar(a, 0) {
				repl = &b
			} else if isConstScalar(b, 0) {
				repl = &a
			}
		case "Sub":
			if isConstScalar(b, 0) {
				repl = &a
			}
		case "Mul":
			if isConstScalar(a, 1) {
				repl = &b
			} else if isConstScalar(b, 1) {
				repl = &a
			}
		case "Div":
			if isConstScalar(b, 1) {
				repl = &a
			}
		case "Pow":
			if isConstScalar(b, 1) {
				repl = &a
			}
		}
		if repl != nil {
			// The identity may change shape via broadcasting only when the
			// scalar side broadcasts; replacing with the non-scalar side is
			// shape-preserving.
			graph.ReplaceUses(g, n.P(), *repl)
			changed++
		}
	}
	return changed
}
