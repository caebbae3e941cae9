package graph

// Ops the executor implements itself (internal/exec/nodes.go): feeds and
// parameters, state mutation, assertions, control flow and heap access. They
// have no kernel here — so they are never folded or merged — and are
// registered for the facts the planner and the passes need.
//
// Heap reads (PyGetAttr/PyGetSubscr) are gradient stops, matching how TF
// treats values read from external Python state: the carried RNN state
// receives no gradient across iteration boundaries. Control flow has no rule:
// a loss through it makes Gradients fail, and the graph trains on the trace
// tape (DESIGN.md §3.1). Invoke, While, Loop and the heap ops are not
// ReadsOnly: values crossing a subgraph or heap boundary may be retained, so
// their inputs stay pinned.
func init() {
	register(
		OpDef{Name: "Placeholder", StopGrad: true},
		// The executor snapshots the parameter, so the read is fresh.
		OpDef{Name: "Variable", StopGrad: true, Fresh: true},
		OpDef{Name: "AssignSub", ReadsOnly: true, SideEffect: true},
		OpDef{Name: "Assert", ReadsOnly: true, SideEffect: true, StopGrad: true},
		OpDef{Name: "Print", ReadsOnly: true, SideEffect: true, StopGrad: true},
		OpDef{Name: "NoOp", ReadsOnly: true, SideEffect: true},
		// BatchNorm updates its running statistics; its gradient is a
		// pass-through, matching the eager engine's approximation.
		OpDef{Name: "BatchNorm", ReadsOnly: true, Fresh: true, SideEffect: true,
			Grad: gradIdentity},
		OpDef{Name: "Switch", ReadsOnly: true},
		OpDef{Name: "Merge", ReadsOnly: true},
		OpDef{Name: "Invoke"},
		OpDef{Name: "While"},
		OpDef{Name: "Loop"},
		OpDef{Name: "PyGetAttr", StopGrad: true},
		OpDef{Name: "PyGetSubscr", StopGrad: true},
		OpDef{Name: "PySetAttr", SideEffect: true},
		OpDef{Name: "PySetSubscr", SideEffect: true},
	)
}
