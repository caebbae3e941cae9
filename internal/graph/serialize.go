package graph

// This file implements the versioned, canonical wire encoding of compiled
// graphs that backs the persistent artifact cache (internal/core/artifact.go):
// a restarted janusd loads serialized graphs at boot and serves its first
// request warm instead of re-converting its workload. The same bytes double
// as a structural-equality witness — two graphs are merge-compatible for the
// shape-bucketed cache exactly when their canonical encodings are identical —
// so the encoding must be deterministic (encoding/json sorts attribute keys)
// and bit-exact for floats (IEEE-754 bits, never decimal text, so NaN
// payloads and signed zeros survive).
//
// Only values that actually occur in compiled graphs encode: scalars,
// strings, []int shapes, tensors, nested subgraphs (Invoke/While/Loop
// bodies) and fused elementwise programs. Graphs holding opaque heap
// references (boxed minipy objects in Const nodes) are not serializable;
// MarshalGraph reports an error and the artifact saver skips that entry
// rather than persisting a dangling pointer.

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// maxPorts bounds a decoded node's output count and every port index: the
// executor sizes per-port tables from them, so an unbounded value from a
// corrupt artifact would be an allocation of any size. Compiled graphs stay
// far below it (a Loop's outputs are named program variables).
const maxPorts = 1 << 12

// SerialVersion identifies the graph wire encoding. Bump on any change to
// the graphPB/attrPB schema; artifacts carrying another version are rejected
// at load (the replica falls back to a cold compile). A change to what an op
// computes keeps the encoding and bumps core.ArtifactVersion instead.
const SerialVersion = 1

type graphPB struct {
	V       int      `json:"v"`
	Nodes   []nodePB `json:"nodes"`
	Outputs []portPB `json:"outputs,omitempty"`
	Updates []int    `json:"updates,omitempty"`
}

type nodePB struct {
	ID    int               `json:"id"`
	Op    string            `json:"op"`
	Name  string            `json:"name,omitempty"`
	In    []portPB          `json:"in,omitempty"`
	Ctrl  []int             `json:"ctrl,omitempty"`
	Attrs map[string]attrPB `json:"attrs,omitempty"`
	Outs  int               `json:"outs,omitempty"` // NumOutputs when != 1
}

// portPB references a node by its index in the nodes slice (not its ID:
// IDs are unique but need not be dense).
type portPB struct {
	N int `json:"n"`
	O int `json:"o,omitempty"`
}

// attrPB is the tagged union of attribute values. Exactly one payload field
// is set, selected by T.
type attrPB struct {
	T string `json:"t"`
	// I carries "int" payloads and, as IEEE-754 bits, "float" payloads
	// (JSON cannot represent NaN/Inf and decimal text is not bit-faithful).
	I      uint64    `json:"i,omitempty"`
	B      bool      `json:"b,omitempty"`
	S      string    `json:"s,omitempty"`
	Ints   []int     `json:"ints,omitempty"`
	Tensor *tensorPB `json:"tensor,omitempty"`
	Graph  *graphPB  `json:"graph,omitempty"`
	Fused  []fusedPB `json:"fused,omitempty"`
}

type tensorPB struct {
	Shape []int `json:"shape"`
	// Data is the base64 of the little-endian IEEE-754 bit patterns.
	Data string `json:"data"`
}

// fusedPB is one fused step. Encodings from before the Scale op was
// removed also carry a "scalar" key, which decoding ignores: it was zero on
// every code that still exists.
type fusedPB struct {
	Code uint8 `json:"code"`
	Arg  int   `json:"arg"`
}

// MarshalGraph encodes g into the canonical wire form. The encoding is
// deterministic: the same graph structure always yields the same bytes, so
// callers may compare encodings for structural equality (see CanonicalBytes).
func MarshalGraph(g *Graph) ([]byte, error) {
	pb, err := encodeGraph(g, map[*Graph]bool{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(pb)
}

// UnmarshalGraph decodes the wire form produced by MarshalGraph into a fresh
// graph. Node identity is rebuilt (new *Node values, same IDs); the decoded
// graph carries no executor plan.
func UnmarshalGraph(data []byte) (*Graph, error) {
	var pb graphPB
	if err := json.Unmarshal(data, &pb); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return decodeGraph(&pb)
}

// CanonicalBytes is MarshalGraph under its equality-witness name: two graphs
// are structurally identical (same ops, wiring, attributes, constants bit
// for bit) iff their canonical bytes are equal.
func CanonicalBytes(g *Graph) ([]byte, error) { return MarshalGraph(g) }

// encodeGraph encodes g; open holds the graphs enclosing it, so a recursive
// function's self-invoking subgraph is an error, not endless recursion.
func encodeGraph(g *Graph, open map[*Graph]bool) (*graphPB, error) {
	if open[g] {
		return nil, fmt.Errorf("graph: a recursive subgraph has no wire form")
	}
	open[g] = true
	defer delete(open, g)
	index := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		index[n] = i
	}
	pb := &graphPB{V: SerialVersion, Nodes: make([]nodePB, len(g.Nodes))}
	for i, n := range g.Nodes {
		np := nodePB{ID: n.ID, Op: n.Op, Name: n.Name}
		if n.NumOutputs != 1 {
			np.Outs = n.NumOutputs
		}
		for _, in := range n.Inputs {
			j, ok := index[in.Node]
			if !ok {
				return nil, fmt.Errorf("graph: node %d (%s) input references a node outside the graph", n.ID, n.Op)
			}
			np.In = append(np.In, portPB{N: j, O: in.Out})
		}
		for _, d := range n.ControlDeps {
			j, ok := index[d]
			if !ok {
				return nil, fmt.Errorf("graph: node %d (%s) control dep references a node outside the graph", n.ID, n.Op)
			}
			np.Ctrl = append(np.Ctrl, j)
		}
		if len(n.Attrs) > 0 {
			np.Attrs = make(map[string]attrPB, len(n.Attrs))
			for k, v := range n.Attrs {
				av, err := encodeAttr(v, open)
				if err != nil {
					return nil, fmt.Errorf("graph: node %d (%s) attr %q: %w", n.ID, n.Op, k, err)
				}
				np.Attrs[k] = av
			}
		}
		pb.Nodes[i] = np
	}
	for _, o := range g.Outputs {
		j, ok := index[o.Node]
		if !ok {
			return nil, fmt.Errorf("graph: output references a node outside the graph")
		}
		pb.Outputs = append(pb.Outputs, portPB{N: j, O: o.Out})
	}
	for _, u := range g.Updates {
		j, ok := index[u]
		if !ok {
			return nil, fmt.Errorf("graph: update references a node outside the graph")
		}
		pb.Updates = append(pb.Updates, j)
	}
	return pb, nil
}

func decodeGraph(pb *graphPB) (*Graph, error) {
	if pb.V != SerialVersion {
		return nil, fmt.Errorf("graph: wire version %d, want %d", pb.V, SerialVersion)
	}
	g := New()
	nodes := make([]*Node, len(pb.Nodes))
	maxID := -1
	for i, np := range pb.Nodes {
		outs := np.Outs
		if outs < 0 || outs > maxPorts {
			return nil, fmt.Errorf("graph: node %d has %d outputs", np.ID, outs)
		}
		if outs == 0 {
			outs = 1
		}
		nodes[i] = &Node{ID: np.ID, Op: np.Op, Name: np.Name, NumOutputs: outs, Attrs: map[string]Val{}}
		if np.ID > maxID {
			maxID = np.ID
		}
	}
	ref := func(p portPB) (Port, error) {
		if p.N < 0 || p.N >= len(nodes) {
			return Port{}, fmt.Errorf("graph: port references node %d of %d", p.N, len(nodes))
		}
		if p.O < 0 || p.O >= maxPorts {
			return Port{}, fmt.Errorf("graph: port references output %d", p.O)
		}
		return Port{Node: nodes[p.N], Out: p.O}, nil
	}
	for i, np := range pb.Nodes {
		n := nodes[i]
		for _, in := range np.In {
			p, err := ref(in)
			if err != nil {
				return nil, err
			}
			n.Inputs = append(n.Inputs, p)
		}
		for _, j := range np.Ctrl {
			if j < 0 || j >= len(nodes) {
				return nil, fmt.Errorf("graph: control dep references node %d of %d", j, len(nodes))
			}
			n.ControlDeps = append(n.ControlDeps, nodes[j])
		}
		for k, av := range np.Attrs {
			v, err := decodeAttr(av)
			if err != nil {
				return nil, fmt.Errorf("graph: node %d (%s) attr %q: %w", np.ID, np.Op, k, err)
			}
			n.Attrs[k] = v
		}
	}
	g.Nodes = nodes
	for _, o := range pb.Outputs {
		p, err := ref(o)
		if err != nil {
			return nil, err
		}
		g.Outputs = append(g.Outputs, p)
	}
	for _, j := range pb.Updates {
		if j < 0 || j >= len(nodes) {
			return nil, fmt.Errorf("graph: update references node %d of %d", j, len(nodes))
		}
		g.Updates = append(g.Updates, nodes[j])
	}
	g.nextID = maxID + 1
	return g, nil
}

func encodeAttr(v Val, open map[*Graph]bool) (attrPB, error) {
	switch x := v.(type) {
	case nil:
		return attrPB{T: "nil"}, nil
	case int:
		return attrPB{T: "int", I: uint64(int64(x))}, nil
	case int64:
		return attrPB{T: "int", I: uint64(x)}, nil
	case float64:
		return attrPB{T: "float", I: math.Float64bits(x)}, nil
	case bool:
		return attrPB{T: "bool", B: x}, nil
	case string:
		return attrPB{T: "str", S: x}, nil
	case []int:
		if x == nil {
			x = []int{}
		}
		return attrPB{T: "ints", Ints: x}, nil
	case *tensor.Tensor:
		return attrPB{T: "tensor", Tensor: encodeTensor(x)}, nil
	case *Graph:
		sub, err := encodeGraph(x, open)
		if err != nil {
			return attrPB{}, err
		}
		return attrPB{T: "graph", Graph: sub}, nil
	case []tensor.FusedStep:
		steps := make([]fusedPB, len(x))
		for i, s := range x {
			steps[i] = fusedPB{Code: uint8(s.Code), Arg: s.Arg}
		}
		return attrPB{T: "fused", Fused: steps}, nil
	default:
		return attrPB{}, fmt.Errorf("unserializable value of type %T", v)
	}
}

func decodeAttr(av attrPB) (Val, error) {
	switch av.T {
	case "nil":
		return nil, nil
	case "int":
		return int(int64(av.I)), nil
	case "float":
		return math.Float64frombits(av.I), nil
	case "bool":
		return av.B, nil
	case "str":
		return av.S, nil
	case "ints":
		if av.Ints == nil {
			return []int{}, nil
		}
		return av.Ints, nil
	case "tensor":
		if av.Tensor == nil {
			return nil, fmt.Errorf("tensor attr without payload")
		}
		return decodeTensor(av.Tensor)
	case "graph":
		if av.Graph == nil {
			return nil, fmt.Errorf("graph attr without payload")
		}
		return decodeGraph(av.Graph)
	case "fused":
		steps := make([]tensor.FusedStep, len(av.Fused))
		for i, s := range av.Fused {
			code := tensor.FusedOpCode(s.Code)
			if !code.Valid() {
				return nil, fmt.Errorf("unknown fused op code %d", s.Code)
			}
			steps[i] = tensor.FusedStep{Code: code, Arg: s.Arg}
		}
		return steps, nil
	default:
		return nil, fmt.Errorf("unknown attr kind %q", av.T)
	}
}

func encodeTensor(t *tensor.Tensor) *tensorPB {
	data := t.Data()
	raw := make([]byte, 8*len(data))
	for i, f := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(f))
	}
	shape := t.Shape()
	if shape == nil {
		shape = []int{}
	}
	return &tensorPB{Shape: shape, Data: base64.StdEncoding.EncodeToString(raw)}
}

// MarshalTensor encodes one tensor bit-exactly (shape plus the base64 of
// the little-endian IEEE-754 bit patterns) — the same encoding Const nodes
// use inside MarshalGraph. Artifact persistence uses it to snapshot model
// parameters alongside compiled graphs.
func MarshalTensor(t *tensor.Tensor) ([]byte, error) {
	return json.Marshal(encodeTensor(t))
}

// UnmarshalTensor inverts MarshalTensor.
func UnmarshalTensor(data []byte) (*tensor.Tensor, error) {
	var pb tensorPB
	if err := json.Unmarshal(data, &pb); err != nil {
		return nil, fmt.Errorf("tensor: decode: %w", err)
	}
	return decodeTensor(&pb)
}

func decodeTensor(pb *tensorPB) (*tensor.Tensor, error) {
	raw, err := base64.StdEncoding.DecodeString(pb.Data)
	if err != nil {
		return nil, fmt.Errorf("tensor data: %w", err)
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("tensor data length %d not a multiple of 8", len(raw))
	}
	// The product of the nonzero dims must fit an int even when another dim
	// is zero: kernels stride over prefix products of the shape.
	n, empty := 1, false
	for _, d := range pb.Shape {
		switch {
		case d < 0:
			return nil, fmt.Errorf("tensor shape %v has negative dim", pb.Shape)
		case d == 0:
			empty = true
		case n > math.MaxInt/d:
			return nil, fmt.Errorf("tensor shape %v overflows int", pb.Shape)
		default:
			n *= d
		}
	}
	if empty {
		n = 0
	}
	if len(raw)/8 != n {
		return nil, fmt.Errorf("tensor shape %v wants %d elements, data holds %d", pb.Shape, n, len(raw)/8)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return tensor.New(pb.Shape, data), nil
}
