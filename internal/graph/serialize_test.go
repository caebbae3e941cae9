package graph

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// buildSerializeFixture assembles a graph exercising every serializable
// attribute kind: scalars, strings, shapes, tensors (with NaN/Inf/-0 data),
// a nested subgraph, a fused elementwise program, and multi-output nodes
// with control deps and updates.
func buildSerializeFixture() *Graph {
	g := New()
	x := g.Placeholder("x")
	w := g.Const(tensor.New([]int{2, 2}, []float64{1.5, math.NaN(), math.Inf(1), math.Copysign(0, -1)}))
	mm := g.Add("MatMul", nil, x.P(), w.P())
	rs := g.Add("Reshape", map[string]Val{"shape": []int{-1, 4}, "inShape": []int{2, 2}}, mm.P())
	sw := g.Add("Switch", map[string]Val{"p": true}, rs.P(), g.ConstVal(true).P())
	fused := g.Add("Fused", map[string]Val{
		"prog": []tensor.FusedStep{
			{Code: 3, Arg: 0},
			{Code: 7, Arg: -1},
		},
	}, sw.Out(0), w.P())
	sub := New()
	sp := sub.Placeholder("y")
	sub.Outputs = append(sub.Outputs, sub.Add("Neg", nil, sp.P()).P())
	inv := g.Add("Invoke", map[string]Val{"func": sub, "n": 1, "lr": 0.25, "name": "inner", "nilAttr": nil}, fused.P())
	upd := g.Add("AssignSub", map[string]Val{"name": "w", "lr": 0.5}, w.P(), inv.P())
	upd.ControlDeps = append(upd.ControlDeps, fused, inv)
	g.Outputs = append(g.Outputs, inv.P(), sw.Out(1))
	g.Updates = append(g.Updates, upd)
	return g
}

func TestGraphSerializeRoundTrip(t *testing.T) {
	g := buildSerializeFixture()
	buf, err := MarshalGraph(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	g2, err := UnmarshalGraph(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatalf("node count %d, want %d", g2.NumNodes(), g.NumNodes())
	}
	// Structural identity: re-encoding the decoded graph must reproduce the
	// original bytes exactly (this is the property the relax-merge equality
	// check and the artifact round-trip both rely on).
	buf2, err := MarshalGraph(g2)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("canonical bytes not stable across a round trip:\n%s\nvs\n%s", buf, buf2)
	}
	// Spot-check the lossy-prone payloads bit for bit.
	w2 := g2.Nodes[1].Attr("value").(*tensor.Tensor)
	want := []uint64{
		math.Float64bits(1.5), math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Copysign(0, -1)),
	}
	for i, f := range w2.Data() {
		if math.Float64bits(f) != want[i] {
			t.Fatalf("tensor elem %d: bits %x, want %x", i, math.Float64bits(f), want[i])
		}
	}
	if got := g2.Nodes[3].Attr("shape"); !reflect.DeepEqual(got, []int{-1, 4}) {
		t.Fatalf("shape attr = %v", got)
	}
	prog := g2.Nodes[6].Attr("prog").([]tensor.FusedStep)
	if len(prog) != 2 || prog[0].Code != 3 || prog[1].Code != 7 || prog[1].Arg != -1 {
		t.Fatalf("fused prog = %+v", prog)
	}
	sub := g2.Nodes[7].Attr("func").(*Graph)
	if sub.NumNodes() != 2 || sub.Nodes[1].Op != "Neg" {
		t.Fatalf("subgraph = %s", sub)
	}
	if v, ok := g2.Nodes[7].Attrs["nilAttr"]; !ok || v != nil {
		t.Fatalf("nil attr lost: %v %v", v, ok)
	}
	// Wiring: the decoded update node must control-depend on decoded nodes.
	u := g2.Updates[0]
	if len(u.ControlDeps) != 2 || u.ControlDeps[0] != g2.Nodes[6] || u.ControlDeps[1] != g2.Nodes[7] {
		t.Fatalf("control deps not rewired: %v", u.ControlDeps)
	}
	if g2.Outputs[1].Out != 1 || g2.Outputs[1].Node != g2.Nodes[5] {
		t.Fatalf("output port not rewired")
	}
	// Fresh node IDs must not collide with restored ones.
	n := g2.Add("Identity", nil, g2.Nodes[0].P())
	for _, old := range g2.Nodes[:g2.NumNodes()-1] {
		if old.ID == n.ID {
			t.Fatalf("new node reused ID %d", n.ID)
		}
	}
}

func TestGraphSerializeDeterministic(t *testing.T) {
	a, err := MarshalGraph(buildSerializeFixture())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalGraph(buildSerializeFixture())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two builds of the same graph encode differently")
	}
}

func TestGraphSerializeRejectsHeapRefs(t *testing.T) {
	g := New()
	g.ConstVal(struct{ X int }{1}) // stand-in for a boxed minipy object
	if _, err := MarshalGraph(g); err == nil {
		t.Fatal("expected error for unserializable const value")
	}
}

// TestGraphSerializeRejectsRecursiveSubgraph: a recursive function's
// subgraph Invokes itself; encoding it is an error, not a stack overflow.
func TestGraphSerializeRejectsRecursiveSubgraph(t *testing.T) {
	fg := New()
	fg.Outputs = []Port{fg.Add("Invoke", map[string]Val{"func": fg}, fg.Placeholder("x").P()).P()}
	g := New()
	g.Outputs = []Port{g.Add("Invoke", map[string]Val{"func": fg}, g.Placeholder("x").P()).P()}
	if _, err := MarshalGraph(g); err == nil {
		t.Fatal("expected error for a self-invoking subgraph")
	}
}

// TestFusedStepsFromOlderEncodingsDecode: encodings written while the Scale
// op existed carry a "scalar" key on every fused step. It decodes to the
// same program when it is zero, as on every code that still exists; the
// removed FusedScale code is rejected, never read as another step.
func TestFusedStepsFromOlderEncodingsDecode(t *testing.T) {
	fused := func(steps string) []byte {
		return []byte(`{"v":1,"nodes":[{"id":0,"op":"Placeholder"},{"id":1,"op":"Fused","in":[{"n":0}],` +
			`"attrs":{"prog":{"t":"fused","fused":[` + steps + `]}}}]}`)
	}
	g, err := UnmarshalGraph(fused(`{"code":12,"arg":-1,"scalar":0},{"code":3,"arg":0,"scalar":0}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []tensor.FusedStep{{Code: tensor.FusedNeg, Arg: -1}, {Code: tensor.FusedMul, Arg: 0}}
	if got := g.Nodes[1].Attr("prog"); !reflect.DeepEqual(got, want) {
		t.Fatalf("prog = %+v, want %+v", got, want)
	}
	// FusedScale was code 19, its multiplier in "scalar" (0.5 here).
	if _, err := UnmarshalGraph(fused(`{"code":19,"arg":0,"scalar":4602678819172646912}`)); err == nil {
		t.Fatal("a FusedScale step decoded")
	}
}

func TestGraphSerializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"v":999,"nodes":[]}`),
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Identity","in":[{"n":5}]}]}`),
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Const","attrs":{"value":{"t":"tensor","tensor":{"shape":[2],"data":"AAA="}}}}]}`),
		// Output counts and port indices size executor tables: negative or
		// huge ones are rejected before anything is allocated from them.
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Identity","outs":1073741824}]}`),
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Identity","outs":-2}]}`),
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Placeholder"}],"outputs":[{"n":0,"o":-1}]}`),
		[]byte(`{"v":1,"nodes":[{"id":0,"op":"Placeholder"},{"id":1,"op":"Neg","in":[{"n":0,"o":1073741824}]}]}`),
	}
	for i, c := range cases {
		if _, err := UnmarshalGraph(c); err == nil {
			t.Fatalf("case %d: expected decode error", i)
		}
	}
}

// TestUnmarshalTensorRejectsOverflowingShape: a shape whose element count
// wraps int (2^32 × 2^32 wraps to 0) must not decode against empty data.
func TestUnmarshalTensorRejectsOverflowingShape(t *testing.T) {
	for _, c := range []string{
		`{"shape":[4294967296,4294967296],"data":""}`,
		`{"shape":[0,4294967296,4294967296],"data":""}`,
		// (2^63-1)^2 wraps to 1, matching the one element of data.
		`{"shape":[9223372036854775807,9223372036854775807],"data":"AAAAAAAAAAA="}`,
	} {
		if tt, err := UnmarshalTensor([]byte(c)); err == nil {
			t.Fatalf("%s decoded to a tensor of shape %v", c, tt.Shape())
		}
	}
	tt, err := UnmarshalTensor([]byte(`{"shape":[0,4294967296],"data":""}`))
	if err != nil || tt.Size() != 0 {
		t.Fatalf("empty tensor with a large dim: %v, %v", tt, err)
	}
}
