package data

import (
	"math"
	"testing"

	"repro/internal/minipy"
	"repro/internal/tensor"
)

func TestSynthImagesShapesAndLabels(t *testing.T) {
	d := SynthImages(tensor.NewRNG(1), 20, 1, 8, 8, 4)
	if len(d.X) != 20 || len(d.Y) != 20 {
		t.Fatalf("count %d/%d", len(d.X), len(d.Y))
	}
	for i, x := range d.X {
		if !tensor.ShapeEq(x.Shape(), []int{1, 8, 8}) {
			t.Fatalf("image %d shape %v", i, x.Shape())
		}
		if d.Y[i] < 0 || d.Y[i] >= 4 {
			t.Fatalf("label %d out of range", d.Y[i])
		}
	}
	x, y := d.Batch(0, 5)
	if !tensor.ShapeEq(x.Shape(), []int{5, 1, 8, 8}) || !tensor.ShapeEq(y.Shape(), []int{5, 4}) {
		t.Fatalf("batch shapes %v %v", x.Shape(), y.Shape())
	}
	// Batches wrap deterministically.
	x2, _ := d.Batch(4, 5) // starts at index 20 % 20 = 0
	if !tensor.Equal(x, x2) {
		t.Fatal("wraparound batch differs")
	}
}

func TestSynthImagesClassesAreSeparable(t *testing.T) {
	d := SynthImages(tensor.NewRNG(2), 40, 1, 8, 8, 2)
	// Mean image of class 0 must differ from class 1 substantially.
	m := map[int]*tensor.Tensor{0: tensor.Zeros(1, 8, 8), 1: tensor.Zeros(1, 8, 8)}
	n := map[int]int{}
	for i, x := range d.X {
		m[d.Y[i]] = tensor.Add(m[d.Y[i]], x)
		n[d.Y[i]]++
	}
	if n[0] == 0 || n[1] == 0 {
		t.Skip("degenerate class split")
	}
	d0 := tensor.MulScalar(m[0], 1/float64(n[0]))
	d1 := tensor.MulScalar(m[1], 1/float64(n[1]))
	diff := 0.0
	for i, v := range d0.Data() {
		diff += math.Abs(v - d1.Data()[i])
	}
	if diff < 1 {
		t.Fatalf("classes not separable: diff %v", diff)
	}
}

func TestSynthSequencesStructure(t *testing.T) {
	s := SynthSequences(tensor.NewRNG(3), 10, 15, 32)
	if len(s.Tokens) != 10 {
		t.Fatalf("count %d", len(s.Tokens))
	}
	for _, seq := range s.Tokens {
		if len(seq) != 15 {
			t.Fatalf("length %d", len(seq))
		}
		for _, tok := range seq {
			if tok < 0 || tok >= 32 {
				t.Fatalf("token %d out of range", tok)
			}
		}
	}
	// Markov structure: the corpus must be more predictable than uniform.
	counts := map[[2]int]int{}
	total := 0
	for _, seq := range s.Tokens {
		for i := 0; i+1 < len(seq); i++ {
			counts[[2]int{seq[i], seq[i+1]}]++
			total++
		}
	}
	maxFrac := 0.0
	perFirst := map[int]int{}
	for k, c := range counts {
		perFirst[k[0]] += c
		_ = c
	}
	for k, c := range counts {
		f := float64(c) / float64(perFirst[k[0]])
		if f > maxFrac {
			maxFrac = f
		}
	}
	if maxFrac < 0.5 {
		t.Fatalf("no Markov structure: max conditional freq %v", maxFrac)
	}
	_ = total
}

func TestSynthTreesValidStructure(t *testing.T) {
	trees := SynthTrees(tensor.NewRNG(4), 20, 3, 8, 100)
	for _, tr := range trees {
		var check func(n *Tree)
		check = func(n *Tree) {
			if n.Leaf {
				if n.Left != nil || n.Right != nil {
					t.Fatal("leaf with children")
				}
				if n.Word < 0 || n.Word >= 100 {
					t.Fatalf("word %d", n.Word)
				}
				return
			}
			if n.Left == nil || n.Right == nil {
				t.Fatal("internal node missing children")
			}
			check(n.Left)
			check(n.Right)
		}
		check(tr)
		if tr.Size() < 5 { // 3 leaves -> >= 5 nodes
			t.Fatalf("tree too small: %d", tr.Size())
		}
		if tr.Depth() < 2 {
			t.Fatal("tree too shallow")
		}
		if tr.Label != 0 && tr.Label != 1 {
			t.Fatalf("label %d", tr.Label)
		}
	}
}

func TestTreeToMinipyObjectGraph(t *testing.T) {
	cls := &minipy.ClassVal{Name: "Node", Methods: map[string]*minipy.FuncVal{}}
	tr := SynthTrees(tensor.NewRNG(5), 1, 4, 4, 10)[0]
	obj := tr.ToMinipy(cls)
	if obj.Attrs["leaf"] != minipy.BoolVal(false) {
		t.Fatal("root should be internal")
	}
	left, ok := obj.Attrs["left"].(*minipy.ObjectVal)
	if !ok {
		t.Fatalf("left child is %T", obj.Attrs["left"])
	}
	_ = left
	// Count leaves through the object graph; must equal the tree's.
	var countLeaves func(o *minipy.ObjectVal) int
	countLeaves = func(o *minipy.ObjectVal) int {
		if o.Attrs["leaf"] == minipy.BoolVal(true) {
			return 1
		}
		return countLeaves(o.Attrs["left"].(*minipy.ObjectVal)) + countLeaves(o.Attrs["right"].(*minipy.ObjectVal))
	}
	if countLeaves(obj) != 4 {
		t.Fatalf("leaves %d want 4", countLeaves(obj))
	}
}

func TestSynthPaired(t *testing.T) {
	p := SynthPaired(tensor.NewRNG(6), 4, 1, 6, 6)
	if len(p.A) != 4 || len(p.B) != 4 {
		t.Fatal("pair count")
	}
	a, b := p.Batch(0, 2)
	if !tensor.ShapeEq(a.Shape(), []int{2, 1, 6, 6}) || !tensor.ShapeEq(b.Shape(), []int{2, 1, 6, 6}) {
		t.Fatalf("shapes %v %v", a.Shape(), b.Shape())
	}
	// B is a deterministic function of A: regenerating must match.
	p2 := SynthPaired(tensor.NewRNG(6), 4, 1, 6, 6)
	if !tensor.Equal(p.B[0], p2.B[0]) {
		t.Fatal("pairing not deterministic")
	}
}
