package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/data"
	"repro/internal/tensor"
)

// Every input is drawn here from the run's seed; the program under test only
// ever receives the generated tensors, trees and request bodies. Sizes that
// decide how much work an op is (batch, image side, leaves per tree, row
// width) are constants, so a different seed changes values and tree shapes
// but not the amount of work — which is what lets runs on different seeds be
// compared.

// inputHasher fingerprints generated inputs so two runs can show they saw
// the same bytes.
type inputHasher struct{ h hash.Hash }

func newInputHasher() *inputHasher { return &inputHasher{h: sha256.New()} }

func (ih *inputHasher) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		ih.h.Write(b[:])
	}
}

func (ih *inputHasher) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		ih.h.Write(b[:])
	}
}

func (ih *inputHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }

// imageBatch is one training batch: images [B,1,H,W] and one-hot labels.
type imageBatch struct{ x, y *tensor.Tensor }

// genImageBatches draws the pool of batches train-cnn and dist-step cycle
// through.
func genImageBatches(seed uint64, n int) ([]imageBatch, string) {
	rng := tensor.NewRNG(seed)
	ih := newInputHasher()
	out := make([]imageBatch, n)
	for i := range out {
		x := rng.Randn(cnnBatch, 1, cnnSide, cnnSide)
		y := tensor.Zeros(cnnBatch, cnnClasses)
		for r := 0; r < cnnBatch; r++ {
			y.Set(1, r, rng.Intn(cnnClasses))
		}
		ih.floats(x.Data())
		ih.floats(y.Data())
		out[i] = imageBatch{x, y}
	}
	return out, ih.sum()
}

// treeLeaves is the leaf count of pool tree i. It depends on the position
// only, so every seed trains on the same number of cells per op; the seed
// decides each tree's shape (and so its depth), words and labels.
func treeLeaves(i int) int { return treeMinLeaves + i%(treeMaxLeaves-treeMinLeaves+1) }

// genTrees draws the pool of random binary trees train-tree samples from.
func genTrees(seed uint64, n int) ([]*data.Tree, string) {
	rng := tensor.NewRNG(seed)
	ih := newInputHasher()
	var build func(leaves int) *data.Tree
	build = func(leaves int) *data.Tree {
		if leaves == 1 {
			w := rng.Intn(treeVocab)
			ih.ints(1, w)
			return &data.Tree{Leaf: true, Word: w, Label: w % 2}
		}
		l := 1 + rng.Intn(leaves-1)
		ih.ints(0, l)
		left, right := build(l), build(leaves-l)
		return &data.Tree{Left: left, Right: right, Label: left.Label ^ right.Label}
	}
	out := make([]*data.Tree, n)
	for i := range out {
		out[i] = build(treeLeaves(i))
	}
	return out, ih.sum()
}

// treeNodes counts the internal nodes and leaves of a tree.
func treeNodes(t *data.Tree) (internal, leaves int) {
	if t.Leaf {
		return 0, 1
	}
	li, ll := treeNodes(t.Left)
	ri, rl := treeNodes(t.Right)
	return li + ri + 1, ll + rl
}

// genRows draws the pool of request rows serve-call posts.
func genRows(seed uint64, n int) ([]*tensor.Tensor, string) {
	rng := tensor.NewRNG(seed)
	ih := newInputHasher()
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = rng.Randn(1, mlpIn)
		ih.floats(out[i].Data())
	}
	return out, ih.sum()
}
