package main

import (
	"fmt"

	"repro/internal/tensor"
)

// The three programs the workloads run, written in minipy like any user
// program. Sizes are chosen so one op takes 2-8 ms on two cores (README,
// "Sizes"); they are constants, never derived from the seed.
const (
	modelSeed    = 7 // parameter initialisation; the same for every run
	learningRate = 0.05

	cnnBatch   = 16
	cnnSide    = 16
	cnnC1      = 8
	cnnC2      = 16
	cnnClasses = 10
	cnnFlat    = cnnC2 * (cnnSide / 4) * (cnnSide / 4)
	cnnBatches = 64 // pool the train step cycles through

	treeHidden    = 8
	treeVocab     = 32
	treesPerOp    = 16
	treePoolSize  = 256
	treeMinLeaves = 2
	treeMaxLeaves = 8

	mlpIn     = 32
	mlpHidden = 64
	mlpOut    = 8
	mlpRows   = 1024 // pool of request rows
)

// cnnProgram is a LeNet-style static conv net: no data-dependent control
// flow, so the engine replays one static graph with baked-in gradient and
// update ops on the pooled memory plan. The reshape keeps the batch
// dimension open so dist-step can run the same source on half batches.
var cnnProgram = fmt.Sprintf(`
def cnn_loss(x, y):
    c1 = variable("cnn/c1", [%[1]d, 1, 3, 3])
    c2 = variable("cnn/c2", [%[2]d, %[1]d, 3, 3])
    fc = variable("cnn/fc", [%[3]d, %[4]d])
    b = variable("cnn/b", [%[4]d])
    h = relu(conv2d(x, c1, stride=1, pad=1))
    h = max_pool(h, 2, 2)
    h = relu(conv2d(h, c2, stride=1, pad=1))
    h = max_pool(h, 2, 2)
    flat = reshape(h, [-1, %[3]d])
    logits = matmul(flat, fc) + b
    return cross_entropy(logits, y)

def train_step(x, y):
    return optimize(lambda: cnn_loss(x, y))
`, cnnC1, cnnC2, cnnFlat, cnnClasses)

// treeProgram is a binary TreeLSTM. tlstm_node recurses over per-sample heap
// objects, so the converted graph is Invoke/Switch/Merge dataflow whose
// gradients come from the executor's trace tape; the memory plan is
// bypassed. train_step picks its trees from the injected pool by index.
var treeProgram = fmt.Sprintf(`
def tlstm_node(node):
    emb = variable("tlstm/emb", [%[1]d, %[2]d])
    wi = variable("tlstm/wi", [%[3]d, %[2]d])
    wf = variable("tlstm/wf", [%[3]d, %[2]d])
    wo = variable("tlstm/wo", [%[3]d, %[2]d])
    wu = variable("tlstm/wu", [%[3]d, %[2]d])
    if node.leaf:
        h = embedding(emb, [node.word])
        return [h, h]
    left = tlstm_node(node.left)
    right = tlstm_node(node.right)
    hs = concat([left[0], right[0]], 1)
    i = sigmoid(matmul(hs, wi))
    f = sigmoid(matmul(hs, wf))
    o = sigmoid(matmul(hs, wo))
    u = tanh(matmul(hs, wu))
    c = i * u + f * (left[1] + right[1])
    h = o * tanh(c)
    return [h, c]

def tlstm_loss(trees):
    proj = variable("tlstm/proj", [%[2]d, 2])
    total = constant(0.0)
    for t in trees:
        hc = tlstm_node(t)
        logits = matmul(hc[0], proj)
        total = total + cross_entropy(logits, one_hot([t.label], 2))
    return total / float(len(trees))

def train_step(idx):
    batch = []
    for j in range(len(idx)):
        batch = batch + [tree_pool[int(idx[j])]]
    return optimize(lambda: tlstm_loss(batch))
`, treeVocab, treeHidden, 2*treeHidden)

// mlpProgram is the small inference model serve-call posts rows to.
var mlpProgram = fmt.Sprintf(`
def predict(x):
    w1 = variable("mlp/w1", [%[1]d, %[2]d])
    b1 = variable("mlp/b1", [%[2]d])
    w2 = variable("mlp/w2", [%[2]d, %[2]d])
    b2 = variable("mlp/b2", [%[2]d])
    w3 = variable("mlp/w3", [%[2]d, %[3]d])
    h = relu(matmul(x, w1) + b1)
    h = relu(matmul(h, w2) + b2)
    return matmul(h, w3)
`, mlpIn, mlpHidden, mlpOut)

// kernelCall is one direct call into internal/tensor at a shape the compiled
// graph uses. A kernel script is the bottom rung of the bypass ladder: the
// arithmetic of one op with no interpreter, engine, executor or tape around
// it. Destinations are preallocated, so a script measures compute only and
// allocation shows up in the layer above.
type kernelCall struct {
	kind   string  // "conv2d", "matmul" or "other"
	flops  float64 // multiply-adds x2, conv2d and matmul only
	repeat int     // times per op (tree cells repeat per node)
	run    func()
	phase  int // phaseForward, phaseBackward or phaseUpdate
}

func scriptFlops(script []kernelCall) float64 {
	total := 0.0
	for _, k := range script {
		total += k.flops * float64(k.repeat)
	}
	return total
}

func matmulCall(dst, a, b *tensor.Tensor, repeat int) kernelCall {
	return kernelCall{kind: "matmul", flops: 2 * float64(a.Dim(0)*a.Dim(1)*b.Dim(1)), repeat: repeat,
		run: func() { tensor.MatMulInto(dst, a, b) }}
}

func other(repeat int, run func()) kernelCall {
	return kernelCall{kind: "other", repeat: repeat, run: run}
}

// in marks the calls of a script as running in the given phase of an op.
func in(phase int, calls ...kernelCall) []kernelCall {
	for i := range calls {
		calls[i].phase = phase
	}
	return calls
}

// cnnKernels mirrors the optimized train graph of cnnProgram for a batch of
// rows (Im2Col shared between each convolution and its filter gradient, as
// the im2col pass leaves it), including the four SGD updates.
func cnnKernels(rows int) []kernelCall {
	rng := tensor.NewRNG(1)
	pool := tensor.NewPool()
	z := tensor.Zeros
	half, quarter := cnnSide/2, cnnSide/4
	x := rng.Randn(rows, 1, cnnSide, cnnSide)
	w1, w2 := rng.Randn(cnnC1, 1, 3, 3), rng.Randn(cnnC2, cnnC1, 3, 3)
	fc, b := rng.Randn(cnnFlat, cnnClasses), rng.Randn(cnnClasses)
	y := tensor.Zeros(rows, cnnClasses)
	for r := 0; r < rows; r++ {
		y.Set(1, r, r%cnnClasses)
	}
	r1c, c1c := tensor.Im2ColShape(x.Shape(), w1.Shape(), 1, 1)
	col1, a1, h1, p1 := z(r1c, c1c), z(rows, cnnC1, cnnSide, cnnSide), z(rows, cnnC1, cnnSide, cnnSide), z(rows, cnnC1, half, half)
	r2c, c2c := tensor.Im2ColShape(p1.Shape(), w2.Shape(), 1, 1)
	col2, a2, h2, p2 := z(r2c, c2c), z(rows, cnnC2, half, half), z(rows, cnnC2, half, half), z(rows, cnnC2, quarter, quarter)
	flat := p2.Reshape(rows, cnnFlat)
	logits, biased, loss, dlogits := z(rows, cnnClasses), z(rows, cnnClasses), z(), z(rows, cnnClasses)
	db, flatT, dfc, fcT, dflat := z(cnnClasses), z(cnnFlat, rows), z(cnnFlat, cnnClasses), z(cnnClasses, cnnFlat), z(rows, cnnFlat)
	dh2, da2, dw2, dp1 := z(rows, cnnC2, half, half), z(rows, cnnC2, half, half), z(cnnC2, cnnC1, 3, 3), z(rows, cnnC1, half, half)
	dh1, da1, dw1 := z(rows, cnnC1, cnnSide, cnnSide), z(rows, cnnC1, cnnSide, cnnSide), z(cnnC1, 1, 3, 3)
	convFlops := func(out *tensor.Tensor, ckk int) float64 {
		return 2 * float64(out.Size()) * float64(ckk)
	}
	conv := func(flops float64, run func()) kernelCall {
		return kernelCall{kind: "conv2d", flops: flops, repeat: 1, run: run}
	}
	// The update writes to scratch so the script's values never drift.
	sgd := func(w, g *tensor.Tensor) kernelCall {
		step, next := z(w.Shape()...), z(w.Shape()...)
		return other(1, func() { tensor.MulScalarInto(step, g, learningRate); tensor.SubInto(next, w, step) })
	}
	forward := in(phaseForward,
		conv(0, func() { tensor.Im2ColInto(col1, x, w1, 1, 1, pool) }),
		conv(convFlops(a1, c1c), func() { tensor.Conv2DFromColInto(a1, col1, w1, rows, cnnSide, cnnSide, pool) }),
		other(1, func() { tensor.ReLUInto(h1, a1); tensor.MaxPool2DInto(p1, h1, 2, 2) }),
		conv(0, func() { tensor.Im2ColInto(col2, p1, w2, 1, 1, pool) }),
		conv(convFlops(a2, c2c), func() { tensor.Conv2DFromColInto(a2, col2, w2, rows, half, half, pool) }),
		other(1, func() { tensor.ReLUInto(h2, a2); tensor.MaxPool2DInto(p2, h2, 2, 2) }),
		matmulCall(logits, flat, fc, 1),
		other(1, func() {
			tensor.AddInto(biased, logits, b)
			tensor.CrossEntropyInto(loss, biased, y, pool)
		}),
	)
	backward := in(phaseBackward,
		other(1, func() {
			tensor.CrossEntropyGradInto(dlogits, biased, y)
			tensor.UnbroadcastToInto(db, dlogits)
			tensor.TransposeInto(flatT, flat)
			tensor.TransposeInto(fcT, fc)
		}),
		matmulCall(dfc, flatT, dlogits, 1),
		matmulCall(dflat, dlogits, fcT, 1),
		other(1, func() {
			tensor.MaxPool2DGradInto(dh2, h2, 2, 2, dflat.Reshape(rows, cnnC2, quarter, quarter))
			tensor.ReLUGradInto(da2, a2, dh2)
		}),
		conv(convFlops(a2, c2c), func() { tensor.Conv2DGradFilterFromColInto(dw2, col2, da2, pool) }),
		conv(convFlops(a2, c2c), func() { tensor.Conv2DGradInputInto(dp1, p1, w2, da2, 1, 1, pool) }),
		other(1, func() {
			tensor.MaxPool2DGradInto(dh1, h1, 2, 2, dp1)
			tensor.ReLUGradInto(da1, a1, dh1)
		}),
		conv(convFlops(a1, c1c), func() { tensor.Conv2DGradFilterFromColInto(dw1, col1, da1, pool) }),
	)
	update := in(phaseUpdate, sgd(w1, dw1), sgd(w2, dw2), sgd(fc, dfc), sgd(b, db))
	return append(append(forward, backward...), update...)
}

// treeKernels is the arithmetic of one train-tree op: a TreeLSTM cell forward
// and backward per internal node, an embedding row per leaf, a projection and
// loss per tree, and the parameter update. All matrices are [1,16]x[16,8] or
// smaller.
func treeKernels(internal, leaves, trees int) []kernelCall {
	rng := tensor.NewRNG(1)
	h, h2 := treeHidden, 2*treeHidden
	z := tensor.Zeros
	hs, hsT := rng.Randn(1, h2), z(h2, 1)
	w, wT, dw, g16 := rng.Randn(h2, h), z(h, h2), z(h2, h), rng.Randn(h2, h)
	pre, gate, g, dhs := z(1, h), z(1, h), rng.Randn(1, h), z(1, h2)
	emb, row := rng.Randn(treeVocab, h), z(1, h)
	proj, projT, logits, dproj := rng.Randn(h, 2), z(2, h), z(1, 2), z(h, 2)
	label, loss, dlogits := tensor.OneHot([]int{1}, 2), z(), z(1, 2)
	elementwise := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				tensor.MulInto(gate, pre, g)
			}
		}
	}
	forward := in(phaseForward,
		// Forward cell: four gate matmuls, three sigmoids, two tanh, and the
		// seven multiplies and adds that combine them.
		matmulCall(pre, hs, w, 4*internal),
		other(3*internal, func() { tensor.SigmoidInto(gate, pre) }),
		other(2*internal, func() { tensor.TanhInto(gate, pre) }),
		other(internal, elementwise(7)),
		other(leaves, func() { tensor.CopyInto(row, tensor.Gather(emb, []int{3})) }),
		matmulCall(logits, g, proj, trees),
		other(trees, func() { tensor.CrossEntropyInto(loss, logits, label, nil) }),
	)
	backward := in(phaseBackward,
		// Backward cell: per gate a weight gradient hs^T.g, an input
		// gradient g.W^T and the transposes they need, plus about twenty
		// elementwise ops for the gate derivatives and accumulations.
		other(4*internal, func() { tensor.TransposeInto(hsT, hs); tensor.TransposeInto(wT, w) }),
		matmulCall(dw, hsT, g, 4*internal),
		matmulCall(dhs, g, wT, 4*internal),
		other(internal, elementwise(20)),
		// Leaves: one row of gradient back into the embedding table.
		other(leaves, func() { tensor.AddInto(row, row, g) }),
		// Per tree: the gradients of the projection and the loss.
		other(trees, func() {
			tensor.CrossEntropyGradInto(dlogits, logits, label)
			tensor.TransposeInto(projT, proj)
		}),
		matmulCall(dproj, tensor.Zeros(h, 1), dlogits, trees),
		matmulCall(pre, dlogits, projT, trees),
	)
	// The update: one scaled subtract per parameter tensor.
	update := in(phaseUpdate,
		other(5, func() { tensor.MulScalarInto(dw, g16, learningRate); tensor.SubInto(dw, w, dw) }),
	)
	return append(append(forward, backward...), update...)
}

// mlpKernels is the forward pass of mlpProgram for a batch of rows.
func mlpKernels(rows int) []kernelCall {
	rng := tensor.NewRNG(1)
	z := tensor.Zeros
	x := rng.Randn(rows, mlpIn)
	w1, b1 := rng.Randn(mlpIn, mlpHidden), rng.Randn(mlpHidden)
	w2, b2 := rng.Randn(mlpHidden, mlpHidden), rng.Randn(mlpHidden)
	w3 := rng.Randn(mlpHidden, mlpOut)
	a1, a2, out := z(rows, mlpHidden), z(rows, mlpHidden), z(rows, mlpOut)
	return in(phaseForward,
		matmulCall(a1, x, w1, 1),
		other(1, func() { tensor.AddInto(a1, a1, b1); tensor.ReLUInto(a1, a1) }),
		matmulCall(a2, a1, w2, 1),
		other(1, func() { tensor.AddInto(a2, a2, b2); tensor.ReLUInto(a2, a2) }),
		matmulCall(out, a2, w3, 1),
	)
}
