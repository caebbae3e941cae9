package tensor

import (
	"fmt"
	"math"
)

// This file implements the composed destination-passing kernel behind the
// graph optimizer's elementwise-chain fusion pass: a chain of single-consumer
// elementwise nodes collapses into one Fused node whose attrs carry a small
// op-code program, and the executor dispatches the whole chain as a single
// kernel call. The win is one dispatch (~270 ns, DESIGN.md §5) plus one
// intermediate-buffer round trip per fused-away node per replay.
//
// Bit-exactness: every op code applies exactly the same float64 expression as
// the standalone kernel it replaces (AddInto, ReLUInto, ...), and elementwise
// math is pointwise, so evaluating the whole chain per element produces the
// same bits as evaluating it per op. Shapes the single-loop fast path cannot
// index (general broadcasting) fall back to a stepwise interpretation that
// runs the very same ZipInto/MapInto code paths the unfused graph would.

// FusedOpCode selects one step of a fused elementwise program.
type FusedOpCode uint8

const (
	// Binary codes combine the flowing chain value v with an extra operand
	// e: v ⊕ e. The R variants are the swapped orientation (e ⊕ v) for
	// chains that enter a non-commutative op's second input.
	FusedAdd FusedOpCode = iota
	FusedSub
	FusedRSub
	FusedMul
	FusedDiv
	FusedRDiv
	FusedMaximum
	FusedMinimum
	// FusedReLUGate is ReLUGrad with the chain flowing through the
	// gradient: v if e > 0 else 0. FusedReLUMask is the other orientation
	// (chain is the pre-activation): e if v > 0 else 0.
	FusedReLUGate
	FusedReLUMask
	// FusedSigmoidGradOut / FusedTanhGradOut are SigmoidGradFromOut /
	// TanhGradFromOut with the chain flowing through the gradient operand.
	FusedSigmoidGradOut
	FusedTanhGradOut
	// Unary codes transform v alone.
	FusedNeg
	FusedAbs
	FusedExp
	FusedLog
	FusedReLU
	FusedSigmoid
	FusedTanh
)

// Valid reports whether c is one of the codes above.
func (c FusedOpCode) Valid() bool { return c <= FusedTanh }

// fusedBinary reports whether the code consumes an extra operand.
func fusedBinary(c FusedOpCode) bool { return c <= FusedTanhGradOut }

// FusedStep is one instruction of a fused elementwise program.
type FusedStep struct {
	Code FusedOpCode
	// Arg indexes the extras slice for binary codes (-1 for unary).
	Arg int
}

// fusedBlockElems is the tile size of the fast path: the chain value
// block lives in an 8 KiB stack buffer (L1-resident), and each program
// step runs as one tight loop over the block — the op-code switch costs
// once per step per block instead of once per step per element.
const fusedBlockElems = 512

// fusedBlockApply evaluates one step over a chain-value block in place.
// Binary codes read the extra block e (gathered by the caller, same
// length as b); unary codes ignore it. Each arm applies exactly the same
// float64 expression as the standalone kernel it replaces — the blocked
// loop only reorders iteration, never the per-element math, so fused
// evaluation stays bit-identical.
func fusedBlockApply(st FusedStep, b, e []float64) {
	switch st.Code {
	case FusedAdd:
		for j := range b {
			b[j] += e[j]
		}
	case FusedSub:
		for j := range b {
			b[j] -= e[j]
		}
	case FusedRSub:
		for j := range b {
			b[j] = e[j] - b[j]
		}
	case FusedMul:
		for j := range b {
			b[j] *= e[j]
		}
	case FusedDiv:
		for j := range b {
			b[j] /= e[j]
		}
	case FusedRDiv:
		for j := range b {
			b[j] = e[j] / b[j]
		}
	case FusedMaximum:
		for j := range b {
			b[j] = math.Max(b[j], e[j])
		}
	case FusedMinimum:
		for j := range b {
			b[j] = math.Min(b[j], e[j])
		}
	case FusedReLUGate:
		for j := range b {
			// Not e[j] <= 0: a NaN gate must zero the value, as in ReLUGradInto.
			if !(e[j] > 0) {
				b[j] = 0
			}
		}
	case FusedReLUMask:
		for j := range b {
			if b[j] > 0 {
				b[j] = e[j]
			} else {
				b[j] = 0
			}
		}
	case FusedSigmoidGradOut:
		for j := range b {
			b[j] = b[j] * (e[j] * (1 - e[j]))
		}
	case FusedTanhGradOut:
		for j := range b {
			b[j] = b[j] * (1 - e[j]*e[j])
		}
	case FusedNeg:
		for j := range b {
			b[j] = -b[j]
		}
	case FusedAbs:
		for j := range b {
			b[j] = math.Abs(b[j])
		}
	case FusedExp:
		for j := range b {
			b[j] = math.Exp(b[j])
		}
	case FusedLog:
		for j := range b {
			b[j] = math.Log(b[j])
		}
	case FusedReLU:
		for j := range b {
			b[j] = max(b[j], 0)
		}
	case FusedSigmoid:
		for j := range b {
			b[j] = 1 / (1 + math.Exp(-b[j]))
		}
	case FusedTanh:
		for j := range b {
			b[j] = math.Tanh(b[j])
		}
	default:
		panic(fmt.Sprintf("tensor: unknown fused op code %d", st.Code))
	}
}

// fusedApply evaluates one step on chain value v with extra operand e
// (ignored by unary codes). Each arm mirrors the standalone kernel's
// expression exactly so fused evaluation is bit-identical.
func fusedApply(st FusedStep, v, e float64) float64 {
	switch st.Code {
	case FusedAdd:
		return v + e
	case FusedSub:
		return v - e
	case FusedRSub:
		return e - v
	case FusedMul:
		return v * e
	case FusedDiv:
		return v / e
	case FusedRDiv:
		return e / v
	case FusedMaximum:
		return math.Max(v, e)
	case FusedMinimum:
		return math.Min(v, e)
	case FusedReLUGate:
		if e > 0 {
			return v
		}
		return 0
	case FusedReLUMask:
		if v > 0 {
			return e
		}
		return 0
	case FusedSigmoidGradOut:
		return v * (e * (1 - e))
	case FusedTanhGradOut:
		return v * (1 - e*e)
	case FusedNeg:
		return -v
	case FusedAbs:
		return math.Abs(v)
	case FusedExp:
		return math.Exp(v)
	case FusedLog:
		return math.Log(v)
	case FusedReLU:
		return max(v, 0)
	case FusedSigmoid:
		return 1 / (1 + math.Exp(-v))
	case FusedTanh:
		return math.Tanh(v)
	}
	panic(fmt.Sprintf("tensor: unknown fused op code %d", st.Code))
}

// FusedShape returns the output shape of a fused program applied to x with
// the given extras: x's shape folded through each binary step's broadcast.
func FusedShape(x *Tensor, extras []*Tensor, prog []FusedStep) ([]int, error) {
	sh := x.shape
	for _, st := range prog {
		if !fusedBinary(st.Code) {
			continue
		}
		if st.Arg < 0 || st.Arg >= len(extras) {
			return nil, fmt.Errorf("tensor: fused step arg %d outside %d extras", st.Arg, len(extras))
		}
		var err error
		if sh, err = BroadcastShapes(sh, extras[st.Arg].shape); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// fusedExtraIndex computes the fast-path indexing mode of one extra against
// the chain shape: mod == 0 means direct index i (same shape), mod > 0 means
// i % mod (the extra's shape is a suffix of the chain's, including the
// scalar case mod == 1). ok == false means the extra needs general
// broadcasting and the fast path cannot run.
func fusedExtraIndex(chain []int, e *Tensor) (mod int, ok bool) {
	if ShapeEq(e.shape, chain) {
		return 0, true
	}
	// Suffix broadcast: shape [d_k..d_n] against chain [d_0..d_n] indexes
	// contiguously as i % size. Leading 1-dims on the extra are fine.
	es := e.shape
	for len(es) > 0 && es[0] == 1 {
		es = es[1:]
	}
	if len(es) > len(chain) {
		return 0, false
	}
	for i := range es {
		if es[i] != chain[len(chain)-len(es)+i] {
			return 0, false
		}
	}
	return max(e.Size(), 1), true
}

// FusedElementwiseInto evaluates the fused program over x and extras into
// dst, renting any scratch from alloc. dst may alias x when shapes match
// (index i is read before it is written); extras must not alias dst. The
// common case — every binary operand same-shape, scalar, or a trailing-dims
// broadcast of the chain — runs as a single parallel loop; anything else
// falls back to stepwise evaluation with the exact unfused kernel semantics.
func FusedElementwiseInto(dst, x *Tensor, extras []*Tensor, prog []FusedStep, alloc Allocator) *Tensor {
	sh, err := FusedShape(x, extras, prog)
	if err != nil {
		panic(err)
	}
	checkDst(dst, sh, "FusedElementwiseInto")
	fast := ShapeEq(sh, x.shape)
	mods := make([]int, len(extras))
	if fast {
		for i, e := range extras {
			var ok bool
			if mods[i], ok = fusedExtraIndex(x.shape, e); !ok {
				fast = false
				break
			}
		}
	}
	if fast {
		dd, xd := dst.data, x.data
		parallelRanges(len(xd), len(xd)*(len(prog)+1)*4, func(lo, hi int) {
			// The chain block rides an L1-resident stack buffer; extras that
			// broadcast are gathered into a second one so every step arm is a
			// straight slice loop. dst may alias x: each block reads its x
			// window fully before its dst window is written.
			var buf, ebuf [fusedBlockElems]float64
			for base := lo; base < hi; base += fusedBlockElems {
				n := min(fusedBlockElems, hi-base)
				b := buf[:n]
				copy(b, xd[base:base+n])
				for _, st := range prog {
					var e []float64
					if fusedBinary(st.Code) {
						ed, mod := extras[st.Arg].data, mods[st.Arg]
						if mod == 0 {
							e = ed[base : base+n]
						} else {
							e = ebuf[:n]
							for j := 0; j < n; j++ {
								e[j] = ed[(base+j)%mod]
							}
						}
					}
					fusedBlockApply(st, b, e)
				}
				copy(dd[base:base+n], b)
			}
		})
		return dst
	}
	// Slow path: step-by-step through scratch, using the same generic
	// broadcasting kernels the unfused graph would have dispatched.
	alloc = orHeap(alloc)
	cur := x
	for _, st := range prog {
		step := st
		var nxt *Tensor
		if fusedBinary(st.Code) {
			e := extras[st.Arg]
			csh, err := BroadcastShapes(cur.shape, e.shape)
			if err != nil {
				panic(err)
			}
			nxt = alloc.Get(csh...)
			ZipInto(nxt, cur, e, func(v, ev float64) float64 { return fusedApply(step, v, ev) })
		} else {
			nxt = alloc.Get(cur.shape...)
			MapInto(nxt, cur, func(v float64) float64 { return fusedApply(step, v, 0) })
		}
		if cur != x {
			alloc.Put(cur)
		}
		cur = nxt
	}
	CopyInto(dst, cur)
	if cur != x {
		alloc.Put(cur)
	}
	return dst
}
