package tensor

import (
	"fmt"
	"math/bits"
)

// Every dense product in this package — MatMulInto, the convolution forward
// pass and both convolution gradients — is a loop of calls to one row kernel:
//
//	o[j] += Σ_k a[k]·b[k·ldb+j]   for j < len(o), k ascending.
//
// Each output cell is a single running sum: starting from o[j], it adds the
// rounded product a[k]·b[k·ldb+j] for k = 0, 1, 2, ... in turn. Products are
// never fused into an FMA and sums are never reassociated, so every caller
// reproduces the rounding of the scalar loop nest it replaced bit for bit,
// and the naive oracles in the tests pin the kernels exactly.
//
// On amd64 CPUs with AVX2 whose OS saves the YMM registers, the kernel is
// assembly (rowkernel_amd64.s) that holds 16, 8 or 4 output columns in
// registers across the whole k loop with VMULPD then VADDPD — the same two
// roundings per term as the scalar code. Everywhere else it is rowKernelGo.

// rowKernel computes o[j] += Σ_k a[k]·b[k·ldb+j] for every j < len(o), in
// ascending k. o must not overlap a or b. It checks that b holds every
// element it reads before dispatching, because the assembly body checks
// nothing.
func rowKernel(o, a, b []float64, ldb int) {
	if len(o) == 0 || len(a) == 0 {
		return
	}
	// The last row read ends at (len(a)-1)*ldb + len(o); the 128-bit
	// product cannot overflow.
	if hi, lo := bits.Mul64(uint64(len(a)-1), uint64(ldb)); ldb < 0 || len(o) > len(b) || hi != 0 || lo > uint64(len(b)-len(o)) {
		rowKernelOutOfBounds(o, a, b, ldb)
	}
	if useAVX2 {
		rowKernelAVX2(o, a, b, ldb)
		return
	}
	rowKernelGo(o, a, b, ldb)
}

// rowKernelOutOfBounds is rowKernel's panic, kept out of line so the check
// costs rowKernel nothing when it passes.
//
//go:noinline
func rowKernelOutOfBounds(o, a, b []float64, ldb int) {
	panic(fmt.Sprintf("tensor: row kernel reads %d rows of %d at stride %d from %d elements",
		len(a), len(o), ldb, len(b)))
}

// rowKernelGo is the portable body of rowKernel (no bounds pre-check; Go's
// own checks apply). Four k per pass over o halve the loads and stores of
// the output row without changing any cell's order of additions.
func rowKernelGo(o, a, b []float64, ldb int) {
	n := len(o)
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0 := b[k*ldb:][:n]
		b1 := b[(k+1)*ldb:][:n]
		b2 := b[(k+2)*ldb:][:n]
		b3 := b[(k+3)*ldb:][:n]
		for j := range o {
			// The conversions round each product before its add, which
			// forbids FMA fusion on platforms that have it.
			s := o[j] + float64(a0*b0[j])
			s += float64(a1 * b1[j])
			s += float64(a2 * b2[j])
			o[j] = s + float64(a3*b3[j])
		}
	}
	for ; k < len(a); k++ {
		av := a[k]
		brow := b[k*ldb:][:n]
		for j := range o {
			o[j] += float64(av * brow[j])
		}
	}
}

// matmulRows sets o = a × b for row-major a [m,k] and b [k,n], one row
// kernel call per output row. Large products split their rows across the
// kernel threads; small ones run inline and allocate nothing.
func matmulRows(o, a, b []float64, m, k, n int) {
	clear(o)
	if flops := 2 * m * k * n; kernelWorkers(m, flops) > 1 {
		parallelRanges(m, flops, func(i0, i1 int) { productRows(o, a, b, i0, i1, k, n) })
		return
	}
	productRows(o, a, b, 0, m, k, n)
}

// productRows accumulates rows [i0, i1) of a × b into o.
func productRows(o, a, b []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		rowKernel(o[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n)
	}
}
