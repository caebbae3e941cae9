//go:build !amd64

package tensor

// useAVX2 is false off amd64: rowKernel always runs rowKernelGo.
const useAVX2 = false

// rowKernelAVX2 exists so rowKernel compiles everywhere; it is never called.
func rowKernelAVX2(o, a, b []float64, ldb int) { rowKernelGo(o, a, b, ldb) }
