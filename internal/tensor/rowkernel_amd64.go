package tensor

// useAVX2 selects the assembly row kernel. It is fixed at start-up by what
// the CPU and OS support; nothing else chooses between the two bodies.
var useAVX2 = detectAVX2()

// rowKernelAVX2 is rowKernel's AVX2 body (rowkernel_amd64.s). It assumes
// len(o) > 0, len(a) > 0 and that b holds (len(a)-1)*ldb+len(o) elements;
// rowKernel checks all three.
//
//go:noescape
func rowKernelAVX2(o, a, b []float64, ldb int)

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the OS-enabled state mask.
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves the
// XMM and YMM register state across context switches.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if eax, _ := xgetbv(); eax&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
