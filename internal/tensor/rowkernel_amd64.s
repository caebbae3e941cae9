#include "textflag.h"

// func rowKernelAVX2(o, a, b []float64, ldb int)
//
// o[j] += Σ_k a[k]·b[k·ldb+j] for j < len(o), k ascending. The columns of o
// are taken in chunks of 16, 8 and 4 (four, two and one YMM accumulators),
// then one at a time. A chunk is loaded once, receives every k in order as a
// VMULPD of the broadcast a[k] followed by a VADDPD — two roundings per
// term, as in scalar Go, never an FMA — and is stored once.
//
// Registers: DI o chunk, CX columns left, SI a, R8 len(a), DX b chunk,
// R9 ldb in bytes; R10/R11/R12 walk a, b and k within a chunk.
TEXT ·rowKernelAVX2(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), DX
	MOVQ ldb+72(FP), R9
	SHLQ $3, R9

cols16:
	CMPQ CX, $16
	JLT  cols8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

k16:
	VBROADCASTSD (R10), Y4
	VMULPD (R11), Y4, Y5
	VMULPD 32(R11), Y4, Y6
	VMULPD 64(R11), Y4, Y7
	VMULPD 96(R11), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  k16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  cols16

cols8:
	CMPQ CX, $8
	JLT  cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

k8:
	VBROADCASTSD (R10), Y4
	VMULPD (R11), Y4, Y5
	VMULPD 32(R11), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  k8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX

cols4:
	CMPQ CX, $4
	JLT  cols1
	VMOVUPD (DI), Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

k4:
	VBROADCASTSD (R10), Y4
	VMULPD (R11), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  k4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX

cols1:
	TESTQ CX, CX
	JZ    done
	VMOVSD (DI), X0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

k1:
	VMOVSD (R10), X4
	VMULSD (R11), X4, X5
	VADDSD X5, X0, X0
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  k1
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JMP  cols1

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
