//go:build apcm_avx2

#include "textflag.h"

// AVX2 bodies for the word kernels in kernels.go. Conventions shared by
// every routine here:
//
//   - DI = dst base, CX = dst word count, DX = running word index. The
//     vector blocks process 8 (or 4) words per iteration via unaligned
//     YMM loads/stores — slab pointers are 8-byte aligned, not 32 — and
//     a scalar tail finishes the remainder, so every length including
//     zero is handled.
//   - The emptiness kernels accumulate the OR of every result word in
//     Y3 (vector part) and AX (scalar tail), reduced at the end:
//     lane-fold Y3 down to one qword, OR into AX, return.
//   - Go assembler operand order for VPANDN/ANDNQ is reversed from the
//     Intel manual: VPANDN src2, src1, dst computes dst = ^src1 & src2.
//     Every use below relies on that to get dst &^ src in one op.
//   - R15 is avoided throughout (reserved when dynamic linking).
//
// The sparse scatter loops are scalar by nature (one random
// read-modify-write per id); their win over the Go twins is
// SHLX/ANDN — flagless shifts by an arbitrary register count with no
// CL shuffling. They require BMI1+BMI2, which detectAVX2 gates
// alongside AVX2 itself.

// func orWordsAVX2(dst, src []uint64)
TEXT ·orWordsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ DX, DX

or_blk8:
	LEAQ 8(DX), BX
	CMPQ BX, CX
	JA   or_tail
	VMOVDQU (DI)(DX*8), Y0
	VMOVDQU 32(DI)(DX*8), Y1
	VPOR    (SI)(DX*8), Y0, Y0
	VPOR    32(SI)(DX*8), Y1, Y1
	VMOVDQU Y0, (DI)(DX*8)
	VMOVDQU Y1, 32(DI)(DX*8)
	MOVQ BX, DX
	JMP  or_blk8

or_tail:
	CMPQ DX, CX
	JGE  or_done
	MOVQ (SI)(DX*8), AX
	ORQ  AX, (DI)(DX*8)
	INCQ DX
	JMP  or_tail

or_done:
	VZEROUPPER
	RET

// func copyWordsAVX2(dst, src []uint64)
TEXT ·copyWordsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ DX, DX

cp_blk8:
	LEAQ 8(DX), BX
	CMPQ BX, CX
	JA   cp_tail
	VMOVDQU (SI)(DX*8), Y0
	VMOVDQU 32(SI)(DX*8), Y1
	VMOVDQU Y0, (DI)(DX*8)
	VMOVDQU Y1, 32(DI)(DX*8)
	MOVQ BX, DX
	JMP  cp_blk8

cp_tail:
	CMPQ DX, CX
	JGE  cp_done
	MOVQ (SI)(DX*8), AX
	MOVQ AX, (DI)(DX*8)
	INCQ DX
	JMP  cp_tail

cp_done:
	VZEROUPPER
	RET

// func andNotWordsAVX2(dst, src []uint64) uint64
TEXT ·andNotWordsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	XORQ DX, DX

an_blk8:
	LEAQ 8(DX), BX
	CMPQ BX, CX
	JA   an_tail
	VMOVDQU (SI)(DX*8), Y1
	VMOVDQU 32(SI)(DX*8), Y2
	VPANDN  (DI)(DX*8), Y1, Y0      // Y0 = dst &^ src
	VPANDN  32(DI)(DX*8), Y2, Y4
	VMOVDQU Y0, (DI)(DX*8)
	VMOVDQU Y4, 32(DI)(DX*8)
	VPOR Y0, Y3, Y3
	VPOR Y4, Y3, Y3
	MOVQ BX, DX
	JMP  an_blk8

an_tail:
	CMPQ DX, CX
	JGE  an_reduce
	MOVQ (SI)(DX*8), R9
	NOTQ R9
	ANDQ (DI)(DX*8), R9
	MOVQ R9, (DI)(DX*8)
	ORQ  R9, AX
	INCQ DX
	JMP  an_tail

an_reduce:
	VEXTRACTI128 $1, Y3, X4
	VPOR    X4, X3, X3
	VPSHUFD $0x4E, X3, X4           // swap the two qword lanes
	VPOR    X4, X3, X3
	VMOVQ   X3, R9
	ORQ     R9, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func andUnionWordsAVX2(dst, sat, mask []uint64) uint64
TEXT ·andUnionWordsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ sat_base+24(FP), SI
	MOVQ mask_base+48(FP), R8
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	XORQ DX, DX

au_blk8:
	LEAQ 8(DX), BX
	CMPQ BX, CX
	JA   au_tail
	VMOVDQU (SI)(DX*8), Y0          // sat
	VMOVDQU 32(SI)(DX*8), Y1
	VPANDN  (R8)(DX*8), Y0, Y0      // ^sat & mask = the dying bits
	VPANDN  32(R8)(DX*8), Y1, Y1
	VPANDN  (DI)(DX*8), Y0, Y0      // dst &^ dying = dst & (sat|^mask)
	VPANDN  32(DI)(DX*8), Y1, Y1
	VMOVDQU Y0, (DI)(DX*8)
	VMOVDQU Y1, 32(DI)(DX*8)
	VPOR Y0, Y3, Y3
	VPOR Y1, Y3, Y3
	MOVQ BX, DX
	JMP  au_blk8

au_tail:
	CMPQ DX, CX
	JGE  au_reduce
	MOVQ  (SI)(DX*8), R10           // sat
	ANDNQ (R8)(DX*8), R10, R9       // R9 = ^sat & mask
	NOTQ  R9
	ANDQ  (DI)(DX*8), R9
	MOVQ  R9, (DI)(DX*8)
	ORQ   R9, AX
	INCQ  DX
	JMP   au_tail

au_reduce:
	VEXTRACTI128 $1, Y3, X4
	VPOR    X4, X3, X3
	VPSHUFD $0x4E, X3, X4
	VPOR    X4, X3, X3
	VMOVQ   X3, R9
	ORQ     R9, AX
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// func popcntWordsAVX2(w []uint64) int
//
// Scalar POPCNTQ, 4-wide with four accumulators; the temp register is
// re-zeroed each use to break POPCNT's false output dependency.
TEXT ·popcntWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	XORQ AX, AX
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	XORQ DX, DX

pc_blk4:
	LEAQ 4(DX), BX
	CMPQ BX, CX
	JA   pc_tail
	XORQ R12, R12
	XORQ R13, R13
	XORQ R14, R14
	XORQ SI, SI
	POPCNTQ (DI)(DX*8), R12
	POPCNTQ 8(DI)(DX*8), R13
	POPCNTQ 16(DI)(DX*8), R14
	POPCNTQ 24(DI)(DX*8), SI
	ADDQ R12, R8
	ADDQ R13, R9
	ADDQ R14, R10
	ADDQ SI, R11
	MOVQ BX, DX
	JMP  pc_blk4

pc_tail:
	CMPQ DX, CX
	JGE  pc_done
	XORQ R12, R12
	POPCNTQ (DI)(DX*8), R12
	ADDQ R12, AX
	INCQ DX
	JMP  pc_tail

pc_done:
	ADDQ R8, AX
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+24(FP)
	RET

// func sparseSetWordsAVX2(dst []uint64, ids []int32)
TEXT ·sparseSetWordsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ ids_base+24(FP), SI
	MOVQ ids_len+32(FP), CX
	XORQ DX, DX

ss_loop:
	CMPQ DX, CX
	JGE  ss_done
	MOVLQSX (SI)(DX*4), BX
	MOVQ  BX, R8
	SHRQ  $6, R8
	MOVQ  $1, R9
	SHLXQ BX, R9, R9                // 1 << (id & 63): SHLX masks the count
	ORQ   R9, (DI)(R8*8)
	INCQ  DX
	JMP   ss_loop

ss_done:
	RET

// func sparseClearWordsAVX2(dst []uint64, ids []int32)
TEXT ·sparseClearWordsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ ids_base+24(FP), SI
	MOVQ ids_len+32(FP), CX
	XORQ DX, DX

sc_loop:
	CMPQ DX, CX
	JGE  sc_done
	MOVLQSX (SI)(DX*4), BX
	MOVQ  BX, R8
	SHRQ  $6, R8
	MOVQ  $1, R9
	SHLXQ BX, R9, R9
	NOTQ  R9
	ANDQ  R9, (DI)(R8*8)
	INCQ  DX
	JMP   sc_loop

sc_done:
	RET
