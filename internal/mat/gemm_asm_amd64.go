package mat

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution.
// Implemented in gemm_amd64.s.
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512 foundation
// (AVX512F) execution, including OS-enabled ZMM/opmask state. Implemented in
// gemm_amd64.s.
func cpuHasAVX512() bool

// dotPack4x4 computes four 4-lane dot products over a shared k dimension:
// out[4j+l] = Σ_t pack[4t+l]·bj[t]. Implemented in gemm_amd64.s with AVX2
// mul-then-add per lane, bit-identical to scalar evaluation. Callers must
// have checked the active tier and k > 0.
//
// The assembly only dereferences its pointers during the call and retains
// none of them, so the noescape pragma is sound; without it every gemmBT
// call heap-allocates its 16-element accumulator tile, which dominated the
// allocation profile of batched training.
//
//go:noescape
func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64)

// dotPack8x4 computes four 8-lane dot products over a shared k dimension:
// out[8j+l] = Σ_t pack[8t+l]·bj[t]. Implemented in gemm_amd64.s with
// AVX-512 mul-then-add per lane — one ZMM lane per packed A row — so each
// output element is still a single ascending-k two-rounding chain,
// bit-identical to scalar evaluation. Callers must have checked the active
// tier and k > 0. Same noescape argument as dotPack4x4.
//
//go:noescape
func dotPack8x4(pack, b0, b1, b2, b3 *float64, k int, out *[32]float64)

// CPU capability of each microkernel tier on amd64; resolved once at
// startup.
var (
	haveAVX2   = cpuHasAVX2()
	haveAVX512 = cpuHasAVX512()
)
