// Fixtures mirroring the pure-Go fallbacks that stand in for the assembly
// microkernels on architectures without them (gemm_noasm.go). Type-checked
// under "repro/internal/mat"; the file name starts with "gemm" so the
// analyzer scopes it as kernel code.
package a

import "math"

// The fallback shape the packed kernels must match: one ascending-t chain
// per packed lane.
func dotPackFallback(pack, b0 []float64, k int, out *[4]float64) {
	var s0, s1 float64
	for t := 0; t < k; t++ {
		s0 += pack[4*t] * b0[t]
		s1 += pack[4*t+1] * b0[t]
	}
	out[0] = s0
	out[1] = s1
}

// math.FMA contracts multiply and add into one rounding — the Go-level twin
// of the VFMADD instructions the assembly tiers deliberately avoid.
func dotPackFMA(pack, b0 []float64, k int) float64 {
	var s float64
	for t := 0; t < k; t++ {
		s = math.FMA(pack[4*t], b0[t], s) // want "math.FMA rounds once"
	}
	return s
}

// FMA outside a loop is just as contract-breaking.
func fmaStep(a, b, acc float64) float64 {
	return math.FMA(a, b, acc) // want "math.FMA rounds once"
}

// A deliberately contracted reference path would carry its own parity
// tests; the annotation records that audit.
func fmaAudited(a, b, acc float64) float64 {
	return math.FMA(a, b, acc) //plmvet:allow(kernelpurity)
}
