// Package cpufeat reports the instruction-set extensions the step's
// assembly kernels need, read once from the processor at start-up. Kernels
// choose their path from it; the pure-Go loops beside them are the
// reference and the path on every other CPU and architecture.
package cpufeat

// AVX2 reports that the processor implements AVX2 and that the operating
// system saves the YMM registers across context switches (OSXSAVE set and
// XCR0 enabling the SSE and AVX state), so 256-bit kernels may run.
var AVX2 = detectAVX2()

// FMA reports that the processor implements the fused multiply-add
// instructions (CPUID leaf 1, ECX bit 12) and that the operating system
// saves the YMM registers they use.
//
// The exponential kernels need it for exactness, not speed: math.Exp's
// amd64 assembly evaluates its reduction and Taylor chain with fused
// multiply-adds exactly when the processor has AVX and FMA, and with
// separately rounded ones otherwise. The vector port reproduces the fused
// form, so it matches math.Exp bit for bit only where FMA is present.
var FMA = detectFMA()
