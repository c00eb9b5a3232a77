//go:build !amd64

package quant

// Without assembly kernels useAVX2 is never set; this keeps the portable
// caller compiling.
func dequant4AVX2(dst *float32, src *byte, table *[16]float32, n int) {
	panic("quant: no AVX2 kernel on this architecture")
}
