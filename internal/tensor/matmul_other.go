//go:build !amd64

package tensor

// Without assembly kernels useAVX2 is never set; these keep the portable
// callers compiling.

func accumRow8AVX2(c *float32, a *[8]float32, b *float32, stride, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func accumOneAVX2(c, b *float32, a float32, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride, rows int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func scoresV4AVX2(out *float32, outStride int, s *float32, sStride int, v *float32, vStride, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func scoresV1AVX2(out, s, v *float32, vStride, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
