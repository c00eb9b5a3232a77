//go:build !amd64

package tensor

// Without assembly kernels useAVX2 is never set; these keep the portable
// callers compiling.

func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride, rows int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func tile4x16AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride, k int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func row1x64AVX2(c, a, b *float32, bStride, k int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func row1x16AVX2(c, a, b *float32, bStride, k int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
