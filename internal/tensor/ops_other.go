//go:build !amd64

package tensor

// Without assembly kernels useAVX2FMA is never set; these keep the portable
// callers compiling.

func expAVX2(x *float64, n int) (bad uint64) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func expSumAVX2(x *float32, n int, max float32, sum *float64) (done int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func geluAVX2(x *float32, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func scaleMaxAVX2(x *float32, n int, scale float32) (max float32) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func mulAVX2(x *float32, n int, s float32) {
	panic("tensor: no AVX2 kernel on this architecture")
}
