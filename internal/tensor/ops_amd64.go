package tensor

// expAVX2 replaces x[0:n], n a positive multiple of 4 and at most 64, with
// math.Exp of each element, four lanes at a time, and returns a mask with
// bit j set for each lane outside [-708, 709] or NaN: those lanes keep
// their argument, and the caller computes them with math.Exp. Needs AVX2
// and FMA.
//
//go:noescape
func expAVX2(x *float64, n int) (bad uint64)

// expSumAVX2 replaces x[j] with float32(math.Exp(float64(x[j]-max))) and
// adds the float64 exponential to *sum, in ascending j, for j < n, n a
// multiple of 4, four lanes at a time. It stops before the first group of
// four with an argument outside [-708, 709] or NaN, and returns how many
// elements it covered. Needs AVX2 and FMA.
//
//go:noescape
func expSumAVX2(x *float32, n int, max float32, sum *float64) (done int)

// geluAVX2 applies GELU's scalar expression to x[0:n] in place, n a
// positive multiple of 4, four lanes at a time. Needs AVX2 and FMA.
//
//go:noescape
func geluAVX2(x *float32, n int)

// scaleMaxAVX2 multiplies x[0:n], n a positive multiple of 8, by scale in
// place and returns the largest product; which one is unspecified when a
// product is NaN. Needs AVX.
//
//go:noescape
func scaleMaxAVX2(x *float32, n int, scale float32) (max float32)

// mulAVX2 multiplies x[0:n], n a positive multiple of 8, by s in place.
// Needs AVX.
//
//go:noescape
func mulAVX2(x *float32, n int, s float32)
