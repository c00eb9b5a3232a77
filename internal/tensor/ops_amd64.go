package tensor

// expAVX2 replaces x[0:n], n a positive multiple of 4 and at most 64, with
// math.Exp of each element, four lanes at a time, and returns a mask with
// bit j set for each lane outside [-708, 709] or NaN: those lanes keep
// their argument, and the caller computes them with math.Exp. Needs AVX2
// and FMA.
//
//go:noescape
func expAVX2(x *float64, n int) (bad uint64)

// geluAVX2 applies GELU's scalar expression to x[0:n] in place, n a
// positive multiple of 4, four lanes at a time. Needs AVX2 and FMA.
//
//go:noescape
func geluAVX2(x *float32, n int)
