package tensor

// accumRow8AVX2 is accumRow's eight-row pass over c[0:n], n a positive
// multiple of 8: c[j] = c[j] + a[0]*b[j] + a[1]*b[stride+j] + … +
// a[7]*b[7*stride+j], each product rounded, then added to the running sum
// in ascending row order — the scalar loop's operations, eight lanes at a
// time. b points at row 0 of the eight; rows are stride elements apart. The
// caller has bounds-checked c[:n] and every b row's first n elements.
//
//go:noescape
func accumRow8AVX2(c *float32, a *[8]float32, b *float32, stride, n int)

// accumOneAVX2 is accumOne's loop over c[0:n], n a positive multiple of 8:
// c[j] = c[j] + a*b[j].
//
//go:noescape
func accumOneAVX2(c, b *float32, a float32, n int)

// transpose8AVX2 writes the transpose of the rows×8 block at src, rows a
// positive multiple of 8 and srcStride elements apart, to the 8×rows block
// at dst, whose rows are dstStride elements apart. The caller has
// bounds-checked both blocks.
//
//go:noescape
func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride, rows int)

// scoresV4AVX2 sets out[r*outStride+c], r < 4 and c < 16, to
// Σ_p s[r*sStride+p]·v[p*vStride+c] over p in [0, n), n ≥ 1: each sum starts
// at +0 and adds its rounded products in ascending p — scoresV's Go loop,
// eight lanes at a time. The caller has bounds-checked every row it reads
// and writes.
//
//go:noescape
func scoresV4AVX2(out *float32, outStride int, s *float32, sStride int, v *float32, vStride, n int)

// scoresV1AVX2 is scoresV4AVX2 for one row.
//
//go:noescape
func scoresV1AVX2(out, s, v *float32, vStride, n int)
