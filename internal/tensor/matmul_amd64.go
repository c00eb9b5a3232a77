package tensor

// transpose8AVX2 writes the transpose of the rows×8 block at src, rows a
// positive multiple of 8 and srcStride elements apart, to the 8×rows block
// at dst, whose rows are dstStride elements apart. The caller has
// bounds-checked both blocks.
//
//go:noescape
func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride, rows int)

// tile4x16AVX2 sets c[r*cStride+j], r < 4 and j < 16, to
// Σ_p a[r*aStride+p]·b[p*bStride+j] over p in [0, k), k ≥ 1: each sum starts
// at +0 and adds its rounded products in ascending p — mulRowGo's loop,
// eight lanes at a time. The caller has bounds-checked every row it reads
// and writes.
//
//go:noescape
func tile4x16AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride, k int)

// row1x64AVX2 is tile4x16AVX2 for one row of 64 columns.
//
//go:noescape
func row1x64AVX2(c, a, b *float32, bStride, k int)

// row1x16AVX2 is tile4x16AVX2 for one row.
//
//go:noescape
func row1x16AVX2(c, a, b *float32, bStride, k int)
