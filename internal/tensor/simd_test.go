package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/threadpool"
)

// requireFMAKernels skips unless the exponential and GELU kernels run.
func requireFMAKernels(t testing.TB) {
	if !fmaKernels {
		t.Skip("processor lacks AVX2 or FMA, or math.Exp does not take its FMA path")
	}
}

// TestSIMDMatchesPortable: with the AVX2 kernels selected, MatMul,
// MatMulInto, MatMulACols and the kernel over column windows of A, B and C
// at non-zero offsets are bit-identical to the Go loops and to naiveMatMul,
// NaN matching any NaN, and write nothing outside C's window. m sweeps
// 1..13, so every m % 4 occurs with zero to three whole four-row tiles; n
// sweeps 1..72, so every n % 16 occurs with zero to four whole 16-column
// blocks, and one-row blocks of 64 with and without an overlapping last
// one. parallelGrain is zeroed, so every product splits over its width
// (1–4).
// The special density varies, with ±Inf, NaN, ±0 and subnormals in both
// operands and ±0 in A against a NaN or ±Inf row of B.
func TestSIMDMatchesPortable(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("processor lacks AVX2")
	}
	defer func(old int) { parallelGrain = old }(parallelGrain)
	parallelGrain = 0
	pool := threadpool.MustNew(4)
	rng := rand.New(rand.NewSource(21))
	for n := 1; n <= 72; n++ {
		for m := 1; m <= 13; m++ {
			width := 1 + (n+2*m)%4
			label := fmt.Sprintf("m=%d/n=%d/width=%d", m, n, width)
			a, b := specialOperands(rng, m, 1+rng.Intn(40), n, []float64{0, 0.03, 0.15, 0.5}[(n+m)%4])
			ref := naiveMatMul(a, b)
			want := products(t, rng, pool, width, a, b, false)
			got := products(t, rng, pool, width, a, b, true)
			for i := range got {
				bitsEqual(t, fmt.Sprintf("%s/%s/portable", label, productNames[i]), want[i], ref)
				bitsEqual(t, fmt.Sprintf("%s/%s", label, productNames[i]), got[i], ref)
			}
		}
	}
}

// TestAttentionScoresMatchReference: attention's scores Q_h·K_hᵀ, computed
// as MatMulACols over a column window of Q against TransposeCols of the
// same window of K, equal naiveMatMulT on the copied-out heads bit for bit
// on both inner-loop paths, serial and parallel — at head widths 1..24 and
// non-zero column offsets, with ±0, ±Inf, NaN and subnormals in Q and K.
func TestAttentionScoresMatchReference(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("processor lacks AVX2")
	}
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(25))
	for dk := 1; dk <= 24; dk++ {
		for trial, frac := range []float64{0, 0.03, 0.15, 0.5} {
			heads := 1 + rng.Intn(3)
			m, T := 1+rng.Intn(6), 1+rng.Intn(70)
			q, k := RandN(rng, 1, m, heads*dk), RandN(rng, 1, T, heads*dk)
			injectSpecials(rng, q.data, frac)
			injectSpecials(rng, k.data, frac/2)
			off := rng.Intn(heads) * dk
			want := naiveMatMulT(copiedCols(q, off, dk), copiedCols(k, off, dk))
			for _, simd := range []bool{false, true} {
				for _, width := range []int{1, 2} {
					keysT, got := RandN(rng, 1, dk, T), RandN(rng, 1, m, T)
					OnPath(simd, func() {
						TransposeCols(keysT, Cols{k, off, dk})
						MatMulACols(pool, width, Cols{q, off, dk}, keysT, got)
					})
					bitsEqual(t, fmt.Sprintf("dk=%d/trial=%d/simd=%v/width=%d", dk, trial, simd, width), got, want)
				}
			}
		}
	}
}
