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

// TestSIMDMatchesPortable: with the AVX2 inner loops selected, MatMul,
// MatMulInto and scoresV (column windows at non-zero offsets) are
// bit-identical to the Go loops, NaN matching any NaN. n sweeps 1..72,
// so rows hold zero to nine vector bodies and every tail length; the
// special density varies, so passes with and without a zero in A (the
// zero-skip) occur, with ±Inf, NaN, ±0 and subnormals in both operands.
func TestSIMDMatchesPortable(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("processor lacks AVX2")
	}
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(21))
	for n := 1; n <= 72; n++ {
		for trial, frac := range []float64{0, 0.03, 0.15, 0.5} {
			label := fmt.Sprintf("n=%d/trial=%d", n, trial)
			m, k := 1+rng.Intn(5), 1+rng.Intn(40)
			a, b := RandN(rng, 1, m, k), RandN(rng, 1, k, n)
			injectSpecials(rng, a.data, frac)
			injectSpecials(rng, b.data, frac/2)
			// B and C as column windows of wider tensors.
			boff, coff := 1+rng.Intn(9), 1+rng.Intn(9)
			wideB := RandN(rng, 1, k, boff+n+rng.Intn(5))
			for p := 0; p < k; p++ {
				copy(wideB.data[p*wideB.Dim(1)+boff:], b.Row(p))
			}
			wideC := RandN(rng, 1, m, coff+n+rng.Intn(5))

			type result struct{ mm, mm2, into, cols *Tensor }
			run := func(simd bool) (r result) {
				OnPath(simd, func() {
					r.mm, r.mm2 = MatMul(nil, 1, a, b), MatMul(pool, 2, a, b)
					r.into = RandN(rng, 1, m, n)
					MatMulInto(pool, 2, a, b, r.into)
					r.cols = wideC.Clone()
					bw, _ := Cols{wideB, boff, n}.window()
					cw, _ := Cols{r.cols, coff, n}.window()
					scoresV(cw, dense(a), bw, m, k, n)
				})
				return r
			}
			want, got := run(false), run(true)
			bitsEqual(t, label+"/MatMul", got.mm, want.mm)
			bitsEqual(t, label+"/MatMul parallel", got.mm2, want.mm)
			bitsEqual(t, label+"/MatMulInto", got.into, want.mm)
			bitsEqual(t, label+"/scoresV", got.cols, want.cols)
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
