package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/threadpool"
)

// benchPaths runs f as a "simd" and a "portable" sub-benchmark of name, the
// first only where the kernels run (needFMA: the exponential and GELU
// kernels), and reports ns per element, elems being
// the elements one call of f handles.
func benchPaths(b *testing.B, name string, needFMA bool, elems int, f func()) {
	for _, path := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"portable", false}} {
		if path.simd && (!cpufeat.AVX2 || needFMA && !fmaKernels) {
			continue
		}
		b.Run(name+"/"+path.name, func(b *testing.B) {
			OnPath(path.simd, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
			})
		})
	}
}

// BenchmarkMatMulShapes times the product on the Small model's shapes and
// reports ns per multiply-add: serially per inner-loop path at the one-row
// decode shapes, four- and 64-row blocks and 128-row prefill chunks; then,
// on the default path, small-M products at width 1 and 2 on a two-worker
// pool with the grain zeroed, so that width 2 always splits — the rows
// parallelGrain is read from:
//
//	go test ./internal/tensor -run '^$' -bench MatMulShapes
func BenchmarkMatMulShapes(b *testing.B) {
	bench := func(b *testing.B, pool *threadpool.Pool, width, m, k, n int) {
		rng := rand.New(rand.NewSource(1))
		a, w := RandN(rng, 1, m, k), RandN(rng, 1, k, n)
		c := New(m, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulInto(pool, width, a, w, c)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*k*n), "ns/madd")
	}
	for _, sh := range [][3]int{
		{1, 128, 128}, {1, 128, 384}, {1, 128, 512}, {1, 512, 128},
		{4, 128, 128}, {64, 128, 128}, {64, 512, 128},
		{128, 128, 384}, {128, 128, 512}, {128, 512, 128},
	} {
		for _, path := range []struct {
			name string
			simd bool
		}{{"simd", true}, {"portable", false}} {
			if path.simd && !cpufeat.AVX2 {
				continue
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh[0], sh[1], sh[2], path.name), func(b *testing.B) {
				OnPath(path.simd, func() { bench(b, nil, 1, sh[0], sh[1], sh[2]) })
			})
		}
	}
	defer func(old int) { parallelGrain = old }(parallelGrain)
	parallelGrain = 0
	pool := threadpool.MustNew(2)
	for _, sh := range [][3]int{{8, 128, 384}, {16, 128, 384}, {32, 128, 384}, {64, 128, 512}} {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/w%d", sh[0], sh[1], sh[2], width), func(b *testing.B) {
				bench(b, pool, width, sh[0], sh[1], sh[2])
			})
		}
	}
}

// BenchmarkGELU times the activation on the Small model's decode and
// prefill MLP widths (rows × FFN 512), per path:
//
//	go test ./internal/tensor -run '^$' -bench GELU
func BenchmarkGELU(b *testing.B) {
	for _, rows := range []int{1, 64} {
		rng := rand.New(rand.NewSource(1))
		src := RandN(rng, 1, rows, 512)
		x := New(rows, 512)
		benchPaths(b, fmt.Sprintf("%dx512", rows), true, rows*512, func() {
			copy(x.data, src.data)
			GELU(x)
		})
	}
}

// BenchmarkSoftmaxRows times attention's scaled causal softmax over a
// decode row and a 64-row prefill chunk at 512 keys, per path; ns/elem
// counts every score, masked ones included:
//
//	go test ./internal/tensor -run '^$' -bench SoftmaxRows
func BenchmarkSoftmaxRows(b *testing.B) {
	for _, rows := range []int{1, 64} {
		rng := rand.New(rand.NewSource(1))
		src := RandN(rng, 4, rows, 512)
		x := New(rows, 512)
		benchPaths(b, fmt.Sprintf("%dx512", rows), true, rows*512, func() {
			copy(x.data, src.data)
			CausalSoftmaxRows(nil, 1, x, 0.25, 512-rows)
		})
	}
}

// BenchmarkAttentionScores times one Small-model head's scores Q_h·K_hᵀ
// (d_k = 16) against 512 keys — the key window's transpose, then the dense
// kernel — for a decode row and a 64-row prefill chunk, per inner-loop
// path; ns/elem is per score:
//
//	go test ./internal/tensor -run '^$' -bench AttentionScores
func BenchmarkAttentionScores(b *testing.B) {
	const dk, hidden, T = 16, 128, 512
	for _, rows := range []int{1, 64} {
		rng := rand.New(rand.NewSource(1))
		q, k := RandN(rng, 1, rows, hidden), RandN(rng, 1, T, hidden)
		keysT, scores := New(dk, T), New(rows, T)
		benchPaths(b, fmt.Sprintf("%dx%d", rows, T), false, rows*T, func() {
			TransposeCols(keysT, Cols{k, dk, dk})
			MatMulACols(nil, 1, Cols{q, dk, dk}, keysT, scores)
		})
	}
}

// BenchmarkAttentionHead times one Small-model head (d_k = 16) whole —
// scores, causal softmax and scores·V through AttentionHead — for a decode
// row and a 128-row prefill chunk at 512 keys, per path; ns/elem is per
// score of the rows×512 block, masked ones included:
//
//	go test ./internal/tensor -run '^$' -bench AttentionHead
func BenchmarkAttentionHead(b *testing.B) {
	const dk, hidden, T = 16, 128, 512
	for _, rows := range []int{1, 128} {
		rng := rand.New(rand.NewSource(1))
		q, ctx := RandN(rng, 1, rows, hidden), New(rows, hidden)
		k, v := RandN(rng, 1, T, hidden), RandN(rng, 1, T, hidden)
		var s HeadScratch
		benchPaths(b, fmt.Sprintf("%dx%d", rows, T), false, rows*T, func() {
			AttentionHead(&s, Cols{q, dk, dk}, Cols{k, dk, dk}, Cols{v, dk, dk}, Cols{ctx, dk, dk}, 0.25)
		})
	}
}
