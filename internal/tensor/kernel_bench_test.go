package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// BenchmarkMatMulShapes times the serial kernel on the Small model's decode
// and prefill shapes, per inner-loop path, and reports ns per multiply-add:
//
//	go test ./internal/tensor -run '^$' -bench MatMulShapes
func BenchmarkMatMulShapes(b *testing.B) {
	for _, sh := range [][3]int{{1, 128, 512}, {4, 128, 128}, {64, 128, 128}, {64, 512, 128}} {
		m, k, n := sh[0], sh[1], sh[2]
		for _, path := range []struct {
			name string
			simd bool
		}{{"simd", true}, {"portable", false}} {
			if path.simd && !cpufeat.AVX2 {
				continue
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, path.name), func(b *testing.B) {
				defer func(old bool) { useAVX2 = old }(useAVX2)
				useAVX2 = path.simd
				rng := rand.New(rand.NewSource(1))
				a, w := RandN(rng, 1, m, k), RandN(rng, 1, k, n)
				c := New(m, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(nil, 1, a, w, c)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*k*n), "ns/madd")
			})
		}
	}
}
