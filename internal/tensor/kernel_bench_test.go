package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulShapes times the serial kernel on the Small model's decode
// and prefill shapes and reports ns per multiply-add:
//
//	go test ./internal/tensor -run '^$' -bench MatMulShapes
func BenchmarkMatMulShapes(b *testing.B) {
	for _, sh := range [][3]int{{1, 128, 512}, {4, 128, 128}, {64, 128, 128}, {64, 512, 128}} {
		m, k, n := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
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
