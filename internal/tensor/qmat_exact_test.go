// Fused-vs-reference exactness: the quantized-domain kernel MatMulQ must be
// bit-identical to dequantize-then-dense-matmul. The tests live in the
// external test package so they can build real packed operands with
// internal/quant (which imports tensor).
package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// qmatFor quantizes x and returns both the packed view and the exact
// dequantized reference tensor.
func qmatFor(t *testing.T, x *tensor.Tensor, cfg quant.Config) (tensor.QMat, *tensor.Tensor) {
	t.Helper()
	q, err := quant.Quantize(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := q.QMat()
	if err != nil {
		t.Fatal(err)
	}
	return qm, quant.Dequantize(q)
}

// identical asserts bit-for-bit equality, with NaN matching any NaN (payload
// propagation is compiler-scheduled; see nonfinite_test.go).
func identical(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: size %d vs %d", label, len(gd), len(wd))
	}
	for i := range wd {
		if math.IsNaN(float64(wd[i])) && math.IsNaN(float64(gd[i])) {
			continue
		}
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d = %g (bits %x), want %g (bits %x)",
				label, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// exactnessGrid is the ISSUE's matrix: group sizes {16, 64, 100} (100 is not
// byte-aligned at 3 bits and forces padded tails) × A widths {1, 4}, at 3-,
// 4- and 8-bit codes.
var exactnessGrid = []struct {
	bits, group int
}{
	{3, 16}, {3, 100}, {4, 16}, {4, 64}, {4, 100}, {8, 64}, {8, 100},
}

func TestMatMulQMatchesDequantReference(t *testing.T) {
	pool := threadpool.MustNew(4)
	rng := rand.New(rand.NewSource(11))
	for _, g := range exactnessGrid {
		cfg := quant.Config{Bits: g.bits, GroupSize: g.group}
		// k×n chosen so k·n is not a multiple of the group size.
		b := tensor.RandN(rng, 1.3, 33, 29)
		qm, dq := qmatFor(t, b, cfg)
		for _, m := range []int{1, 4} {
			a := tensor.RandN(rng, 1.1, m, 33)
			want := tensor.MatMul(pool, 4, a, dq)
			for _, w := range []int{1, 4} {
				got := tensor.MatMulQ(pool, w, a, qm)
				identical(t, fmt.Sprintf("b%dg%d/MatMulQ", g.bits, g.group), got, want)
			}
		}
	}
}

// TestMatMulQNonFiniteA: MatMulQ inherits the dense kernel's semantics —
// zeros and NaN/Inf in the activation operand propagate exactly as in the
// dense reference.
func TestMatMulQNonFiniteA(t *testing.T) {
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(15))
	cfg := quant.Config{Bits: 4, GroupSize: 16}
	b := tensor.RandN(rng, 1.2, 24, 10)
	qm, dq := qmatFor(t, b, cfg)
	a := tensor.RandN(rng, 1, 3, 24)
	ad := a.Data()
	ad[0] = 0
	ad[5] = float32(math.NaN())
	ad[13] = float32(math.Inf(1))
	ad[24] = float32(math.Copysign(0, -1))
	ad[30] = 0
	want := tensor.MatMul(pool, 2, a, dq)
	for _, w := range []int{1, 2} {
		identical(t, "nonfinite-A", tensor.MatMulQ(pool, w, a, qm), want)
	}
}
