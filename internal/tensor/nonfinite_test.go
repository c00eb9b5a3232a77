package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/threadpool"
)

// naiveMatMul is the skip-free reference: every product is formed and added
// in ascending p order, so IEEE-754 non-finite propagation is exact.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a.data[i*k+p] * b.data[p*n+j]
			}
			c.data[i*n+j] = sum
		}
	}
	return c
}

// bitsEqual compares tensors bit-for-bit — so -0 != +0 and Inf signs count —
// except that any NaN matches any NaN: hardware NaN payload/sign propagation
// depends on the operand order the compiler happens to emit (x86 addss
// returns its first operand's payload), which no kernel contract can pin.
func bitsEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if i := mismatch(got, want); i >= 0 {
		g, w := got.data[i], want.data[i]
		t.Fatalf("%s: element %d = %x (%g), want %x (%g)",
			label, i, math.Float32bits(g), g, math.Float32bits(w), w)
	}
}

// mismatch returns the first element where got and want differ bit for bit
// (NaN matching any NaN), or -1.
func mismatch(got, want *Tensor) int {
	for i, w := range want.data {
		g := got.data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(w)) && math.IsNaN(float64(g))) {
			return i
		}
	}
	return -1
}

// TestMatMulZeroTimesNonFinite pins the zero-skip bugfix: a zero in A must
// not short-circuit a NaN or Inf in B — IEEE 754 says 0·NaN and 0·Inf are
// NaN, and the kernel must propagate that exactly like the naive loop.
func TestMatMulZeroTimesNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		a, b []float32
		m, k int
		n    int
	}{
		{"0xNaN", []float32{0}, []float32{nan}, 1, 1, 1},
		{"0xInf", []float32{0}, []float32{inf}, 1, 1, 1},
		{"0x-Inf", []float32{0}, []float32{float32(math.Inf(-1))}, 1, 1, 1},
		{"negzero-x-NaN", []float32{float32(math.Copysign(0, -1))}, []float32{nan}, 1, 1, 1},
		{"mixed-row", []float32{0, 2, 0}, []float32{nan, 1, 3, 1, inf, 1}, 1, 3, 2},
		{"finite-col-untouched", []float32{0, 1}, []float32{nan, 5, 2, 7}, 1, 2, 2},
	}
	pool := threadpool.MustNew(4)
	for _, tc := range cases {
		a := FromSlice(tc.a, tc.m, tc.k)
		b := FromSlice(tc.b, tc.k, tc.n)
		want := naiveMatMul(a, b)
		bitsEqual(t, tc.name+"/serial", MatMul(nil, 1, a, b), want)
		bitsEqual(t, tc.name+"/parallel", MatMul(pool, 4, a, b), want)
	}
	// Direct regression for the original bug: a zero must yield NaN when the
	// paired B element is NaN.
	got := MatMul(nil, 1, FromSlice([]float32{0}, 1, 1), FromSlice([]float32{nan}, 1, 1))
	if !math.IsNaN(float64(got.data[0])) {
		t.Fatalf("0 x NaN = %g, want NaN", got.data[0])
	}
}

// TestMatMulSkipPreservesSignedZero: the kernel adds every product, ±0 ones
// included, and the result keeps the naive loop's signs — the accumulator
// starts at +0 and +0 + ±0 = +0, while a nonzero accumulator absorbs ±0
// unchanged. The same facts made the retired zero-skip, which dropped ±0
// products against finite rows of B, a no-op.
func TestMatMulSkipPreservesSignedZero(t *testing.T) {
	negz := float32(math.Copysign(0, -1))
	pool := threadpool.MustNew(2)
	cases := []struct {
		a, b []float32
		m, k int
		n    int
	}{
		// 0 · (-5): naive forms -0 then adds to +0 → +0; skip keeps +0.
		{[]float32{0}, []float32{-5}, 1, 1, 1},
		// -0 · 5 = -0 added to +0 → +0.
		{[]float32{negz}, []float32{5}, 1, 1, 1},
		// A nonzero sum followed by skipped zeros stays put.
		{[]float32{1, 0, negz}, []float32{-2, 3, -7}, 1, 3, 1},
	}
	for _, tc := range cases {
		a := FromSlice(tc.a, tc.m, tc.k)
		b := FromSlice(tc.b, tc.k, tc.n)
		want := naiveMatMul(a, b)
		bitsEqual(t, "serial", MatMul(nil, 1, a, b), want)
		bitsEqual(t, "parallel", MatMul(pool, 2, a, b), want)
	}
}

// injectSpecials overwrites random positions with IEEE specials: NaN, ±Inf,
// ±0 and subnormals.
func injectSpecials(rng *rand.Rand, xs []float32, frac float64) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x00400000),
	}
	for i := range xs {
		if rng.Float64() < frac {
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// specialOperands returns a random m×k A and k×n B with IEEE specials at
// density frac (half that in B), and with ±0 in A against a NaN or ±Inf row
// of B — products that must give NaN rather than be skipped as zeros.
func specialOperands(rng *rand.Rand, m, k, n int, frac float64) (a, b *Tensor) {
	a, b = RandN(rng, 1, m, k), RandN(rng, 1, k, n)
	injectSpecials(rng, a.data, frac)
	injectSpecials(rng, b.data, frac/2)
	p := rng.Intn(k)
	row := b.Row(p)
	row[rng.Intn(n)] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 0 {
			a.Set(float32(math.Copysign(0, float64(1-2*rng.Intn(2)))), i, p)
		}
	}
	return a, b
}

// widened copies t into the columns [off, off+cols) of a wider random
// tensor, off ≥ 1.
func widened(rng *rand.Rand, t *Tensor) (wide *Tensor, off int) {
	rows, cols := t.Dim(0), t.Dim(1)
	off = 1 + rng.Intn(9)
	wide = RandN(rng, 1, rows, off+cols+rng.Intn(5))
	for i := 0; i < rows; i++ {
		copy(wide.Row(i)[off:], t.Row(i))
	}
	return wide, off
}

// productNames labels products' results.
var productNames = []string{"MatMul serial", "MatMul", "MatMulInto", "MatMulACols", "windows"}

// products computes A·B on one path in every form a caller uses: MatMul
// serial and at width, MatMulInto, MatMulACols with A a column window at a
// non-zero offset, and the kernel with A, B and C all such windows (as
// AttentionHead reads and writes them), C's window copied out. It fails
// t if the last wrote outside C's window.
func products(t testing.TB, rng *rand.Rand, pool *threadpool.Pool, width int, a, b *Tensor, simd bool) []*Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	wideA, aoff := widened(rng, a)
	wideB, boff := widened(rng, b)
	wideC, coff := widened(rng, RandN(rng, 1, m, n))
	into, acols, win := RandN(rng, 1, m, n), RandN(rng, 1, m, n), wideC.Clone()
	var out []*Tensor
	OnPath(simd, func() {
		out = append(out, MatMul(nil, 1, a, b), MatMul(pool, width, a, b))
		MatMulInto(pool, width, a, b, into)
		MatMulACols(pool, width, Cols{wideA, aoff, k}, b, acols)
		aw, _ := Cols{wideA, aoff, k}.window()
		bw, _ := Cols{wideB, boff, n}.window()
		cw, _ := Cols{win, coff, n}.window()
		product{aw, bw, cw, m, k, n}.run(pool, width)
	})
	for i := 0; i < m; i++ {
		for j, v := range wideC.Row(i) {
			if (j < coff || j >= coff+n) && math.Float32bits(win.At(i, j)) != math.Float32bits(v) {
				t.Fatalf("kernel wrote column %d outside its window [%d, %d)", j, coff, coff+n)
			}
		}
	}
	return append(out, into, acols, copiedCols(win, coff, n))
}

// TestPropertyMatMulNonFiniteEquivalence: for random shapes seeded with
// NaN/±Inf/±0, every form of the product (see products) is bit-identical
// to the skip-free naive reference at widths 1–4 with parallelGrain zeroed.
// m reaches 13 and n 72, so every m % 4 and n % 16 occurs; k spans up to
// five of the Go loop's eight-row passes plus a tail.
func TestPropertyMatMulNonFiniteEquivalence(t *testing.T) {
	defer func(old int) { parallelGrain = old }(parallelGrain)
	parallelGrain = 0
	pool := threadpool.MustNew(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(40), 1+rng.Intn(72)
		a, b := specialOperands(rng, m, k, n, []float64{0, 0.02, 0.1, 0.3}[rng.Intn(4)])
		want := naiveMatMul(a, b)
		for _, got := range products(t, rng, pool, 1+rng.Intn(4), a, b, true) {
			if mismatch(got, want) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzMatMulNonFinite drives the same equivalence from fuzzed shapes and
// seeds, m up to 13, n up to 72 and widths 1–4 with parallelGrain zeroed.
func FuzzMatMulNonFinite(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(2))
	f.Add(int64(99), uint8(1), uint8(1), uint8(1))
	f.Add(int64(7), uint8(2), uint8(36), uint8(9))
	f.Add(int64(5), uint8(1), uint8(17), uint8(70))
	f.Add(int64(3), uint8(12), uint8(9), uint8(67))
	defer func(old int) { parallelGrain = old }(parallelGrain)
	parallelGrain = 0
	pool := threadpool.MustNew(4)
	f.Fuzz(func(t *testing.T, seed int64, mr, kr, nr uint8) {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+int(mr%13), 1+int(kr%40), 1+int(nr%72)
		a, b := specialOperands(rng, m, k, n, []float64{0.02, 0.1, 0.4}[int(kr)%3])
		want := naiveMatMul(a, b)
		for i, got := range products(t, rng, pool, 1+int(mr/13)%4, a, b, true) {
			bitsEqual(t, productNames[i], got, want)
		}
	})
}

// naiveMatMulT is MatMulT's reference: each element one ascending-p sum.
func naiveMatMulT(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a.data[i*k+p] * b.data[j*k+p]
			}
			c.data[i*n+j] = sum
		}
	}
	return c
}

// copiedCols copies columns [off, off+w) of t into a new tensor.
func copiedCols(t *Tensor, off, w int) *Tensor {
	rows, cols := t.Dim(0), t.Dim(1)
	out := New(rows, w)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), t.data[i*cols+off:i*cols+off+w])
	}
	return out
}

// TestColumnWindowKernelsMatchReferences: the attention scores Q·Kᵀ as
// MatMulACols over a column window of Q and TransposeCols of K's window, and
// scores·V as mulRows over column windows — with NaN/±Inf/±0 in both
// operands — are bit-identical to the naive references on the copied-out
// columns, serial and parallel; MatMulT is too. mulRows writes only its
// window's columns.
func TestColumnWindowKernelsMatchReferences(t *testing.T) {
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m, n, w := 1+rng.Intn(6), 1+rng.Intn(40), 1+rng.Intn(20)
		cols := w + rng.Intn(12)
		off := rng.Intn(cols - w + 1)
		q, kv := RandN(rng, 1, m, cols), RandN(rng, 1, n, cols)
		frac := []float64{0, 0.05, 0.3}[trial%3]
		injectSpecials(rng, q.data, frac)
		injectSpecials(rng, kv.data, frac)
		scores := RandN(rng, 1, m, n)
		injectSpecials(rng, scores.data, frac)
		qh, kh := copiedCols(q, off, w), copiedCols(kv, off, w)
		for _, width := range []int{1, 2} {
			keysT := New(w, n)
			TransposeCols(keysT, Cols{kv, off, w})
			got := RandN(rng, 1, m, n)
			MatMulACols(pool, width, Cols{q, off, w}, keysT, got)
			bitsEqual(t, "MatMulACols", got, naiveMatMulT(qh, kh))
			bitsEqual(t, "MatMulT", MatMulT(pool, width, qh, kh), naiveMatMulT(qh, kh))

			out := RandN(rng, 1, m, cols)
			before := out.Clone()
			vw, _ := Cols{kv, off, w}.window()
			ow, _ := Cols{out, off, w}.window()
			mulRows(ow, dense(scores), vw, m, n, w)
			bitsEqual(t, "mulRows", copiedCols(out, off, w), naiveMatMul(scores, kh))
			for i := 0; i < m; i++ {
				for j := 0; j < cols; j++ {
					if (j < off || j >= off+w) && math.Float32bits(out.At(i, j)) != math.Float32bits(before.At(i, j)) {
						t.Fatalf("mulRows wrote column %d outside its window [%d, %d)", j, off, off+w)
					}
				}
			}
		}
	}
}
