package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/threadpool"
)

func TestNewZeroed(t *testing.T) {
	x := New(2, 3)
	if x.Numel() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("unexpected geometry: shape=%v numel=%d", x.Shape(), x.Numel())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
	if x.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", x.Bytes())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Errorf("At(2,1) = %g, want 7.5", got)
	}
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Errorf("row-major layout violated: data[9] = %g", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestRowAndSliceRowsViews(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	row := x.Row(1)
	if row[0] != 3 || row[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", row)
	}
	row[0] = 30
	if x.At(1, 0) != 30 {
		t.Error("Row is not a shared view")
	}
	s := x.SliceRows(1, 3)
	if s.Dim(0) != 2 || s.At(1, 1) != 6 {
		t.Errorf("SliceRows wrong contents: %v", s.Data())
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(nil, 1, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 1, 5, 5)
	c := MatMul(nil, 1, a, Eye(5))
	if !a.Equal(c) {
		t.Error("A · I != A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := threadpool.MustNew(4)
	a := RandN(rng, 1, 33, 17)
	b := RandN(rng, 1, 17, 29)
	serial := MatMul(nil, 1, a, b)
	for _, width := range []int{2, 3, 4, 8} {
		par := MatMul(pool, width, a, b)
		if d := serial.MaxAbsDiff(par); d > 0 {
			t.Errorf("width %d differs from serial by %g", width, d)
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(rng, 1, 8, 6)
	b := RandN(rng, 1, 10, 6)
	got := MatMulT(nil, 1, a, b)
	want := MatMul(nil, 1, a, Transpose2D(b))
	if d := got.MaxAbsDiff(want); d > 1e-5 {
		t.Errorf("MatMulT differs from MatMul(A, Bᵀ) by %g", d)
	}
}

func TestMatMulIntoOverwrites(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := Full(99, 2, 2)
	MatMulInto(nil, 1, a, b, c)
	if !c.Equal(b) {
		t.Errorf("MatMulInto = %v, want %v", c.Data(), b.Data())
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Error("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(nil, 1, a, b)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := RandN(rng, 3, 6, 10)
	SoftmaxRows(nil, 1, x)
	for i := 0; i < 6; i++ {
		var sum float64
		for _, v := range x.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax output %g outside [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 1002}, 1, 3)
	SoftmaxRows(nil, 1, x)
	for _, v := range x.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax produced %g on large inputs", v)
		}
	}
}

func TestSoftmaxParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := threadpool.MustNew(4)
	x := RandN(rng, 2, 40, 16)
	y := x.Clone()
	SoftmaxRows(nil, 1, x)
	SoftmaxRows(pool, 4, y)
	if d := x.MaxAbsDiff(y); d > 0 {
		t.Errorf("parallel softmax differs by %g", d)
	}
}

func TestLayerNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := RandN(rng, 5, 4, 32)
	LayerNormRows(x, Ones(32), nil, 1e-5)
	for i := 0; i < 4; i++ {
		row := x.Row(i)
		var mean, varSum float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= 32
		for _, v := range row {
			d := float64(v) - mean
			varSum += d * d
		}
		varSum /= 32
		if math.Abs(mean) > 1e-4 {
			t.Errorf("row %d mean = %g, want ~0", i, mean)
		}
		if math.Abs(varSum-1) > 1e-2 {
			t.Errorf("row %d variance = %g, want ~1", i, varSum)
		}
	}
}

func TestGELUKnownValues(t *testing.T) {
	x := FromSlice([]float32{-10, 0, 10, 1}, 1, 4)
	GELU(x)
	d := x.Data()
	if math.Abs(float64(d[0])) > 1e-3 {
		t.Errorf("GELU(-10) = %g, want ~0", d[0])
	}
	if d[1] != 0 {
		t.Errorf("GELU(0) = %g, want 0", d[1])
	}
	if math.Abs(float64(d[2])-10) > 1e-3 {
		t.Errorf("GELU(10) = %g, want ~10", d[2])
	}
	if math.Abs(float64(d[3])-0.8412) > 1e-3 {
		t.Errorf("GELU(1) = %g, want ~0.8412", d[3])
	}
}

func TestConcatRows(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	c := ConcatRows(a, b)
	want := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	if !c.Equal(want) {
		t.Errorf("ConcatRows = %v", c.Data())
	}
}

// TestAppendRowsKeepsEarlierViews: growing into spare capacity in place, or
// into a fresh copy once it runs out, never changes a row visible through
// any earlier view.
func TestAppendRowsKeepsEarlierViews(t *testing.T) {
	const w = 3
	var views []*Tensor
	var cur *Tensor
	for i := 0; i < 20; i++ {
		row := FromSlice([]float32{float32(i), float32(i) + 0.5, float32(-i)}, 1, w)
		cur = AppendRows(cur, row)
		views = append(views, cur)
	}
	if cur.Dim(0) != 20 || cur.Dim(1) != w {
		t.Fatalf("grown shape %v, want [20 %d]", cur.Shape(), w)
	}
	for vi, v := range views {
		if v.Dim(0) != vi+1 {
			t.Fatalf("view %d has %d rows", vi, v.Dim(0))
		}
		for r := 0; r < v.Dim(0); r++ {
			if got := v.At(r, 0); got != float32(r) {
				t.Fatalf("view %d row %d = %g, want %d", vi, r, got, r)
			}
		}
	}

	// With headroom the append is in place: same storage, no copy.
	base := FromSlice(make([]float32, 2*w, 3*w), 2, w)
	grown := AppendRows(base, Full(7, 1, w))
	if &grown.Data()[0] != &base.Data()[0] {
		t.Fatal("append into spare capacity reallocated")
	}
	if base.Dim(0) != 2 || len(base.Data()) != 2*w {
		t.Fatalf("append resized the earlier view to %v", base.Shape())
	}
	if grown.At(2, 1) != 7 || grown.Bytes() != 3*w*4 {
		t.Fatalf("grown row = %v, bytes %d", grown.Row(2), grown.Bytes())
	}
}

func TestArgmaxRows(t *testing.T) {
	x := FromSlice([]float32{0, 5, 2, 9, 1, 3}, 2, 3)
	got := ArgmaxRows(x)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgmaxRows = %v, want [1 0]", got)
	}
}

func TestScale(t *testing.T) {
	x := FromSlice([]float32{11, 22, 13, 24}, 2, 2)
	Scale(x, 2)
	if x.At(0, 0) != 22 {
		t.Errorf("Scale result = %v", x.Data())
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestPropertyMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, p := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := RandN(rng, 1, m, k)
		b := RandN(rng, 1, k, n)
		c := RandN(rng, 1, n, p)
		left := MatMul(nil, 1, MatMul(nil, 1, a, b), c)
		right := MatMul(nil, 1, a, MatMul(nil, 1, b, c))
		return left.MaxAbsDiff(right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandN(rng, 1, m, n)
		return a.Equal(Transpose2D(Transpose2D(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: softmax is invariant to adding a constant to a row.
func TestPropertySoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if math.IsNaN(float64(shift)) || math.IsInf(float64(shift), 0) || math.Abs(float64(shift)) > 100 {
			shift = 3
		}
		rng := rand.New(rand.NewSource(seed))
		x := RandN(rng, 2, 3, 8)
		y := x.Clone()
		for i := range y.Data() {
			y.Data()[i] += shift
		}
		SoftmaxRows(nil, 1, x)
		SoftmaxRows(nil, 1, y)
		return x.MaxAbsDiff(y) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddAndAddInPlace(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	c := Add(a, b)
	want := FromSlice([]float32{11, 22, 33, 44}, 2, 2)
	if !c.Equal(want) {
		t.Errorf("Add = %v", c.Data())
	}
	if a.At(0, 0) != 1 {
		t.Error("Add mutated its input")
	}
	AddInPlace(a, b)
	if !a.Equal(want) {
		t.Errorf("AddInPlace = %v", a.Data())
	}
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched shapes did not panic")
		}
	}()
	Add(a, New(3, 3))
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandUniform(rng, -2, 3, 100)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("value %g outside [-2, 3)", v)
		}
	}
}

func TestStringFormats(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if s := small.String(); !strings.Contains(s, "1") {
		t.Errorf("small String = %q", s)
	}
	big := New(100, 100)
	if s := big.String(); !strings.Contains(s, "10000 elems") {
		t.Errorf("big String = %q", s)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Error("different shapes reported equal")
	}
	if New(2).Equal(New(2, 1)) {
		t.Error("different ranks reported equal")
	}
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 3}, 2)
	if a.Equal(b) {
		t.Error("different data reported equal")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestSliceRowsOutOfRangePanics(t *testing.T) {
	x := New(3, 2)
	defer func() {
		if recover() == nil {
			t.Error("SliceRows out of range did not panic")
		}
	}()
	x.SliceRows(2, 5)
}

func TestF16SliceShape(t *testing.T) {
	s := ToF16(New(3, 5))
	if s.Shape()[0] != 3 || s.Shape()[1] != 5 {
		t.Errorf("Shape = %v", s.Shape())
	}
}
