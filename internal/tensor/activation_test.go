package tensor

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/threadpool"
)

var geluExhaustive = flag.Bool("gelu.exhaustive", false,
	"sweep GELU's AVX2 path against the scalar expression over all 2^32 float32 bit patterns")

// sameFloat32 reports equal bit patterns, any NaN matching any NaN (see
// bitsEqual).
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// geluPatternsMismatch runs GELU's AVX2 path over the float32 values with
// bit patterns lo, lo+stride, … below hi, compares each with gelu, and
// describes the first mismatch.
func geluPatternsMismatch(lo, hi, stride uint64) error {
	const block = 4096
	buf := New(block)
	for b := lo; b < hi; b += block * stride {
		n := 0
		for p := b; p < hi && n < block; p += stride {
			buf.data[n] = math.Float32frombits(uint32(p))
			n++
		}
		x := FromSlice(buf.data[:n], n)
		in := x.Clone()
		OnPath(true, func() { GELU(x) })
		for i, v := range in.data {
			if want := gelu(v); !sameFloat32(x.data[i], want) {
				return fmt.Errorf("GELU(%g [%#08x]) = %g [%#08x], want %g [%#08x]", v, math.Float32bits(v),
					x.data[i], math.Float32bits(x.data[i]), want, math.Float32bits(want))
			}
		}
	}
	return nil
}

// tanhArg is the argument GELU passes to math.Tanh.
func tanhArg(v float32) float64 {
	const c = 0.7978845608028654
	x := float64(v)
	return c * (x + 0.044715*x*x*x)
}

// crossing returns the largest positive float32 whose tanh argument lies
// below at; the argument grows with the bit pattern.
func crossing(at float64) float32 {
	lo, hi := uint32(0), math.Float32bits(math.MaxFloat32)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if tanhArg(math.Float32frombits(mid)) < at {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float32frombits(lo)
}

// geluSpecials are the inputs where a lane-wise port could part from the
// scalar code: signed zeros, infinities, NaNs, subnormals, the extremes,
// and both sides of tanh's branch points |u| = 0.625 and |u| = 0.5·MAXLOG.
func geluSpecials() []float32 {
	xs := []float32{0, float32(math.Copysign(0, -1)), 1, -1, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, b := range []uint32{0x7f800001, 0x7fc00000, 0xffc00001, 0x00000001, 0x007fffff, 0x00400000, 0x80000001, 0x807fffff} {
		xs = append(xs, math.Float32frombits(b))
	}
	for _, at := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		b := math.Float32bits(crossing(at))
		for d := uint32(0); d < 8; d++ {
			for _, p := range []uint32{b - d, b + 1 + d} {
				v := math.Float32frombits(p)
				xs = append(xs, v, -v)
			}
		}
	}
	return xs
}

// TestGELUMatchesPortable: GELU's AVX2 path is bit-identical to the scalar
// expression (NaN matching any NaN) on a strided sweep over every float32
// bit pattern, on the special values, and at every tail length.
func TestGELUMatchesPortable(t *testing.T) {
	requireFMAKernels(t)
	if err := geluPatternsMismatch(0, 1<<32, 251); err != nil {
		t.Fatal(err)
	}
	sp := geluSpecials()
	for n := 1; n <= len(sp); n++ {
		x := FromSlice(append([]float32(nil), sp[:n]...), n)
		want := x.Clone()
		OnPath(false, func() { GELU(want) })
		OnPath(true, func() { GELU(x) })
		bitsEqual(t, fmt.Sprintf("specials[:%d]", n), x, want)
	}
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 70; n++ {
		x := RandN(rng, 3, n)
		injectSpecials(rng, x.data, 0.1)
		want := x.Clone()
		OnPath(false, func() { GELU(want) })
		OnPath(true, func() { GELU(x) })
		bitsEqual(t, fmt.Sprintf("random n=%d", n), x, want)
	}
}

// TestGELUExhaustive is TestGELUMatchesPortable's sweep over all 2^32
// float32 bit patterns, split across the processors. It takes minutes, so
// it runs only when asked:
//
//	go test ./internal/tensor -run TestGELUExhaustive -gelu.exhaustive -timeout 60m
func TestGELUExhaustive(t *testing.T) {
	if !*geluExhaustive {
		t.Skip("pass -gelu.exhaustive to sweep all 2^32 inputs")
	}
	requireFMAKernels(t)
	const parts = 1 << 10
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan uint64)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for part := range next {
				if err := geluPatternsMismatch(part<<22, (part+1)<<22, 1); err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
				}
			}
		}()
	}
	for part := uint64(0); part < parts; part++ {
		next <- part
	}
	close(next)
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
}

// TestExpLanesMatchMathExp: expAVX2 flags no lane inside [-708, 709] and
// matches math.Exp there bit for bit; outside that range, on ±Inf, NaN, ±0
// and subnormals, expLanes hands the flagged lanes to math.Exp, at every
// length and tail.
func TestExpLanesMatchMathExp(t *testing.T) {
	requireFMAKernels(t)
	rng := rand.New(rand.NewSource(7))
	var x [expBlock]float64
	check := func(label string, args []float64) {
		t.Helper()
		for i, a := range args {
			if got, want := x[i], math.Exp(a); math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
				t.Fatalf("%s: exp(%v) lane %d = %v [%#016x], want %v [%#016x]",
					label, a, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// In range: a dense grid plus uniform draws, through the kernel alone.
	const lo, hi = -708.0, 709.0
	args := make([]float64, expBlock)
	for trial := 0; trial < 40000; trial++ {
		for i := range args {
			if trial%2 == 0 {
				args[i] = lo + (hi-lo)*float64(trial/2*expBlock+i)/(20000*expBlock)
			} else {
				args[i] = lo + (hi-lo)*rng.Float64()
			}
		}
		args[0], args[1] = lo, hi
		copy(x[:], args)
		if bad := expAVX2(&x[0], expBlock); bad != 0 {
			t.Fatalf("in-range lanes flagged: %#x", bad)
		}
		check("in range", args)
	}
	// Everywhere else, through expLanes at every length.
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)), -745.2, -745.1, -1000,
		709.78, 709.79, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308}
	for n := 1; n <= expBlock; n++ {
		for trial := 0; trial < 20; trial++ {
			args := args[:n]
			for i := range args {
				switch rng.Intn(3) {
				case 0:
					args[i] = specials[rng.Intn(len(specials))]
				case 1:
					args[i] = (rng.Float64() - 0.5) * 2000
				default:
					args[i] = lo + (hi-lo)*rng.Float64()
				}
			}
			copy(x[:], args)
			OnPath(true, func() { expLanes(x[:n]) })
			check(fmt.Sprintf("n=%d", n), args)
		}
	}
}

// TestExpSumMatchesLoop: expSumAVX2 covers exactly the groups of four
// before the first one holding an argument outside [-708, 709], and on
// those matches softmaxRow's Go loop bit for bit — each output
// float32(math.Exp(float64(x-max))), and the float64 sum taken in ascending
// order, compared before any rounding to float32 could hide a reordering.
func TestExpSumMatchesLoop(t *testing.T) {
	requireFMAKernels(t)
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 3000; trial++ {
		n := 4 * (1 + rng.Intn(40))
		x := RandN(rng, math.Exp(rng.Float64()*7-1), 1, n).data
		if trial%4 == 0 {
			injectSpecials(rng, x, 0.02)
		}
		maxV := x[rng.Intn(n)]
		start := float64(rng.Intn(3))
		want, wantSum, wantDone := append([]float32(nil), x...), start, n
		for j, v := range want {
			a := float64(v - maxV)
			if !(a >= -708 && a <= 709) {
				wantDone = j &^ 3
				break
			}
		}
		for j := range want[:wantDone] {
			e := math.Exp(float64(want[j] - maxV))
			want[j] = float32(e)
			wantSum += e
		}
		got, sum := append([]float32(nil), x...), start
		if done := expSumAVX2(&got[0], n, maxV, &sum); done != wantDone {
			t.Fatalf("trial %d: covered %d elements, want %d", trial, done, wantDone)
		}
		if math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("trial %d: sum %x (%v), want %x (%v)", trial, math.Float64bits(sum), sum, math.Float64bits(wantSum), wantSum)
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) && !(got[j] != got[j] && want[j] != want[j]) {
				t.Fatalf("trial %d: element %d = %g, want %g", trial, j, got[j], want[j])
			}
		}
	}
}

// softmaxRowsCase is one random m×n score matrix with the values attention
// can produce and the ones it should never see: wide ranges, -Inf (masked
// columns), +Inf, NaN, ±0 and subnormals.
func softmaxRowsCase(rng *rand.Rand, m, n int) *Tensor {
	x := RandN(rng, math.Exp(rng.Float64()*8-2), m, n)
	switch rng.Intn(4) {
	case 0:
		injectSpecials(rng, x.data, 0.05)
	case 1:
		for i := range x.data {
			if rng.Intn(3) == 0 {
				x.data[i] = float32(math.Inf(-1))
			}
		}
	}
	return x
}

// TestSoftmaxMatchesPortable: SoftmaxRows and CausalSoftmaxRows with the
// AVX2+FMA exponential are bit-identical to the portable loops (NaN
// matching any NaN) on rows of length 1..130, so every tail length of the
// four-lane kernel and of the 64-element block occurs, serial and parallel.
func TestSoftmaxMatchesPortable(t *testing.T) {
	requireFMAKernels(t)
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 6; trial++ {
			m := 1 + rng.Intn(4)
			if m > n {
				m = n
			}
			x := softmaxRowsCase(rng, m, n)
			base, scale := n-m-rng.Intn(n-m+1), float32(rng.Float64()+0.1)
			run := func(simd bool) (plain, causal *Tensor) {
				plain, causal = x.Clone(), x.Clone()
				OnPath(simd, func() {
					SoftmaxRows(pool, 1+trial%2, plain)
					CausalSoftmaxRows(pool, 1+trial%2, causal, scale, base)
				})
				return plain, causal
			}
			wantP, wantC := run(false)
			gotP, gotC := run(true)
			label := fmt.Sprintf("n=%d/trial=%d", n, trial)
			bitsEqual(t, label+"/SoftmaxRows", gotP, wantP)
			bitsEqual(t, label+"/CausalSoftmaxRows", gotC, wantC)
		}
	}
}

// threePassSoftmax is attention's former score post-processing, the
// reference for CausalSoftmaxRows: scale every score, set the columns after
// row i's last visible one (base+i) to -Inf, then SoftmaxRows.
func threePassSoftmax(t *Tensor, scale float32, base int) {
	Scale(t, scale)
	for i := 0; i < t.Dim(0); i++ {
		row := t.Row(i)
		for j := base + i + 1; j < len(row); j++ {
			row[j] = float32(math.Inf(-1))
		}
	}
	SoftmaxRows(nil, 1, t)
}

// TestCausalSoftmaxMatchesThreePass: CausalSoftmaxRows is bit-identical to
// scaling, masking with -Inf and SoftmaxRows — masked columns +0, or NaN
// exactly when the row's sum is NaN — on both paths, on random rows and on
// the rows that make the sum NaN: row[0] NaN, a visible ±Inf, and every
// visible score -Inf. The decode step, one row that sees every column, is
// the case base = n-1.
func TestCausalSoftmaxMatchesThreePass(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rows := [][]float32{
		{nan, 1, 2, 3, 4, 5},
		{1, inf, 2, 3, 4, 5},
		{1, 2, float32(math.Inf(-1)), 3, -inf, 5},
		{-inf, -inf, -inf, -inf, 1, 2},
		{-inf, -inf, -inf, -inf, -inf, -inf},
		{0, float32(math.Copysign(0, -1)), 0, 1e-45, -1e-45, 0},
		{88, -88, 1e30, -1e30, 3, 3},
	}
	rng := rand.New(rand.NewSource(24))
	check := func(simd bool, x *Tensor, base int) {
		t.Helper()
		scale := float32(1 / math.Sqrt(float64(1+rng.Intn(64))))
		want, got := x.Clone(), x.Clone()
		OnPath(simd, func() {
			threePassSoftmax(want, scale, base)
			CausalSoftmaxRows(nil, 1, got, scale, base)
		})
		bitsEqual(t, fmt.Sprintf("simd=%v/%v/base=%d", simd, x.Shape(), base), got, want)
	}
	for _, simd := range []bool{false, true} {
		for _, r := range rows {
			for base := 0; base < len(r); base++ {
				check(simd, FromSlice(append([]float32(nil), r...), 1, len(r)), base)
			}
		}
		for n := 1; n <= 70; n++ {
			m := 1 + rng.Intn(n)
			x := softmaxRowsCase(rng, m, n)
			for _, base := range []int{0, n - m, (n - m) / 2} {
				check(simd, x, base)
			}
		}
	}
}

// unfusedExp is archExp's path without FMA ($GOROOT/src/math/exp_amd64.s),
// in Go, which rounds every product and sum separately.
func unfusedExp(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(log2e * x)
	x = x - k*ln2u
	x = x - k*ln2l
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = p*x + c
	}
	x *= p
	for i := 0; i < 4; i++ {
		x *= x + 2
	}
	return (x + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeSelectsKernels: the start-up probe selects the exponential
// and GELU kernels exactly when math.Exp takes its fused path. Each probe
// tells the paths apart: with the kernels selected, math.Exp differs from
// the unfused path on every probe; without them (GODEBUG=cpu.fma=off),
// math.Exp is the unfused path. A kernel that disagrees with math.Exp fails
// here rather than silently turning itself off.
func TestExpProbeSelectsKernels(t *testing.T) {
	if !cpufeat.AVX2 || !cpufeat.FMA {
		t.Skip("processor lacks AVX2 or FMA")
	}
	for _, a := range expProbes {
		if fused := math.Exp(a) != unfusedExp(a); fused != fmaKernels {
			t.Errorf("probe %v: math.Exp differs from the unfused path: %v, kernels selected: %v", a, fused, fmaKernels)
		}
	}
}
