package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// refUnpackBits is the per-element code reader, kept here as the reference
// for the dequantization kernels: it reads len(codes) codes starting at
// element index start, a code possibly straddling two bytes.
func refUnpackBits(src []byte, start int, codes []uint8, bits int) {
	mask := uint16(1)<<bits - 1
	for i := range codes {
		bitPos := (start + i) * bits
		byteIdx := bitPos >> 3
		shift := bitPos & 7
		v := uint16(src[byteIdx]) >> shift
		if shift+bits > 8 && byteIdx+1 < len(src) {
			v |= uint16(src[byteIdx+1]) << (8 - shift)
		}
		codes[i] = uint8(v & mask)
	}
}

// refDequantize evaluates Eq. 11 element by element: the code divided by
// 2^b - 1, times the group's scale, plus its min; a zero-scale group is its
// min throughout.
func refDequantize(q *Tensor) []float32 {
	levels := float32(int(1)<<q.cfg.Bits - 1)
	out := make([]float32, q.numel)
	var code [1]uint8
	for i := range out {
		g := i / q.cfg.GroupSize
		mn, scale := q.mins[g], q.scales[g]
		if scale == 0 {
			out[i] = mn
			continue
		}
		refUnpackBits(q.packed, i, code[:], q.cfg.Bits)
		out[i] = float32(code[0])/levels*scale + mn
	}
	return out
}

// randomQuantized builds a quantized tensor of n elements with random packed
// codes and group parameters; special makes about one group in four carry
// a zero scale or a NaN/±Inf min or scale.
func randomQuantized(rng *rand.Rand, cfg Config, n int, special bool) *Tensor {
	padded := paddedLen(n, cfg.GroupSize)
	groups := padded / cfg.GroupSize
	q := &Tensor{
		cfg: cfg, shape: []int{n}, numel: n, padded: padded,
		packed: make([]byte, (padded*cfg.Bits+7)/8),
		mins:   make([]float32, groups),
		scales: make([]float32, groups),
	}
	rng.Read(q.packed)
	specials := []float32{0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for g := range q.mins {
		q.mins[g] = float32(rng.NormFloat64())
		q.scales[g] = float32(rng.ExpFloat64())
		if special && rng.Intn(4) == 0 {
			v := specials[rng.Intn(len(specials))]
			if rng.Intn(2) == 0 || v == 0 {
				q.scales[g] = v
			} else {
				q.mins[g] = v
			}
		}
	}
	return q
}

// requireSameFloats compares bit patterns, except that any NaN matches any
// NaN (x86 propagates whichever NaN operand the compiler placed first).
func requireSameFloats(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.IsNaN(float64(w)) && math.IsNaN(float64(g)) {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %g (%#08x), want %g (%#08x)", label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// checkDequantize runs every dequantization entry point on q against the
// per-element reference, through the Go loops and, where the processor has
// AVX2, through the assembly 4-bit expansion.
func checkDequantize(t *testing.T, label string, pool *threadpool.Pool, q *Tensor) {
	t.Helper()
	defer func(old bool) { useAVX2 = old }(useAVX2)
	want := refDequantize(q)
	for _, simd := range []bool{false, true} {
		if simd && !cpufeat.AVX2 {
			continue
		}
		useAVX2 = simd
		label := fmt.Sprintf("%s/simd=%v", label, simd)
		requireSameFloats(t, label+"/Dequantize", Dequantize(q).Data(), want)
		requireSameFloats(t, label+"/DequantizeParallel", DequantizeParallel(pool, 2, q).Data(), want)
		dst := make([]float32, q.numel)
		DequantizeInto(pool, 2, dst, q)
		requireSameFloats(t, label+"/DequantizeInto", dst, want)
	}
}

// TestDequantizeMatchesPerElementReference pins the dequantization kernels
// — the 4-bit table path included — to the per-element Eq. 11 loop over
// every code width and a spread of group sizes: odd 4-bit groups whose
// groups start mid-byte, padded tails, zero-scale groups, and NaN/±Inf
// group parameters.
func TestDequantizeMatchesPerElementReference(t *testing.T) {
	pool := threadpool.MustNew(2)
	rng := rand.New(rand.NewSource(11))
	for bits := 1; bits <= 8; bits++ {
		for _, gs := range []int{1, 3, 7, 10, 16, 64, 100} {
			for _, n := range []int{1, gs, 2*gs + 1, 5*gs - 1, 70*gs + 3} {
				cfg := Config{Bits: bits, GroupSize: gs}
				for _, special := range []bool{false, true} {
					checkDequantize(t, "random", pool, randomQuantized(rng, cfg, n, special))
				}
				// And a real quantization of data holding ±Inf and NaN.
				x := tensor.RandN(rng, 1, n)
				for i := range x.Data() {
					if rng.Intn(97) == 0 {
						x.Data()[i] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
					}
				}
				q, err := Quantize(x, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDequantize(t, "quantized", pool, q)
			}
		}
	}
}

// FuzzDequantize drives the same comparison from fuzzed geometry, codes and
// group parameters.
func FuzzDequantize(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(64), uint16(300), true)
	f.Add(int64(2), uint8(4), uint8(7), uint16(50), false)
	f.Add(int64(3), uint8(3), uint8(10), uint16(1), true)
	pool := threadpool.MustNew(2)
	f.Fuzz(func(t *testing.T, seed int64, bitsRaw, groupRaw uint8, nRaw uint16, special bool) {
		cfg := Config{Bits: 1 + int(bitsRaw%8), GroupSize: 1 + int(groupRaw%128)}
		n := 1 + int(nRaw%8192)
		q := randomQuantized(rand.New(rand.NewSource(seed)), cfg, n, special)
		checkDequantize(t, "fuzz", pool, q)
	})
}

// TestQuantizeNaNAnywhereInGroup: a NaN makes its whole group dequantize to
// NaN wherever it sits in the group, through Quantize and QuantizeParallel
// alike, and leaves the other groups as a NaN-free input quantizes them.
func TestQuantizeNaNAnywhereInGroup(t *testing.T) {
	const gs = 64
	cfg := Config{Bits: 4, GroupSize: gs}
	pool := threadpool.MustNew(2)
	ramp := make([]float32, 3*gs)
	for i := range ramp {
		ramp[i] = float32(i) / 10
	}
	clean, err := Quantize(tensor.FromSlice(ramp, len(ramp)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Dequantize(clean).Data()
	for _, pos := range []int{0, 1, 5, 31, gs - 1} {
		data := append([]float32(nil), ramp...)
		data[gs+pos] = float32(math.NaN())
		x := tensor.FromSlice(data, len(data))
		for name, quantize := range map[string]func() (*Tensor, error){
			"Quantize":         func() (*Tensor, error) { return Quantize(x, cfg) },
			"QuantizeParallel": func() (*Tensor, error) { return QuantizeParallel(pool, 2, x, cfg) },
		} {
			q, err := quantize()
			if err != nil {
				t.Fatal(err)
			}
			got := Dequantize(q).Data()
			for i, v := range got {
				inGroup := i >= gs && i < 2*gs
				if inGroup && !math.IsNaN(float64(v)) {
					t.Fatalf("%s, NaN at %d: element %d = %g, want NaN", name, pos, i-gs, v)
				}
				if !inGroup && math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("%s, NaN at %d: element %d of another group = %g, want %g", name, pos, i, v, want[i])
				}
			}
		}
	}
}

// BenchmarkDequantizeW4 times the serial 4-bit dequantization of a Small
// model MLP weight, per expansion path, and reports ns per element:
//
//	go test ./internal/quant -run '^$' -bench DequantizeW4
func BenchmarkDequantizeW4(b *testing.B) {
	x := tensor.RandN(rand.New(rand.NewSource(1)), 1, 128, 512)
	q, err := Quantize(x, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, x.Numel())
	for _, path := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"portable", false}} {
		if path.simd && !cpufeat.AVX2 {
			continue
		}
		b.Run(path.name, func(b *testing.B) {
			defer func(old bool) { useAVX2 = old }(useAVX2)
			useAVX2 = path.simd
			for i := 0; i < b.N; i++ {
				DequantizeInto(nil, 1, dst, q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/elem")
		})
	}
}
