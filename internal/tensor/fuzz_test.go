package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzF16RoundTrip checks the half-precision conversion invariants on
// arbitrary float32 bit patterns: finite inputs inside the representable
// range convert within half a ULP; Inf/NaN classes are preserved; every
// conversion output survives a second round trip bit-exactly.
func FuzzF16RoundTrip(f *testing.F) {
	f.Add(uint32(0))
	f.Add(math.Float32bits(1.0))
	f.Add(math.Float32bits(-65504))
	f.Add(math.Float32bits(6e-8))
	f.Add(uint32(0x7f800001)) // NaN
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		h := F16FromFloat32(x)
		back := h.Float32()
		switch {
		case math.IsNaN(float64(x)):
			if !math.IsNaN(float64(back)) {
				t.Fatalf("NaN lost: %#08x -> %#04x -> %g", bits, h, back)
			}
		case math.IsInf(float64(x), 0) || x > 65504 || x < -65504:
			if !math.IsInf(float64(back), 0) && math.Abs(float64(back)) < 65504 {
				t.Fatalf("overflow mishandled: %g -> %g", x, back)
			}
		default:
			rel := math.Abs(float64(back) - float64(x))
			bound := math.Max(math.Abs(float64(x))*math.Pow(2, -11), 3.0e-8)
			if rel > bound {
				t.Fatalf("error %g exceeds bound %g for %g", rel, bound, x)
			}
		}
		// Idempotence: the half lattice is a fixed point.
		again := F16FromFloat32(back)
		if !math.IsNaN(float64(back)) && again != h {
			t.Fatalf("not idempotent: %#04x -> %g -> %#04x", h, back, again)
		}
	})
}

// float32sOf reads data as little-endian float32 bit patterns, up to max.
func float32sOf(data []byte, max int) []float32 {
	xs := make([]float32, 0, min(len(data)/4, max))
	for ; len(data) >= 4 && len(xs) < max; data = data[4:] {
		xs = append(xs, math.Float32frombits(binary.LittleEndian.Uint32(data)))
	}
	return xs
}

// FuzzGELU: on arbitrary float32 inputs and lengths, GELU's AVX2 path is
// bit-identical to the scalar expression, NaN matching any NaN.
func FuzzGELU(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0xc0, 0x7f})
	f.Add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(crossing(0.625))))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := float32sOf(data, 256)
		if len(in) == 0 {
			return
		}
		x := FromSlice(append([]float32(nil), in...), len(in))
		OnPath(true, func() { GELU(x) })
		for i, v := range in {
			if want := gelu(v); !sameFloat32(x.data[i], want) {
				t.Fatalf("GELU(%g [%#08x]) = %g, want %g", v, math.Float32bits(v), x.data[i], want)
			}
		}
	})
}

// FuzzSoftmaxRows: on arbitrary scores, shapes, scales and causal offsets,
// SoftmaxRows and CausalSoftmaxRows agree bit for bit between the two
// paths, and CausalSoftmaxRows with the former scale-mask-softmax sequence
// (NaN matching any NaN).
func FuzzSoftmaxRows(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xff, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0x40}, uint8(1), uint8(0), float32(0.25))
	f.Add(make([]byte, 4*130), uint8(0), uint8(3), float32(1))
	f.Fuzz(func(t *testing.T, data []byte, mr, br uint8, scale float32) {
		in := float32sOf(data, 520)
		m := 1 + int(mr)%4
		n := len(in) / m
		if n < m {
			return
		}
		base := int(br) % (n - m + 1)
		x := FromSlice(in[:m*n], m, n)
		var plain, causal [2]*Tensor
		for i, simd := range []bool{false, true} {
			plain[i], causal[i] = x.Clone(), x.Clone()
			OnPath(simd, func() {
				SoftmaxRows(nil, 1, plain[i])
				CausalSoftmaxRows(nil, 1, causal[i], scale, base)
			})
		}
		want := x.Clone()
		threePassSoftmax(want, scale, base)
		bitsEqual(t, "SoftmaxRows", plain[1], plain[0])
		bitsEqual(t, "CausalSoftmaxRows", causal[1], causal[0])
		bitsEqual(t, "CausalSoftmaxRows vs three passes", causal[0], want)
	})
}
