package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits F16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{float32(math.Inf(1)), 0x7c00},  // +Inf
		{float32(math.Inf(-1)), 0xfc00}, // -Inf
		{5.9604645e-08, 0x0001},         // smallest subnormal
		{0.000060975552, 0x03ff},        // largest subnormal
	}
	for _, c := range cases {
		if got := F16FromFloat32(c.f); got != c.bits {
			t.Errorf("F16FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := c.bits.Float32(); back != c.f {
			t.Errorf("F16(%#04x).Float32() = %g, want %g", c.bits, back, c.f)
		}
	}
}

func TestF16Overflow(t *testing.T) {
	if got := F16FromFloat32(70000); got != 0x7c00 {
		t.Errorf("70000 -> %#04x, want +Inf", got)
	}
	if got := F16FromFloat32(-70000); got != 0xfc00 {
		t.Errorf("-70000 -> %#04x, want -Inf", got)
	}
}

func TestF16Underflow(t *testing.T) {
	if got := F16FromFloat32(1e-10); got != 0 {
		t.Errorf("1e-10 -> %#04x, want +0", got)
	}
	if got := F16FromFloat32(-1e-10); got != 0x8000 {
		t.Errorf("-1e-10 -> %#04x, want -0", got)
	}
}

func TestF16NaN(t *testing.T) {
	h := F16FromFloat32(float32(math.NaN()))
	if !math.IsNaN(float64(h.Float32())) {
		t.Errorf("NaN round trip = %g", h.Float32())
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 lies exactly between 1.0 and the next half (1 + 2^-10);
	// round-to-even picks 1.0.
	x := float32(1) + float32(math.Pow(2, -11))
	if got := F16FromFloat32(x).Float32(); got != 1 {
		t.Errorf("midpoint rounded to %g, want 1 (even)", got)
	}
	// 1 + 3*2^-11 lies between 1+2^-10 and 1+2^-9; even is 1+2^-9.
	y := float32(1) + 3*float32(math.Pow(2, -11))
	want := float32(1) + float32(math.Pow(2, -9))
	if got := F16FromFloat32(y).Float32(); got != want {
		t.Errorf("midpoint rounded to %g, want %g (even)", got, want)
	}
}

// Property: every exact F16 value survives a float32 round trip bit-exactly.
func TestPropertyF16Exhaustive(t *testing.T) {
	for bits := 0; bits <= 0xffff; bits++ {
		h := F16(bits)
		f := h.Float32()
		if math.IsNaN(float64(f)) {
			if !math.IsNaN(float64(F16FromFloat32(f).Float32())) {
				t.Fatalf("NaN %#04x lost", bits)
			}
			continue
		}
		if got := F16FromFloat32(f); got != h {
			// -0 vs +0 must still be preserved by our conversion.
			t.Fatalf("F16 %#04x -> %g -> %#04x", bits, f, got)
		}
	}
}

// Property: conversion error is bounded by half a ULP of the half format.
func TestPropertyF16ErrorBound(t *testing.T) {
	f := func(raw float32) bool {
		if math.IsNaN(float64(raw)) || math.IsInf(float64(raw), 0) {
			return true
		}
		if raw > 65504 || raw < -65504 {
			return true // overflow maps to Inf by design
		}
		got := float64(F16FromFloat32(raw).Float32())
		diff := math.Abs(got - float64(raw))
		// Relative bound 2^-11 for normals, absolute bound for subnormals.
		bound := math.Max(math.Abs(float64(raw))*math.Pow(2, -11), 5.97e-8/2*1.001)
		return diff <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestF16SliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, 1, 5, 7)
	s := ToF16(x)
	if s.Bytes() != 70 || s.Numel() != 35 {
		t.Errorf("packed geometry: %d bytes, %d elems", s.Bytes(), s.Numel())
	}
	y := s.ToFloat32()
	if y.Dim(0) != 5 || y.Dim(1) != 7 {
		t.Fatalf("shape lost: %v", y.Shape())
	}
	if d := x.MaxAbsDiff(y); d > 0.01 {
		t.Errorf("round-trip error %g too large for unit-variance data", d)
	}
	// The fp16 lattice is idempotent.
	z := ToF16(y).ToFloat32()
	if d := y.MaxAbsDiff(z); d != 0 {
		t.Errorf("second round trip changed values by %g", d)
	}
}
