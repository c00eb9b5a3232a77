package tensor

import (
	"fmt"
	"math"
)

// IEEE 754 binary16 support. The paper's deployment precision is FP16;
// the functional runtime stores offloaded tensors as half-precision words so
// transfer sizes and rounding behaviour match the modeled 2-byte elements,
// while compute still runs in float32 (as CPU attention does in FlexGen).

// F16 is one half-precision value in its raw bit representation.
type F16 uint16

// F16FromFloat32 converts with round-to-nearest-even, handling subnormals,
// infinities, and NaN.
func F16FromFloat32(f float32) F16 {
	bits := math.Float32bits(f)
	sign := uint16(bits >> 16 & 0x8000)
	exp := int32(bits>>23&0xff) - 127
	frac := bits & 0x7fffff

	switch {
	case exp == 128: // Inf or NaN
		if frac != 0 {
			// Preserve a quiet NaN.
			return F16(sign | 0x7e00)
		}
		return F16(sign | 0x7c00)
	case exp > 15: // overflow -> Inf
		return F16(sign | 0x7c00)
	case exp >= -14: // normal range
		// Round to nearest even on the 13 dropped bits.
		mant := frac | 0x800000 // implicit leading 1
		shifted := mant >> 13
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && shifted&1 == 1) {
			shifted++
		}
		// A mantissa carry bumps the exponent (and may overflow to Inf).
		e := uint32(exp+15) + (shifted >> 11)
		shifted &= 0x3ff
		if shifted == 0 && e > uint32(exp+15) {
			// carry rolled the mantissa over; e already incremented
		}
		if e >= 31 {
			return F16(sign | 0x7c00)
		}
		return F16(sign | uint16(e<<10) | uint16(shifted&0x3ff))
	case exp >= -24: // subnormal
		mant := frac | 0x800000
		shift := uint32(-exp - 14 + 13)
		shifted := mant >> shift
		rem := mant & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && shifted&1 == 1) {
			shifted++
		}
		return F16(sign | uint16(shifted))
	default: // underflow -> signed zero
		return F16(sign)
	}
}

// Float32 converts back to single precision exactly (every F16 value is
// representable in float32).
func (h F16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	frac := uint32(h & 0x3ff)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3ff
		return math.Float32frombits(sign | e<<23 | frac<<13)
	case 31:
		if frac == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
	}
}

// F16Slice is a packed half-precision buffer with the source shape, the
// storage format the runtime's host-side tensor stores use.
type F16Slice struct {
	data  []F16
	shape []int
}

// ToF16 converts a float32 tensor to packed half precision.
func ToF16(t *Tensor) *F16Slice {
	out := &F16Slice{
		data:  make([]F16, t.Numel()),
		shape: append([]int(nil), t.Shape()...),
	}
	for i, v := range t.Data() {
		out.data[i] = F16FromFloat32(v)
	}
	return out
}

// ToFloat32 expands back to a float32 tensor (with FP16 rounding applied).
func (s *F16Slice) ToFloat32() *Tensor {
	out := New(s.shape...)
	s.DecodeInto(out.data)
	return out
}

// DecodeInto expands the half-precision words into dst, which must hold
// exactly Numel elements.
func (s *F16Slice) DecodeInto(dst []float32) {
	if len(dst) != len(s.data) {
		panic(fmt.Sprintf("tensor: DecodeInto destination holds %d elements, slice has %d", len(dst), len(s.data)))
	}
	for i, h := range s.data {
		dst[i] = h.Float32()
	}
}

// Bytes returns the packed size (2 bytes per element).
func (s *F16Slice) Bytes() int64 { return int64(len(s.data)) * 2 }

// Shape returns the source shape.
func (s *F16Slice) Shape() []int { return s.shape }

// Numel returns the element count.
func (s *F16Slice) Numel() int { return len(s.data) }
