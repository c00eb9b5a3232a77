// Package quant implements FlexGen's group-wise quantization exactly as
// described by Algorithm 2 of the paper: pad the tensor so groups divide the
// quantization dimension evenly, find per-group min/max, min-max normalize
// into b bits (Eq. 10), and pack the codes into bytes. Dequantization
// reverses the last three phases (Eq. 11).
//
// The implementation does real bit packing so compressed sizes match what the
// I/O models charge for, and it reports per-phase element counts so the
// performance model's phase decomposition (min/max scan, normalization,
// post-processing copy) can be validated against the executable code.
package quant

import (
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// useAVX2 selects the assembly 4-bit expansion in dequantGroups
// (quant_amd64.s). It is set once from CPUID; tests flip it to compare the
// two paths. The Go loop is the reference and the path on every other CPU
// and architecture.
var useAVX2 = cpufeat.AVX2

// Config selects the quantization parameters.
type Config struct {
	// Bits is the code width; must be in [1, 8].
	Bits int
	// GroupSize is the number of elements sharing one min/max pair; must be
	// positive. FlexGen's default is 64.
	GroupSize int
}

// DefaultConfig is FlexGen's default: 4-bit codes with 64-element groups.
func DefaultConfig() Config { return Config{Bits: 4, GroupSize: 64} }

// Validate reports invalid parameter combinations.
func (c Config) Validate() error {
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("quant: bits must be in [1, 8], got %d", c.Bits)
	}
	if c.GroupSize <= 0 {
		return fmt.Errorf("quant: group size must be positive, got %d", c.GroupSize)
	}
	return nil
}

// CompressionRatio returns the ideal size ratio versus 16-bit storage,
// ignoring the per-group min/max overhead (matching how the paper counts
// I/O reduction).
func (c Config) CompressionRatio() float64 { return float64(c.Bits) / 16 }

// Tensor is a quantized tensor: packed codes plus per-group dequantization
// parameters and enough geometry to reverse the padding.
type Tensor struct {
	cfg    Config
	shape  []int // original (unpadded) shape
	numel  int   // original element count
	padded int   // element count after padding to a multiple of GroupSize
	packed []byte
	mins   []float32
	scales []float32 // (max - min) per group
	crc    uint32    // CRC-32 (IEEE) over packed codes and group metadata
}

// checksum hashes the packed codes, then each group's min and scale as
// little-endian IEEE-754 words, interleaved group by group. The codes go
// through crc32.Update in one call; the interleaved words are folded into
// the same CRC straight from the slices, with no per-float hash write and
// no staging buffer (one would escape to the heap through crc32.Update).
// CRC-32 detects every burst error up to 32 bits, so any single-byte
// corruption of the payload is caught.
func (q *Tensor) checksum() uint32 {
	crc := ^crc32.Update(0, crc32.IEEETable, q.packed)
	for i := range q.mins {
		crc = crcWord(crc, math.Float32bits(q.mins[i]))
		crc = crcWord(crc, math.Float32bits(q.scales[i]))
	}
	return ^crc
}

// crcWord folds the four little-endian bytes of w into a running IEEE CRC
// held in its inverted form (crc32.Update's register between calls).
func crcWord(crc, w uint32) uint32 {
	for i := 0; i < 4; i++ {
		crc = crc32.IEEETable[byte(crc)^byte(w)] ^ crc>>8
		w >>= 8
	}
	return crc
}

// seal records the tensor's checksum; called once at quantization time.
func (q *Tensor) seal() { q.crc = q.checksum() }

// Verify recomputes the checksum and reports corruption. A quantized tensor
// must never be silently dequantized after its payload was damaged in
// flight; callers check Verify after every transfer.
func (q *Tensor) Verify() error {
	if got := q.checksum(); got != q.crc {
		return fmt.Errorf("quant: checksum mismatch (stored %08x, computed %08x): corrupted tensor", q.crc, got)
	}
	return nil
}

// Clone returns a deep copy sharing no storage with q.
func (q *Tensor) Clone() *Tensor {
	cp := &Tensor{
		cfg:    q.cfg,
		shape:  append([]int(nil), q.shape...),
		numel:  q.numel,
		padded: q.padded,
		packed: append([]byte(nil), q.packed...),
		mins:   append([]float32(nil), q.mins...),
		scales: append([]float32(nil), q.scales...),
		crc:    q.crc,
	}
	return cp
}

// Corrupt XORs the packed byte at index i (modulo the payload length)
// without updating the checksum — fault-injection and test support for
// modeling in-flight bit flips. A zero xor is a no-op.
func (q *Tensor) Corrupt(i int, xor byte) {
	if len(q.packed) == 0 {
		return
	}
	q.packed[((i%len(q.packed))+len(q.packed))%len(q.packed)] ^= xor
}

// Config returns the parameters this tensor was quantized with.
func (q *Tensor) Config() Config { return q.cfg }

// Shape returns the original tensor shape.
func (q *Tensor) Shape() []int { return q.shape }

// PackedBytes returns the size of the packed code array — the payload the
// interconnect must move.
func (q *Tensor) PackedBytes() int64 { return int64(len(q.packed)) }

// TotalBytes returns packed codes plus per-group metadata (two float32 each),
// the full transfer size.
func (q *Tensor) TotalBytes() int64 {
	return int64(len(q.packed)) + int64(len(q.mins))*4 + int64(len(q.scales))*4
}

// Groups returns the number of quantization groups.
func (q *Tensor) Groups() int { return len(q.mins) }

// PhaseCounts reports the work per phase for a tensor of n elements under
// cfg, mirroring the performance model's accounting: the pad phase touches
// the padding tail only, min/max and normalize touch every padded element,
// and pack writes ceil(padded*bits/8) bytes.
type PhaseCounts struct {
	PadElems       int
	MinMaxElems    int
	NormalizeElems int
	PackBytes      int
}

// Phases returns the per-phase work for quantizing n elements.
func (c Config) Phases(n int) PhaseCounts {
	padded := paddedLen(n, c.GroupSize)
	return PhaseCounts{
		PadElems:       padded - n,
		MinMaxElems:    padded,
		NormalizeElems: padded,
		PackBytes:      (padded*c.Bits + 7) / 8,
	}
}

func paddedLen(n, group int) int {
	if rem := n % group; rem != 0 {
		return n + group - rem
	}
	return n
}

// Quantize compresses t under cfg. The tensor is treated as a flat row-major
// array grouped along the last (contiguous) dimension, matching FlexGen's
// quantize_dim default.
func Quantize(t *tensor.Tensor, cfg Config) (*Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q, work := newQuantized(t, cfg)
	q.quantizeGroups(work, 0, len(q.mins), make([]uint8, cfg.GroupSize))
	q.seal()
	return q, nil
}

// newQuantized allocates q's storage for t under cfg and returns the
// padded element stream to quantize (Phase 1: pad). The tail replicates the
// last value so it cannot widen the final group's range.
func newQuantized(t *tensor.Tensor, cfg Config) (q *Tensor, work []float32) {
	src := t.Data()
	n := len(src)
	padded := paddedLen(n, cfg.GroupSize)
	work = src
	if padded != n {
		work = make([]float32, padded)
		copy(work, src)
		fill := src[n-1]
		for i := n; i < padded; i++ {
			work[i] = fill
		}
	}
	groups := padded / cfg.GroupSize
	return &Tensor{
		cfg:    cfg,
		shape:  append([]int(nil), t.Shape()...),
		numel:  n,
		padded: padded,
		packed: make([]byte, (padded*cfg.Bits+7)/8),
		mins:   make([]float32, groups),
		scales: make([]float32, groups),
	}, work
}

// quantizeGroups quantizes groups [lo, hi) of the padded stream work into
// q, using codes (GroupSize long) as scratch.
func (q *Tensor) quantizeGroups(work []float32, lo, hi int, codes []uint8) {
	gs := q.cfg.GroupSize
	levels := float32(int(1)<<q.cfg.Bits - 1) // 2^b - 1
	for g := lo; g < hi; g++ {
		q.mins[g], q.scales[g] = quantizeGroup(work[g*gs:(g+1)*gs], codes, levels)
		// Phase 4: pack codes into the bit stream.
		packBits(q.packed, g*gs, codes, q.cfg.Bits)
	}
}

// quantizeGroup finds one group's min and max (Phase 2) and min-max
// normalizes it into codes (Phase 3, Eq. 10, clamped). A group holding a
// NaN anywhere gets that NaN as its min and all-zero codes, so every element
// of it dequantizes to NaN; ordered comparisons alone would skip a NaN that
// is not first and let it round to a finite code.
func quantizeGroup(grp []float32, codes []uint8, levels float32) (mn, scale float32) {
	mn, mx := grp[0], grp[0]
	for _, v := range grp[1:] {
		// A NaN becomes the min, and mn stays NaN from then on.
		if v < mn || v != v {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	scale = mx - mn
	if scale == 0 || mn != mn {
		clear(codes)
		return mn, scale
	}
	inv := levels / scale
	for i, v := range grp {
		c := float32(math.Round(float64((v - mn) * inv)))
		if c < 0 {
			c = 0
		} else if c > levels {
			c = levels
		}
		codes[i] = uint8(c)
	}
	return mn, scale
}

// Dequantize reconstructs a float32 tensor from q (Eq. 11). The padding tail
// is dropped so the result has the original shape.
func Dequantize(q *Tensor) *tensor.Tensor {
	out := make([]float32, q.numel)
	q.dequantGroups(out, 0, len(q.mins))
	return tensor.FromSlice(out, q.shape...)
}

// dequantGroups reconstructs groups [lo, hi) into dst, which holds the
// tensor's unpadded elements; the padding tail of the last group is
// dropped. It allocates nothing.
//
// A 4-bit group that starts on a byte boundary evaluates Eq. 11 once per
// code value into a 16-entry table and expands each packed byte into two
// lookups; the table entries are the same expression on the same operands,
// so the values are exactly the per-element ones. Eq. 11 parses as
// ((c/levels)*scale)+min, so c/levels is computed once per call, not once
// per group. With AVX2, whole four-byte runs expand in assembly and the Go
// loop finishes the tail. Every other group unpacks its codes through a
// stack buffer and evaluates Eq. 11 per element.
func (q *Tensor) dequantGroups(dst []float32, lo, hi int) {
	levels := float32(int(1)<<q.cfg.Bits - 1)
	var codes [256]uint8
	var table, norm [16]float32
	if q.cfg.Bits == 4 {
		for c := range norm {
			norm[c] = float32(c) / levels
		}
	}
	gs := q.cfg.GroupSize
	for g := lo; g < hi; g++ {
		start := g * gs
		out := dst[start:min(start+gs, len(dst))]
		mn, scale := q.mins[g], q.scales[g]
		if scale == 0 {
			for i := range out {
				out[i] = mn
			}
			continue
		}
		if q.cfg.Bits == 4 && start%2 == 0 {
			for c := range table {
				table[c] = norm[c]*scale + mn
			}
			packed := q.packed[start/2 : start/2+(len(out)+1)/2]
			v := 0 // elements the assembly loop covers
			if useAVX2 && len(out) >= 8 {
				v = len(out) &^ 7
				dequant4AVX2(&out[0], &packed[0], &table, v)
			}
			i := v
			for _, b := range packed[v/2 : len(out)/2] {
				out[i], out[i+1] = table[b&0xF], table[b>>4]
				i += 2
			}
			if i < len(out) {
				out[i] = table[packed[len(packed)-1]&0xF]
			}
			continue
		}
		for off := 0; off < len(out); off += len(codes) {
			seg := out[off:min(off+len(codes), len(out))]
			c := codes[:len(seg)]
			unpackBits(q.packed, start+off, c, q.cfg.Bits)
			for i, code := range c {
				seg[i] = float32(code)/levels*scale + mn
			}
		}
	}
}

// packBits writes codes (each < 2^bits) starting at element index start of
// the packed stream.
func packBits(dst []byte, start int, codes []uint8, bits int) {
	for i, c := range codes {
		bitPos := (start + i) * bits
		byteIdx := bitPos >> 3
		shift := bitPos & 7
		dst[byteIdx] |= c << shift
		if shift+bits > 8 {
			dst[byteIdx+1] |= c >> (8 - shift)
		}
	}
}

// unpackBits reads len(codes) codes starting at element index start.
func unpackBits(src []byte, start int, codes []uint8, bits int) {
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

// MaxError returns the worst-case absolute reconstruction error bound for a
// group with the given value range under cfg: half a quantization step.
func (c Config) MaxError(valueRange float64) float64 {
	levels := float64(int(1)<<c.Bits - 1)
	return valueRange / levels / 2
}
