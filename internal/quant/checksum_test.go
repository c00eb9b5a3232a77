package quant

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// refChecksum is the per-float reference the bulk checksum must reproduce:
// the packed codes, then each group's min and scale written to the hash one
// little-endian word at a time.
func refChecksum(q *Tensor) uint32 {
	h := crc32.NewIEEE()
	h.Write(q.packed)
	var buf [4]byte
	for i := range q.mins {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(q.mins[i]))
		h.Write(buf[:])
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(q.scales[i]))
		h.Write(buf[:])
	}
	return h.Sum32()
}

// checksumPayloads covers what a CRC over float bit patterns must not
// normalize: signed zeros, NaN payloads, infinities, the empty case, and
// odd lengths on both sides of the stack buffer's block boundary.
func checksumPayloads() [][]float32 {
	bits := func(b ...uint32) []float32 {
		out := make([]float32, len(b))
		for i, x := range b {
			out[i] = math.Float32frombits(x)
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	random := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * 100)
		}
		return out
	}
	return [][]float32{
		nil,
		{},
		random(1),
		random(3),
		random(31),
		random(32),
		random(33),
		random(65),
		random(257),
		bits(0x00000000, 0x80000000, 0x00000000),
		bits(0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff8fffff),
		bits(0x7f800000, 0xff800000, 0x4b800000, 0xcb800001, 0x00000001),
	}
}

func TestChecksumMatchesPerFloatReference(t *testing.T) {
	packed := []byte{0x00, 0xff, 0x5a, 0xa5, 0x13}
	for i, mins := range checksumPayloads() {
		// Reverse the mins as scales so the interleaving order matters.
		scales := make([]float32, len(mins))
		for j := range mins {
			scales[j] = mins[len(mins)-1-j]
		}
		for _, p := range [][]byte{nil, packed} {
			q := &Tensor{packed: p, mins: mins, scales: scales}
			if got, want := q.checksum(), refChecksum(q); got != want {
				t.Fatalf("payload %d (%d groups, %d packed bytes): checksum %08x, per-float reference %08x",
					i, len(mins), len(p), got, want)
			}
		}
	}
}
