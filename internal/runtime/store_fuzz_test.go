package runtime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// FuzzKVFetch drives a KV store through op sequences — raw, f16 and kv4
// (SetSlotQuant) appends of random row counts holding non-finite values,
// interleaved with Mark, Rollback and ResetSlot — and after every op checks
// that FetchTimed of every (layer, seq) slot equals the per-chunk
// materialize + ConcatRows oracle bit for bit, with the same transfer bytes.
func FuzzKVFetch(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 4, 4, 0, 2, 9, 5, 0, 0, 3})
	f.Add(uint8(1), []byte{0, 0, 3, 1, 1, 1, 4, 0, 2, 6, 5, 0, 6, 1, 0, 7})
	f.Add(uint8(2), []byte{0, 2, 1, 35, 2, 64, 6, 0, 0, 1})
	f.Add(uint8(0), []byte{3, 1, 0, 1, 3, 0, 0, 1, 3, 1, 0, 5})
	// Several chunks on one slot in each store mode.
	f.Add(uint8(1), []byte{0, 0, 1, 4, 2, 8, 4, 0, 0, 0, 5, 0, 0, 4})
	f.Add(uint8(2), []byte{0, 0, 1, 4, 2, 8, 4, 0, 0, 0, 5, 0, 0, 4})
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		const layers, batch, hidden = 2, 2, 12
		// 12-wide rows against 8-element groups leave padded group tails.
		q4 := quant.Config{Bits: 4, GroupSize: 8}
		st, err := NewKVStore(layers, batch, mode%3 == 2, q4, mode%3 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 96 {
			ops = ops[:96]
		}
		var mark [][]int
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			seq, layer := int(arg)%batch, int(arg>>1)%layers
			switch op {
			case 0, 1, 2:
				rows := 1 + int(arg>>2)%5
				rng := rand.New(rand.NewSource(int64(i)<<8 | int64(arg)))
				if _, err := st.Append(layer, seq, fuzzKVRows(rng, rows, hidden), fuzzKVRows(rng, rows, hidden)); err != nil {
					t.Fatal(err)
				}
			case 3:
				var cfg *quant.Config
				if arg&0x80 == 0 {
					cfg = &q4
				}
				if err := st.SetSlotQuant(seq, cfg); err != nil {
					t.Fatal(err)
				}
			case 4:
				mark = st.Mark()
			case 5:
				if mark != nil {
					st.Rollback(mark)
				}
			case 6:
				st.ResetSlot(seq)
			}
			for l := 0; l < layers; l++ {
				for s := 0; s < batch; s++ {
					checkFetchMatchesOracle(t, st, l, s)
				}
			}
		}
	})
}

// fuzzKVRows draws a [rows, hidden] tensor mixing ordinary values with
// NaN, ±Inf, ±0 and magnitudes past 2^24.
func fuzzKVRows(rng *rand.Rand, rows, hidden int) *tensor.Tensor {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1 << 25, -3e38,
	}
	out := tensor.New(rows, hidden)
	for i := range out.Data() {
		if rng.Intn(8) == 0 {
			out.Data()[i] = special[rng.Intn(len(special))]
		} else {
			out.Data()[i] = float32(rng.NormFloat64())
		}
	}
	return out
}
