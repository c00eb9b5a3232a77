package model

import (
	"fmt"

	"repro/internal/tensor"
)

// KVCache stores the per-layer key and value projections of every processed
// token for one batch of sequences. Keys and values are stored per sequence
// as [seq, hidden] matrices so appending a token is a row concatenation —
// the linear growth the paper's Figure 1 shows.
type KVCache struct {
	layers int
	batch  int
	hidden int
	// keys[layer][seq] and values[layer][seq] are [tokens, hidden] tensors.
	keys   [][]*tensor.Tensor
	values [][]*tensor.Tensor
}

// NewKVCache creates an empty cache for the given geometry.
func NewKVCache(layers, batch, hidden int) *KVCache {
	if layers <= 0 || batch <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("model: invalid KV cache geometry %d/%d/%d", layers, batch, hidden))
	}
	kc := &KVCache{layers: layers, batch: batch, hidden: hidden}
	kc.keys = make([][]*tensor.Tensor, layers)
	kc.values = make([][]*tensor.Tensor, layers)
	for l := 0; l < layers; l++ {
		kc.keys[l] = make([]*tensor.Tensor, batch)
		kc.values[l] = make([]*tensor.Tensor, batch)
	}
	return kc
}

// Append adds one layer's new key/value rows for sequence seq. k and v must
// be [t, hidden] tensors (t ≥ 1; the prefill appends the whole prompt at
// once, decode steps append one row). The rows are copied in after the
// slot's history, in place when its storage has spare capacity (a fetched
// history carries one spare row for the decode step's token), so an append
// does not copy the history. Tensors returned by Keys/Values earlier keep
// their rows.
func (kc *KVCache) Append(layer, seq int, k, v *tensor.Tensor) {
	if k.Dim(1) != kc.hidden || v.Dim(1) != kc.hidden {
		panic(fmt.Sprintf("model: KV append width %d/%d, want %d", k.Dim(1), v.Dim(1), kc.hidden))
	}
	kc.keys[layer][seq] = tensor.AppendRows(kc.keys[layer][seq], k)
	kc.values[layer][seq] = tensor.AppendRows(kc.values[layer][seq], v)
}

// Keys returns the [tokens, hidden] key matrix for (layer, seq), or nil if
// nothing has been appended.
func (kc *KVCache) Keys(layer, seq int) *tensor.Tensor { return kc.keys[layer][seq] }

// Values returns the [tokens, hidden] value matrix for (layer, seq).
func (kc *KVCache) Values(layer, seq int) *tensor.Tensor { return kc.values[layer][seq] }

// SetKV replaces the stored tensors for (layer, seq); the offloading runtime
// uses this to install dequantized copies fetched from host memory. The
// cache takes ownership: later appends may grow k and v in place, so the
// caller must not append to them itself or hand them to another cache.
func (kc *KVCache) SetKV(layer, seq int, k, v *tensor.Tensor) {
	kc.keys[layer][seq] = k
	kc.values[layer][seq] = v
}

// SeqLen returns the token count cached for (layer, seq).
func (kc *KVCache) SeqLen(layer, seq int) int {
	if kc.keys[layer][seq] == nil {
		return 0
	}
	return kc.keys[layer][seq].Dim(0)
}

// SeqLens snapshots the cached token count of every (layer, seq) slot —
// a rollback mark for fault recovery (see TruncateTo).
func (kc *KVCache) SeqLens() [][]int {
	out := make([][]int, kc.layers)
	for l := range out {
		out[l] = make([]int, kc.batch)
		for s := 0; s < kc.batch; s++ {
			out[l][s] = kc.SeqLen(l, s)
		}
	}
	return out
}

// TruncateTo rewinds every slot to the token counts recorded by an earlier
// SeqLens call, discarding rows appended since. The offloading runtime uses
// this to undo a partially completed decode step before retrying it.
func (kc *KVCache) TruncateTo(lens [][]int) {
	for l := range lens {
		for s, n := range lens[l] {
			cur := kc.SeqLen(l, s)
			if n >= cur {
				continue
			}
			if n == 0 {
				kc.keys[l][s], kc.values[l][s] = nil, nil
				continue
			}
			kc.keys[l][s] = truncRows(kc.keys[l][s], n)
			kc.values[l][s] = truncRows(kc.values[l][s], n)
		}
	}
}

// truncRows copies the first n rows of a [rows, hidden] tensor. A copy, not
// a view: appending in place past row n of the old storage would overwrite
// rows that views taken before the rollback still show.
func truncRows(t *tensor.Tensor, n int) *tensor.Tensor {
	w := t.Dim(1)
	return tensor.FromSlice(append([]float32(nil), t.Data()[:n*w]...), n, w)
}

// Layers returns the layer count.
func (kc *KVCache) Layers() int { return kc.layers }

// Bytes returns the total cache footprint at 4 bytes per element (the
// functional runtime's float32 representation).
func (kc *KVCache) Bytes() int64 {
	var total int64
	for l := 0; l < kc.layers; l++ {
		for s := 0; s < kc.batch; s++ {
			if kc.keys[l][s] != nil {
				total += kc.keys[l][s].Bytes() + kc.values[l][s].Bytes()
			}
		}
	}
	return total
}
