package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// Model is an executable decoder-only transformer with real weights, used by
// the functional offloading runtime and the tests. Large configurations are
// never instantiated as Models — they exist only as Configs feeding the
// analytical layer.
type Model struct {
	Cfg       Config
	Embedding *tensor.Tensor // [vocab, hidden]
	Layers    []*LayerWeights
	FinalGain *tensor.Tensor // [hidden]
	// Unembed shares the embedding matrix (weight tying), so logits are
	// hidden · Embeddingᵀ.
}

// NewModel instantiates cfg with deterministic random weights.
func NewModel(rng *rand.Rand, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:       cfg,
		Embedding: tensor.RandN(rng, 1/math.Sqrt(float64(cfg.Hidden)), cfg.Vocab, cfg.Hidden),
		FinalGain: tensor.Ones(cfg.Hidden),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Layers = append(m.Layers, NewLayerWeights(rng, cfg))
	}
	return m, nil
}

// Embed converts token IDs to a [len(ids), hidden] tensor with sinusoidal
// position offsets starting at startPos.
func (m *Model) Embed(ids []int, startPos int) *tensor.Tensor {
	h := m.Cfg.Hidden
	out := tensor.New(len(ids), h)
	for i, id := range ids {
		if id < 0 || id >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: token %d outside vocab %d", id, m.Cfg.Vocab))
		}
		row := out.Row(i)
		copy(row, m.Embedding.Row(id))
		pos := float64(startPos + i)
		for j := 0; j < h; j += 2 {
			angle := pos / math.Pow(10000, float64(j)/float64(h))
			row[j] += 0.1 * float32(math.Sin(angle))
			if j+1 < h {
				row[j+1] += 0.1 * float32(math.Cos(angle))
			}
		}
	}
	return out
}

// Logits projects [batch, hidden] states onto the vocabulary.
func (m *Model) Logits(pool *threadpool.Pool, width int, hidden *tensor.Tensor) *tensor.Tensor {
	norm := hidden.Clone()
	tensor.LayerNormRows(norm, m.FinalGain, nil, 1e-5)
	return tensor.MatMulT(pool, width, norm, m.Embedding)
}

// Prefill runs the prompt through every layer, populating cache, and returns
// the last-position hidden state per sequence ([batch, hidden]).
// prompts[i] is sequence i's token IDs; all must share one length.
func (m *Model) Prefill(pool *threadpool.Pool, width int, cache *KVCache, prompts [][]int) (*tensor.Tensor, error) {
	if len(prompts) == 0 {
		return nil, fmt.Errorf("model: empty prompt batch")
	}
	s := len(prompts[0])
	x := make([]*tensor.Tensor, len(prompts))
	for i, p := range prompts {
		if len(p) != s {
			return nil, fmt.Errorf("model: ragged prompt lengths %d and %d", s, len(p))
		}
		x[i] = m.Embed(p, 0)
	}
	var hidden *tensor.Tensor
	for l := 0; l < m.Cfg.Layers; l++ {
		out := Attention(pool, width, m.Cfg, m.Layers[l], cache, l, x)
		MLPSeq(pool, width, m.Cfg, m.Layers[l], x)
		hidden = out.Hidden
	}
	// Hidden from the attention call excludes the final MLP; rebuild the
	// last-row view after the MLP pass.
	for i, xs := range x {
		copy(hidden.Row(i), xs.Row(s-1))
	}
	return hidden, nil
}

// DecodeStep feeds one token per sequence through every layer, extending
// cache, and returns the new hidden state ([batch, hidden]).
// pos is the absolute position of these tokens (prompt length + tokens
// generated so far).
func (m *Model) DecodeStep(pool *threadpool.Pool, width int, cache *KVCache, tokens []int, pos int) *tensor.Tensor {
	x := make([]*tensor.Tensor, len(tokens))
	for i, tok := range tokens {
		x[i] = m.Embed([]int{tok}, pos)
	}
	var hidden *tensor.Tensor
	for l := 0; l < m.Cfg.Layers; l++ {
		out := Attention(pool, width, m.Cfg, m.Layers[l], cache, l, x)
		MLPSeq(pool, width, m.Cfg, m.Layers[l], x)
		hidden = out.Hidden
	}
	for i, xs := range x {
		copy(hidden.Row(i), xs.Row(0))
	}
	return hidden
}

// Generate runs greedy decoding end to end: prefill then genLen decode
// steps. It returns the generated token IDs per sequence. This is the
// reference (non-offloaded) path the offloading runtime's output is checked
// against.
func (m *Model) Generate(pool *threadpool.Pool, width int, prompts [][]int, genLen int) ([][]int, error) {
	cache := NewKVCache(m.Cfg.Layers, len(prompts), m.Cfg.Hidden)
	hidden, err := m.Prefill(pool, width, cache, prompts)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(prompts))
	pos := len(prompts[0])
	current := tensor.ArgmaxRows(m.Logits(pool, width, hidden))
	for i := range out {
		out[i] = append(out[i], current[i])
	}
	for step := 1; step < genLen; step++ {
		hidden = m.DecodeStep(pool, width, cache, current, pos)
		pos++
		current = tensor.ArgmaxRows(m.Logits(pool, width, hidden))
		for i := range out {
			out[i] = append(out[i], current[i])
		}
	}
	return out, nil
}
