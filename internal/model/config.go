// Package model defines the transformer models LM-Offload serves: the
// large OPT and LLaMA configurations used by the paper's evaluation (as
// metadata driving the analytical models and the simulator) and tiny
// configurations with real weights that the functional runtime executes.
package model

import (
	"fmt"

	"repro/internal/workload"
)

// Config describes a decoder-only transformer's geometry. The analytical
// performance model needs only these fields; the functional runtime
// instantiates real weights from them.
type Config struct {
	Name string
	// Layers is l, the transformer layer count.
	Layers int
	// Hidden is h1, the model (embedding) dimension.
	Hidden int
	// FFN is h2, the hidden size of the MLP's first linear layer.
	FFN int
	// Heads is the attention head count; Hidden must divide evenly by it.
	Heads int
	// Vocab is the vocabulary size.
	Vocab int
	// BytesPerElem is the storage width of one weight/KV element in the
	// deployment precision (2 for FP16, the paper's baseline precision).
	BytesPerElem int
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.FFN <= 0 || c.Heads <= 0 || c.Vocab <= 0:
		return fmt.Errorf("model: %s has non-positive dimensions", c.Name)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: %s hidden %d not divisible by %d heads", c.Name, c.Hidden, c.Heads)
	case c.BytesPerElem <= 0:
		return fmt.Errorf("model: %s has non-positive element width", c.Name)
	}
	return nil
}

// HeadDim returns d_k, the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// WeightsPerLayer returns the paper's num_weights for one transformer layer:
// 4·h1² for the Q, K, V and output projections plus 2·h1·h2 for the two MLP
// linears.
func (c Config) WeightsPerLayer() int64 {
	h1, h2 := int64(c.Hidden), int64(c.FFN)
	return 4*h1*h1 + 2*h1*h2
}

// TotalWeights returns the parameter count of all transformer layers plus the
// token embedding / unembedding matrix.
func (c Config) TotalWeights() int64 {
	return int64(c.Layers)*c.WeightsPerLayer() + int64(c.Vocab)*int64(c.Hidden)
}

// WeightBytes returns the weight footprint in the deployment precision.
func (c Config) WeightBytes() int64 { return c.TotalWeights() * int64(c.BytesPerElem) }

// LayerWeightBytes returns one layer's weight footprint.
func (c Config) LayerWeightBytes() int64 { return c.WeightsPerLayer() * int64(c.BytesPerElem) }

// KVElemsPerTokenLayer returns the KV-cache elements added per token per
// layer per sequence: 2·h1 (one K row and one V row).
func (c Config) KVElemsPerTokenLayer() int64 { return 2 * int64(c.Hidden) }

// KVCacheBytes returns the peak KV-cache footprint for a workload: all
// layers, the full block, prompt plus all generated tokens.
func (c Config) KVCacheBytes(w workload.Job) int64 {
	seq := int64(w.PromptLen + w.GenLen)
	return int64(c.Layers) * c.KVElemsPerTokenLayer() * seq * int64(w.BlockSize()) * int64(c.BytesPerElem)
}

// KVCacheBytesAtToken returns the per-layer KV-cache footprint when the
// sequence holds the prompt plus `generated` tokens (Eq. 18's instantaneous
// size before averaging).
func (c Config) KVCacheBytesAtToken(w workload.Job, generated int) int64 {
	seq := int64(w.PromptLen + generated)
	return c.KVElemsPerTokenLayer() * seq * int64(w.BlockSize()) * int64(c.BytesPerElem)
}

// ActivationBytes returns the per-layer activation (hidden state) size for a
// decode step: one h1 vector per sequence in the block.
func (c Config) ActivationBytes(w workload.Job) int64 {
	return int64(c.Hidden) * int64(w.BlockSize()) * int64(c.BytesPerElem)
}

// AttnFlopsDecode returns the FLOPs of one decode-step attention for the
// whole block at sequence length seq: Q·Kᵀ and scores·V dominate at
// 2 · 2 · seq · h1 per sequence, plus the four h1×h1 projections.
func (c Config) AttnFlopsDecode(w workload.Job, seq int) float64 {
	perSeq := 4*float64(seq)*float64(c.Hidden) + 8*float64(c.Hidden)*float64(c.Hidden)
	return perSeq * float64(w.BlockSize())
}

// MLPFlopsDecode returns the FLOPs of one decode-step MLP for the block:
// two h1×h2 GEMVs per sequence.
func (c Config) MLPFlopsDecode(w workload.Job) float64 {
	return 4 * float64(c.Hidden) * float64(c.FFN) * float64(w.BlockSize())
}

// Built-in configurations. Layer counts and dimensions follow the published
// model cards; vocabularies are 50272 for OPT and 32000 for LLaMA.
var (
	OPT6B7 = Config{Name: "OPT-6.7B", Layers: 32, Hidden: 4096, FFN: 16384, Heads: 32, Vocab: 50272, BytesPerElem: 2}
	OPT13B = Config{Name: "OPT-13B", Layers: 40, Hidden: 5120, FFN: 20480, Heads: 40, Vocab: 50272, BytesPerElem: 2}
	OPT30B = Config{Name: "OPT-30B", Layers: 48, Hidden: 7168, FFN: 28672, Heads: 56, Vocab: 50272, BytesPerElem: 2}
	OPT66B = Config{Name: "OPT-66B", Layers: 64, Hidden: 9216, FFN: 36864, Heads: 72, Vocab: 50272, BytesPerElem: 2}
	// OPT175B is beyond the paper's evaluation; the scale-sweep ablation
	// uses it to probe where even offloaded inference runs out of host
	// memory.
	OPT175B = Config{Name: "OPT-175B", Layers: 96, Hidden: 12288, FFN: 49152, Heads: 96, Vocab: 50272, BytesPerElem: 2}

	LLaMA7B  = Config{Name: "LLaMA-7B", Layers: 32, Hidden: 4096, FFN: 11008, Heads: 32, Vocab: 32000, BytesPerElem: 2}
	LLaMA13B = Config{Name: "LLaMA-13B", Layers: 40, Hidden: 5120, FFN: 13824, Heads: 40, Vocab: 32000, BytesPerElem: 2}
	LLaMA30B = Config{Name: "LLaMA-30B", Layers: 60, Hidden: 6656, FFN: 17920, Heads: 52, Vocab: 32000, BytesPerElem: 2}
	LLaMA65B = Config{Name: "LLaMA-65B", Layers: 80, Hidden: 8192, FFN: 22016, Heads: 64, Vocab: 32000, BytesPerElem: 2}
)

// Evaluated returns the four single-GPU evaluation models of Table 3.
func Evaluated() []Config { return []Config{OPT30B, OPT66B, LLaMA30B, LLaMA65B} }

// ByName looks up a built-in configuration.
func ByName(name string) (Config, error) {
	for _, c := range []Config{OPT6B7, OPT13B, OPT30B, OPT66B, OPT175B, LLaMA7B, LLaMA13B, LLaMA30B, LLaMA65B} {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown configuration %q", name)
}

// Tiny returns a small configuration the functional runtime can execute in
// milliseconds while exercising every code path (multi-head attention, KV
// cache, quantization, offloading).
func Tiny() Config {
	return Config{Name: "Tiny", Layers: 4, Hidden: 64, FFN: 128, Heads: 4, Vocab: 128, BytesPerElem: 2}
}

// Small returns a mid-size functional configuration for throughput-shaped
// runs of the real engine.
func Small() Config {
	return Config{Name: "Small", Layers: 8, Hidden: 128, FFN: 512, Heads: 8, Vocab: 512, BytesPerElem: 2}
}
