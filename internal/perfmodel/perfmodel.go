// Package perfmodel implements LM-Offload's analytical performance model
// (§3.2 of the paper): the end-to-end latency decomposition of Eq. 1, the
// six-task decode model of Eq. 2, the quantization overhead models of
// Eqs. 3–7 and 12–24, the attention-offloading variants of Eqs. 8–9, the
// per-token I/O-traffic accounting of Table 1, and the three decision
// procedures listed at the end of §3.2.
//
// The model is purely analytical — no simulation — so the policy search can
// evaluate thousands of candidate strategies per second. The discrete-event
// simulator in internal/sim refines these estimates with resource contention;
// tests cross-check the two.
package perfmodel

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

// Strategy is one point in LM-Offload's decision space: where tensors live,
// where attention runs, and what gets quantized.
type Strategy struct {
	// AttnOnCPU offloads decode-phase attention computation (and thus the
	// whole KV cache) to the CPU, FlexGen's §2.2 step (2.1).
	AttnOnCPU bool
	// WeightsGPUPct (wg) is the fraction of weights resident in GPU memory.
	// The paper's wc = 1 - wg.
	WeightsGPUPct float64
	// CacheGPUPct (cg) is the fraction of KV cache resident in GPU memory.
	CacheGPUPct float64
	// ActGPUPct (hg) is the fraction of hidden activations on GPU.
	ActGPUPct float64
	// QuantWeights compresses CPU-resident weights with WeightBits codes.
	QuantWeights bool
	WeightBits   int
	// QuantKV compresses CPU-resident KV cache with KVBits codes.
	QuantKV bool
	KVBits  int
	// CompressGPUWeights stores the GPU-resident weight fraction in its
	// quantized form as well, trading per-use dequantization for capacity —
	// how LM-Offload fits wg=75% of OPT-30B into 40 GB (§5.2). Requires
	// QuantWeights.
	CompressGPUWeights bool
	// GroupSize is the quantization group size (elements per min/max pair).
	GroupSize int
}

// WC returns the paper's wc, the fraction of weights on CPU.
func (s Strategy) WC() float64 { return 1 - s.WeightsGPUPct }

// Validate reports out-of-range strategies.
func (s Strategy) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"wg", s.WeightsGPUPct}, {"cg", s.CacheGPUPct}, {"hg", s.ActGPUPct}} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("perfmodel: %s = %g outside [0, 1]", f.name, f.v)
		}
	}
	if s.QuantWeights && (s.WeightBits < 1 || s.WeightBits > 8) {
		return fmt.Errorf("perfmodel: weight bits %d outside [1, 8]", s.WeightBits)
	}
	if s.QuantKV && (s.KVBits < 1 || s.KVBits > 8) {
		return fmt.Errorf("perfmodel: KV bits %d outside [1, 8]", s.KVBits)
	}
	if (s.QuantWeights || s.QuantKV) && s.GroupSize <= 0 {
		return fmt.Errorf("perfmodel: group size %d must be positive", s.GroupSize)
	}
	if s.AttnOnCPU && s.CacheGPUPct > 0 {
		return fmt.Errorf("perfmodel: attention on CPU requires the KV cache on CPU (cg = %g)", s.CacheGPUPct)
	}
	if s.CompressGPUWeights && !s.QuantWeights {
		return fmt.Errorf("perfmodel: CompressGPUWeights requires QuantWeights")
	}
	return nil
}

// String renders the strategy in the paper's Table 3 vocabulary.
func (s Strategy) String() string {
	attn := "gpu-attn"
	if s.AttnOnCPU {
		attn = "cpu-attn"
	}
	q := "no-quant"
	switch {
	case s.QuantWeights && s.QuantKV:
		q = fmt.Sprintf("w%d+kv%d", s.WeightBits, s.KVBits)
	case s.QuantWeights:
		q = fmt.Sprintf("w%d", s.WeightBits)
	case s.QuantKV:
		q = fmt.Sprintf("kv%d", s.KVBits)
	}
	return fmt.Sprintf("%s wg=%.0f cg=%.0f hg=%.0f %s",
		attn, s.WeightsGPUPct*100, s.CacheGPUPct*100, s.ActGPUPct*100, q)
}

// quantRatio is the transfer-size multiplier of b-bit group quantization
// versus 16-bit storage: the packed codes plus the per-group min and scale
// (two float32 per group of groupSize 2-byte elements).
func quantRatio(bits, groupSize int) float64 {
	r := float64(bits) / 16
	if groupSize > 0 {
		r += 8.0 / (float64(groupSize) * 2)
	}
	return r
}

// weightQuantRatio is the weight transfer-size multiplier from quantization.
func (s Strategy) weightQuantRatio() float64 {
	if !s.QuantWeights {
		return 1
	}
	return quantRatio(s.WeightBits, s.GroupSize)
}

// kvQuantRatio is the KV transfer-size multiplier from quantization.
func (s Strategy) kvQuantRatio() float64 {
	if !s.QuantKV {
		return 1
	}
	return quantRatio(s.KVBits, s.GroupSize)
}

// ExecProfile captures how a concrete runtime executes the schedule: overlap
// quality, kernel efficiency, and threading efficiency. Baselines differ in
// these even when the Strategy is identical — this is where FlexGen's and
// ZeRO-Inference's measured behaviours are encoded.
type ExecProfile struct {
	Name string
	// OverlapBeta parameterizes the partial-overlap composition of the
	// per-layer step: T = max(resource times) + β · (sum of the rest).
	// β = 0 is the ideal Eq. 2 limit (perfect asynchrony), β = 1 full
	// serialization. Per-layer synchronization points (Algorithm 1 line 18)
	// and default-stream kernel serialization keep real runtimes near the
	// high end; LM-Offload's parallelism control lowers it.
	OverlapBeta float64
	// CacheDequantWeights reuses dequantized weights across the GPU batches
	// of a zig-zag block. FlexGen decompresses at use, once per batch;
	// LM-Offload caches the decompressed copy.
	CacheDequantWeights bool
	// QuantKernelScale multiplies the hardware QuantElemRate: 1 for
	// FlexGen's unfused kernel chain, larger for fused implementations
	// (DeepSpeed's 4-bit kernels).
	QuantKernelScale float64
	// LinkEff is the achieved fraction of the interconnect's per-direction
	// bandwidth (pageable vs pinned buffers, transfer granularity).
	LinkEff float64
	// CPUCompute scales cpu_flops for offloaded attention.
	CPUCompute float64
	// CPUCopy scales cpu_mem_bdw for CPU-side quantization post-processing.
	CPUCopy float64
	// StepOverhead is the fixed scheduling cost per (layer, token, GPU
	// batch): kernel launches, per-layer synchronization, small-transfer
	// setup. Negligible against FlexGen's hundreds-of-MB block transfers,
	// but significant for ZeRO-Inference's small per-batch KV gathers.
	StepOverhead float64
}

// Validate reports non-physical profiles.
func (p ExecProfile) Validate() error {
	if p.OverlapBeta < 0 || p.OverlapBeta > 1 {
		return fmt.Errorf("perfmodel: profile %q has overlap beta %g outside [0, 1]", p.Name, p.OverlapBeta)
	}
	if p.QuantKernelScale <= 0 || p.LinkEff <= 0 || p.LinkEff > 1 || p.CPUCompute <= 0 || p.CPUCompute > 1 || p.CPUCopy <= 0 || p.CPUCopy > 1 {
		return fmt.Errorf("perfmodel: profile %q has out-of-range factors: %+v", p.Name, p)
	}
	if p.StepOverhead < 0 {
		return fmt.Errorf("perfmodel: profile %q has negative step overhead", p.Name)
	}
	return nil
}

// FlexGenProfile models FlexGen's runtime: quantization in the default
// stream (serializing with transfers), per-batch weight decompression,
// unfused kernels, pageable-buffer PCIe efficiency, and PyTorch default
// threading (56 intra-op / 112 inter-op — the §4.1 contention regime).
func FlexGenProfile() ExecProfile {
	return ExecProfile{
		Name:                "flexgen",
		OverlapBeta:         0.95,
		CacheDequantWeights: false,
		QuantKernelScale:    1,
		LinkEff:             0.45,
		CPUCompute:          0.40,
		CPUCopy:             0.60,
		StepOverhead:        0.3e-3,
	}
}

// ZeROProfile models DeepSpeed ZeRO-Inference: fused dequantization kernels
// (fast), pinned contiguous transfer buffers (high link efficiency), but the
// same default threading and serial kernel scheduling.
func ZeROProfile() ExecProfile {
	return ExecProfile{
		Name:                "zero-inference",
		OverlapBeta:         0.95,
		CacheDequantWeights: false,
		QuantKernelScale:    20,
		LinkEff:             0.80,
		CPUCompute:          0.40,
		CPUCopy:             0.60,
		StepOverhead:        2.5e-3,
	}
}

// LMOffloadProfile models LM-Offload with parallelism control: full overlap,
// cached weight dequantization, and tuned threading (12 inter-op, 16
// intra-op — §5.4).
func LMOffloadProfile() ExecProfile {
	return ExecProfile{
		Name:                "lm-offload",
		OverlapBeta:         0.85,
		CacheDequantWeights: true,
		QuantKernelScale:    1,
		LinkEff:             0.55,
		CPUCompute:          0.60,
		CPUCopy:             0.88,
		StepOverhead:        0.2e-3,
	}
}

// LMOffloadNoParallelismControl is the §5.3 ablation: the quantization-aware
// policy runs under FlexGen's default threading and scheduling.
func LMOffloadNoParallelismControl() ExecProfile {
	p := FlexGenProfile()
	p.Name = "lm-offload-no-pc"
	p.CacheDequantWeights = true
	return p
}

// Estimator evaluates strategies for one (platform, model, workload) triple
// under one execution profile.
type Estimator struct {
	Plat  *hw.Platform
	Mod   model.Config
	Work  workload.Job
	Strat Strategy
	Exec  ExecProfile
}

// New constructs an estimator, validating all inputs.
func New(p *hw.Platform, m model.Config, w workload.Job, s Strategy, exec ExecProfile) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Plat: p, Mod: m, Work: w, Strat: s, Exec: exec}, nil
}

// With returns a copy of e with the strategy replaced, for cheap what-if
// evaluation during policy search.
func (e *Estimator) With(s Strategy) *Estimator {
	cp := *e
	cp.Strat = s
	return &cp
}

// TaskTimes is the per-layer, per-token cost of the six decode tasks of
// Algorithm 1, in seconds, including (de)quantization surcharges
// (Eqs. 4, 6, 7).
type TaskTimes struct {
	LoadWeight      float64
	LoadCache       float64
	LoadActivation  float64
	StoreCache      float64
	StoreActivation float64
	Compute         float64
}

// Max returns the Eq. 2 composition: with fully asynchronous task execution,
// the step time is the slowest task.
func (t TaskTimes) Max() float64 {
	m := t.LoadWeight
	for _, v := range []float64{t.LoadCache, t.LoadActivation, t.StoreCache, t.StoreActivation, t.Compute} {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the fully serialized composition (asynchronous execution
// disabled).
func (t TaskTimes) Sum() float64 {
	return t.LoadWeight + t.LoadCache + t.LoadActivation + t.StoreCache + t.StoreActivation + t.Compute
}

// linkBW returns the effective per-direction interconnect bandwidth.
func (e *Estimator) linkBW() float64 {
	return e.Plat.Link.BandwidthPerDir * e.Exec.LinkEff
}

// gpu returns the platform's first GPU (the single-GPU model; the pipeline
// package composes estimators per stage for multi-GPU).
func (e *Estimator) gpu() hw.GPU { return e.Plat.GPU0() }

// --- tensor sizes (bytes, per layer, whole block) -------------------------

// layerWeightBytes is one layer's weights in deployment precision.
func (e *Estimator) layerWeightBytes() float64 {
	return float64(e.Mod.LayerWeightBytes())
}

// oldKVBytesAvg is Eq. 18's per-token average: 2·(s+n/2)·h1·bls elements.
func (e *Estimator) oldKVBytesAvg() float64 {
	s, n := float64(e.Work.PromptLen), float64(e.Work.GenLen)
	return 2 * (s + n/2) * float64(e.Mod.Hidden) * float64(e.Work.BlockSize()) * float64(e.Mod.BytesPerElem)
}

// oldKVBytesAt is the instantaneous old-cache size before generating token
// t (0-based): prompt plus t generated tokens.
func (e *Estimator) oldKVBytesAt(t int) float64 {
	s := float64(e.Work.PromptLen + t)
	return 2 * s * float64(e.Mod.Hidden) * float64(e.Work.BlockSize()) * float64(e.Mod.BytesPerElem)
}

// newKVBytes is Eq. 19 per token: 2·h1·bls elements.
func (e *Estimator) newKVBytes() float64 {
	return 2 * float64(e.Mod.Hidden) * float64(e.Work.BlockSize()) * float64(e.Mod.BytesPerElem)
}

// prefillKVBytes is Eq. 17: 2·(s+1)·h1·bls elements.
func (e *Estimator) prefillKVBytes() float64 {
	return 2 * float64(e.Work.PromptLen+1) * float64(e.Mod.Hidden) * float64(e.Work.BlockSize()) * float64(e.Mod.BytesPerElem)
}

// activationBytes is the per-layer hidden state for the block.
func (e *Estimator) activationBytes() float64 {
	return float64(e.Mod.ActivationBytes(e.Work))
}
