package perfmodel

// Quantization overhead models (Eqs. 12–24). All returned times are in
// seconds. Phase structure follows the paper exactly:
//
//   - the min/max scan costs elements / frequency (Eqs. 13, 21);
//   - normalization (Eq. 10 / Eq. 11) runs through the unfused kernel chain
//     at the device's QuantElemRate (the paper's cpu_flops/gpu_flops with the
//     3-FLOPs-per-element numerator folded into the calibrated rate), scaled
//     by the runtime's QuantKernelScale (Eqs. 14, 22);
//   - post-processing is a memory copy costed in bytes / bandwidth
//     (Eqs. 15, 23);
//   - dequantization skips the min/max scan (Eqs. 16, 24).

// QuantCost decomposes one (de)quantization pass.
type QuantCost struct {
	MinMax      float64
	Normalize   float64
	PostProcess float64
}

// Total returns the summed phase costs.
func (q QuantCost) Total() float64 { return q.MinMax + q.Normalize + q.PostProcess }

// gpuQuantRate is the effective element rate of (de)quantization kernels on
// the GPU under this runtime.
func (e *Estimator) gpuQuantRate() float64 {
	return e.gpu().QuantElemRate * e.Exec.QuantKernelScale
}

// cpuQuantRate is the CPU-side equivalent.
func (e *Estimator) cpuQuantRate() float64 {
	return e.Plat.CPU.QuantElemRate * e.Exec.QuantKernelScale
}

// weightElemsOnCPU returns num_weights · wc for one layer (Eq. 12's operand).
func (e *Estimator) weightElemsOnCPU() float64 {
	return float64(e.Mod.WeightsPerLayer()) * e.Strat.WC()
}

// weightElemsCompressed returns the per-layer weight elements that must be
// dequantized before use each step: the transferred CPU-resident fraction
// (Eq. 16) plus, when the GPU-resident fraction is stored compressed, that
// fraction as well.
func (e *Estimator) weightElemsCompressed() float64 {
	frac := e.Strat.WC()
	if e.Strat.CompressGPUWeights {
		frac += e.Strat.WeightsGPUPct
	}
	return float64(e.Mod.WeightsPerLayer()) * frac
}

// QuanPfWgt models Eq. 12: the one-time CPU-side quantization of one layer's
// CPU-resident weights, folded into T_init by Eq. 3.
func (e *Estimator) QuanPfWgt() QuantCost {
	if !e.Strat.QuantWeights {
		return QuantCost{}
	}
	elems := e.weightElemsOnCPU()
	bytes := elems * float64(e.Mod.BytesPerElem)
	cpu := e.Plat.CPU
	return QuantCost{
		MinMax:      elems / cpu.Freq,                            // Eq. 13
		Normalize:   elems / e.cpuQuantRate(),                    // Eq. 14
		PostProcess: bytes / (cpu.MemBandwidth * e.Exec.CPUCopy), // Eq. 15
	}
}

// DequanWgt models Eq. 16 for one decompression pass: the GPU-side
// dequantization of one layer's offloaded weights. Without dequant caching
// the pass repeats once per GPU batch in the block (FlexGen decompresses at
// use); DequanWgtPerToken applies that multiplier.
func (e *Estimator) DequanWgt() QuantCost {
	if !e.Strat.QuantWeights {
		return QuantCost{}
	}
	elems := e.weightElemsCompressed()
	bytes := elems * float64(e.Mod.BytesPerElem)
	g := e.gpu()
	return QuantCost{
		Normalize:   elems / e.gpuQuantRate(),
		PostProcess: bytes / g.MemBandwidth,
	}
}

// DequanWgtPerToken is the weight dequantization time charged to one decode
// step of one layer, accounting for per-batch decompression when the runtime
// does not cache the decompressed weights.
func (e *Estimator) DequanWgtPerToken() float64 {
	c := e.DequanWgt().Total()
	if c == 0 || e.Exec.CacheDequantWeights {
		return c
	}
	return c * float64(e.Work.NumBatches)
}

// QuanPfCache models Eq. 20: quantizing the prefill-populated KV cache of
// one layer on the GPU, added to T_pf by Eq. 5.
func (e *Estimator) QuanPfCache() QuantCost {
	if !e.Strat.QuantKV || e.Strat.AttnOnCPU {
		// With attention offloading the KV cache never crosses the link, so
		// it is never quantized (§3.1 Observation 1, third reason).
		return QuantCost{}
	}
	bytes := e.prefillKVBytes() * (1 - e.Strat.CacheGPUPct)
	elems := bytes / float64(e.Mod.BytesPerElem)
	g := e.gpu()
	return QuantCost{
		MinMax:      elems / g.Freq,           // Eq. 21
		Normalize:   elems / e.gpuQuantRate(), // Eq. 22
		PostProcess: bytes / g.MemBandwidth,   // Eq. 23
	}
}

// QuanNewCache models the Eq. 7 surcharge: quantizing the freshly generated
// KV rows of one layer before storing them to CPU memory.
func (e *Estimator) QuanNewCache() QuantCost {
	if !e.Strat.QuantKV || e.Strat.AttnOnCPU {
		return QuantCost{}
	}
	bytes := e.newKVBytes() * (1 - e.Strat.CacheGPUPct)
	elems := bytes / float64(e.Mod.BytesPerElem)
	g := e.gpu()
	return QuantCost{
		MinMax:      elems / g.Freq,
		Normalize:   elems / e.gpuQuantRate(),
		PostProcess: bytes / g.MemBandwidth,
	}
}

// DequanOldCache models Eq. 24: dequantizing the uploaded old KV cache of
// one layer (per-token average size, Eq. 18), added to load_cache by Eq. 6.
func (e *Estimator) DequanOldCache() QuantCost {
	if !e.Strat.QuantKV || e.Strat.AttnOnCPU {
		return QuantCost{}
	}
	bytes := e.oldKVBytesAvg() * (1 - e.Strat.CacheGPUPct)
	elems := bytes / float64(e.Mod.BytesPerElem)
	g := e.gpu()
	return QuantCost{
		Normalize:   elems / e.gpuQuantRate(),
		PostProcess: bytes / g.MemBandwidth,
	}
}

// gpuQuantWorkPerLayerToken is the total GPU-side (de)quantization time one
// decode step spends in one layer: weight dequantization (with the per-batch
// multiplier), old-KV dequantization, and new-KV quantization.
func (e *Estimator) gpuQuantWorkPerLayerToken() float64 {
	return e.DequanWgtPerToken() + e.DequanOldCache().Total() + e.QuanNewCache().Total()
}

// QuantBreakdown aggregates the quantization and dequantization time per
// generated token across all layers — the Figure 4 decomposition.
type QuantBreakdown struct {
	// QuantPerToken is time spent compressing per token (new KV cache).
	QuantPerToken float64
	// DequantPerToken is time spent decompressing per token (weights and old
	// KV cache).
	DequantPerToken float64
	// OneTimeQuant is the amortizable cost: weight quantization at load time
	// plus prefill KV quantization.
	OneTimeQuant float64
	// OtherPerToken is the remaining per-token step time (transfers,
	// attention, MLP).
	OtherPerToken float64
}

// Breakdown computes the per-token time decomposition across all l layers.
func (e *Estimator) Breakdown() QuantBreakdown {
	l := float64(e.Mod.Layers)
	b := QuantBreakdown{
		QuantPerToken:   e.QuanNewCache().Total() * l,
		DequantPerToken: (e.DequanWgtPerToken() + e.DequanOldCache().Total()) * l,
		OneTimeQuant:    e.QuanPfWgt().Total()*l + e.QuanPfCache().Total()*l,
	}
	step := e.TGen() * l
	other := step - b.QuantPerToken - b.DequantPerToken
	if other < 0 {
		other = 0
	}
	b.OtherPerToken = other
	return b
}
