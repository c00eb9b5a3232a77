package perfmodel

// End-to-end latency model (Eqs. 1–9) with the three overlap compositions.

// StepParts splits one layer's decode-step work by the resource that
// performs it, which is what the overlap composition operates on.
type StepParts struct {
	// LinkUp is CPU->GPU transfer time (weights, old KV, activations).
	LinkUp float64
	// LinkDown is GPU->CPU transfer time (new KV, activations).
	LinkDown float64
	// GPUCompute is attention (when on GPU) plus the MLP.
	GPUCompute float64
	// GPUQuant is the (de)quantization kernel time on the GPU.
	GPUQuant float64
	// CPUCompute is offloaded attention time (zero when attention is on
	// GPU).
	CPUCompute float64
}

// Parts computes the per-layer, per-token resource decomposition for an
// average decode step.
func (e *Estimator) Parts() StepParts {
	bw := e.linkBW()
	var p StepParts

	// Uploads: CPU-resident weight fraction (compressed if quantized), old
	// KV cache (unless attention is offloaded), and the activation.
	p.LinkUp = e.layerWeightBytes() * e.Strat.WC() * e.Strat.weightQuantRatio() / bw
	act := e.activationBytes()
	if e.Strat.AttnOnCPU {
		p.LinkUp += act / bw
		p.LinkDown += act / bw
	} else {
		cpuFrac := 1 - e.Strat.CacheGPUPct
		p.LinkUp += e.oldKVBytesAvg() * cpuFrac * e.Strat.kvQuantRatio() / bw
		p.LinkDown += e.newKVBytes() * cpuFrac * e.Strat.kvQuantRatio() / bw
		actFrac := 1 - e.Strat.ActGPUPct
		p.LinkUp += act * actFrac / bw
		p.LinkDown += act * actFrac / bw
	}

	// Compute: MLP always on GPU; attention on the strategy's device.
	seqAvg := e.Work.PromptLen + e.Work.GenLen/2
	attnFlops := e.Mod.AttnFlopsDecode(e.Work, seqAvg)
	mlpFlops := e.Mod.MLPFlopsDecode(e.Work)
	g := e.gpu()
	p.GPUCompute = mlpFlops / g.Flops
	if e.Strat.AttnOnCPU {
		p.CPUCompute = attnFlops / (e.Plat.CPU.Flops * e.Exec.CPUCompute)
	} else {
		p.GPUCompute += attnFlops / g.Flops
	}

	p.GPUQuant = e.gpuQuantWorkPerLayerToken()
	return p
}

// DecodeTasks returns the paper's six-task view (Eq. 2 operands) with the
// quantization surcharges of Eqs. 4, 6 and 7 attached to the task that pays
// them.
func (e *Estimator) DecodeTasks() TaskTimes {
	bw := e.linkBW()
	var t TaskTimes

	t.LoadWeight = e.layerWeightBytes()*e.Strat.WC()*e.Strat.weightQuantRatio()/bw + e.DequanWgtPerToken()

	if !e.Strat.AttnOnCPU {
		cpuFrac := 1 - e.Strat.CacheGPUPct
		t.LoadCache = e.oldKVBytesAvg()*cpuFrac*e.Strat.kvQuantRatio()/bw + e.DequanOldCache().Total()
		t.StoreCache = e.newKVBytes()*cpuFrac*e.Strat.kvQuantRatio()/bw + e.QuanNewCache().Total()
	}

	act := e.activationBytes()
	if e.Strat.AttnOnCPU {
		t.LoadActivation = act / bw
		t.StoreActivation = act / bw
	} else {
		actFrac := 1 - e.Strat.ActGPUPct
		t.LoadActivation = act * actFrac / bw
		t.StoreActivation = act * actFrac / bw
	}

	p := e.Parts()
	t.Compute = p.GPUCompute + p.CPUCompute
	return t
}

// TGen composes the per-layer decode step time with the profile's
// partial-overlap model: the busiest resource bounds the step, and a β
// fraction of the remaining resources' work fails to hide behind it
// (per-layer synchronization, default-stream kernel serialization).
// β = 0 and StepOverhead = 0 recover the paper's ideal Eq. 2.
//
// TGen vs TGenPaper: TGen is the calibrated estimate and is what every
// consumer that acts on a prediction uses — Latency/GenerationLatency/
// Throughput here, the quantization-benefit decisions (decisions.go,
// quantcost.go), the pipeline stage planner (internal/pipeline), the
// latency curve (curve.go), the policy-tuning experiments (figure8), and
// the lmo-sim CLI's analytic column. TGenPaper is the uncorrected Eq. 2
// maximum, kept only for reporting how optimistic the paper's ideal-overlap
// assumption is (the validation experiment's "paper" column and the
// sim/conformance suites). TGen ≥ TGenPaper for any valid profile: β ≥ 0
// adds back unhidden work and StepOverhead ≥ 0 adds scheduling cost, while
// the resource-aggregated max it starts from is itself at least the
// per-task max (each Eq. 2 task's time is contained in one resource's
// total). latency_divergence_test.go pins both properties.
func (e *Estimator) TGen() float64 {
	p := e.Parts()
	gpu := p.GPUCompute + p.GPUQuant
	m := max4(p.LinkUp, p.LinkDown, p.CPUCompute, gpu)
	sum := p.LinkUp + p.LinkDown + p.CPUCompute + gpu
	return m + e.Exec.OverlapBeta*(sum-m) + e.stepOverhead()
}

// stepOverhead is the fixed per-layer-step scheduling cost, paid once per
// GPU batch in the block (Algorithm 1's k loop).
func (e *Estimator) stepOverhead() float64 {
	return e.Exec.StepOverhead * float64(e.Work.NumBatches)
}

// TGenSerial is the fully serialized step time (asynchronous execution
// disabled), the configuration §5.4 measures task times under.
func (e *Estimator) TGenSerial() float64 {
	p := e.Parts()
	return p.LinkUp + p.LinkDown + p.CPUCompute + p.GPUCompute + p.GPUQuant + e.stepOverhead()
}

func max4(a, b, c, d float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}

// TInit models Eq. 3: loading all weights from disk into host memory plus
// the one-time weight quantization (Eq. 12 summed over layers).
func (e *Estimator) TInit() float64 {
	load := float64(e.Mod.WeightBytes()) / e.Plat.DiskBandwidth
	return load + e.QuanPfWgt().Total()*float64(e.Mod.Layers)
}

// TPrefill is the per-layer prefill latency: processing the whole prompt for
// the block on the GPU, overlapping weight uploads and the KV-cache offload,
// plus the Eq. 5 quantization surcharge.
func (e *Estimator) TPrefill() float64 {
	g := e.gpu()
	s := float64(e.Work.PromptLen)
	bls := float64(e.Work.BlockSize())
	h1, h2 := float64(e.Mod.Hidden), float64(e.Mod.FFN)
	attnFlops := (4*s*s*h1 + 8*s*h1*h1) * bls
	mlpFlops := 4 * s * h1 * h2 * bls
	compute := (attnFlops + mlpFlops) / g.Flops

	load := e.layerWeightBytes() * e.Strat.WC() * e.Strat.weightQuantRatio() / e.linkBW()

	var kvStore float64
	if e.Strat.AttnOnCPU {
		kvStore = e.prefillKVBytes() / e.linkBW()
	} else {
		kvStore = e.prefillKVBytes() * (1 - e.Strat.CacheGPUPct) * e.Strat.kvQuantRatio() / e.linkBW()
	}

	t := compute
	if load > t {
		t = load
	}
	if kvStore > t {
		t = kvStore
	}
	return t + e.QuanPfCache().Total()
}

// Latency models Eq. 1: T = T_init + T_pf·l + T_gen·(n−1)·l.
func (e *Estimator) Latency() float64 {
	l := float64(e.Mod.Layers)
	n := float64(e.Work.GenLen)
	return e.TInit() + e.TPrefill()*l + e.TGen()*(n-1)*l
}

// GenerationLatency is Eq. 1 without T_init, the steady-state figure used
// for throughput comparisons (the paper measures offline inference after
// weights are resident).
func (e *Estimator) GenerationLatency() float64 {
	l := float64(e.Mod.Layers)
	n := float64(e.Work.GenLen)
	return e.TPrefill()*l + e.TGen()*(n-1)*l
}

// Throughput returns the paper's metric: generated tokens per second for the
// block, bls·n / T (§3.2 minimizes T/bls).
func (e *Estimator) Throughput() float64 {
	return float64(e.Work.TotalTokens()) / e.GenerationLatency()
}

// MemoryUse estimates the resident footprint in bytes.
type MemoryUse struct {
	GPU int64
	CPU int64
}

// Memory returns the steady-state placement footprint: weights, peak KV
// cache, and activations split by the strategy's percentages, plus GPU
// working buffers. Quantized CPU-resident tensors occupy their compressed
// size.
func (e *Estimator) Memory() MemoryUse {
	wBytes := float64(e.Mod.WeightBytes())
	kvBytes := float64(e.Mod.KVCacheBytes(e.Work))
	actBytes := e.activationBytes() * 2 // double-buffered per layer

	// GPU-resident weights stay compressed only when the strategy says so
	// (that is how LM-Offload fits more weights on the GPU — §5.2).
	gpuWeightRatio := 1.0
	if e.Strat.CompressGPUWeights {
		gpuWeightRatio = e.Strat.weightQuantRatio()
	}
	gpu := wBytes*e.Strat.WeightsGPUPct*gpuWeightRatio + kvBytes*e.Strat.CacheGPUPct + actBytes*e.Strat.ActGPUPct
	// Working buffers: double-buffered streamed layer weights, plus the
	// decode working set when attention runs on the GPU.
	gpu += e.layerWeightBytes() * 2
	if !e.Strat.AttnOnCPU {
		gpu += e.oldKVBytesAt(e.Work.GenLen) * 2
	}
	cpu := wBytes*e.Strat.WC()*e.Strat.weightQuantRatio() + kvBytes*(1-e.Strat.CacheGPUPct)*e.Strat.kvQuantRatio() + actBytes*(1-e.Strat.ActGPUPct)
	return MemoryUse{GPU: int64(gpu), CPU: int64(cpu)}
}

// TotalMemory returns the Table 3 "mem" column: the full deployment
// footprint across devices.
func (e *Estimator) TotalMemory() int64 {
	m := e.Memory()
	return m.GPU + m.CPU
}

// Fits reports whether the strategy respects both capacity limits.
func (e *Estimator) Fits() bool {
	m := e.Memory()
	return m.GPU <= e.gpu().MemBytes && m.CPU <= e.Plat.CPU.MemBytes
}

// PrefillParts exposes the prefill phase's per-layer components for the
// discrete-event simulator: the GPU compute over the whole prompt and the
// KV-cache offload volume's link time. (The weight upload component is
// WeightUpTime, shared with the decode path.)
func (e *Estimator) PrefillParts() (compute, kvDown float64) {
	g := e.gpu()
	s := float64(e.Work.PromptLen)
	bls := float64(e.Work.BlockSize())
	h1, h2 := float64(e.Mod.Hidden), float64(e.Mod.FFN)
	attnFlops := (4*s*s*h1 + 8*s*h1*h1) * bls
	mlpFlops := 4 * s * h1 * h2 * bls
	compute = (attnFlops+mlpFlops)/g.Flops + e.QuanPfCache().Total()

	if e.Strat.AttnOnCPU {
		kvDown = e.prefillKVBytes() / e.linkBW()
	} else {
		kvDown = e.prefillKVBytes() * (1 - e.Strat.CacheGPUPct) * e.Strat.kvQuantRatio() / e.linkBW()
	}
	return compute, kvDown
}

// TGenPaper is the literal Eq. 2 composition — the unmodified maximum over
// the six task times (DecodeTasks().Max(), exactly) — with no
// partial-overlap correction. Comparing it with TGen (β-calibrated) and the
// discrete-event simulator quantifies how optimistic the paper's idealized
// asynchrony assumption is. Nothing that acts on a prediction calls this:
// its callers are the validation experiment's "paper" column
// (internal/experiments/validation.go) and the sim/conformance test suites;
// every planning and serving path uses TGen. See TGen's doc comment for the
// full divergence contract.
func (e *Estimator) TGenPaper() float64 {
	return e.DecodeTasks().Max()
}
