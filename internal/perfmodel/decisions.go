package perfmodel

// The three decision procedures of §3.2 ("How to use the models"). Each
// compares the modeled cost of a strategy with and without one quantization
// or offloading choice, holding everything else fixed.

// WeightQuantizationBeneficial decides whether quantizing the CPU-resident
// weights pays off: it compares load_weight without quantization against
// Eq. 4's quantized load (the Eq. 3 one-time cost is amortized over the
// whole generation and charged per token here).
func (e *Estimator) WeightQuantizationBeneficial(bits int) bool {
	plain := *e
	plain.Strat.QuantWeights = false
	quant := *e
	quant.Strat.QuantWeights = true
	quant.Strat.WeightBits = bits
	if quant.Strat.GroupSize <= 0 {
		quant.Strat.GroupSize = 64
	}

	tokens := float64(e.Work.GenLen)
	plainCost := plain.DecodeTasks().LoadWeight
	quantCost := quant.DecodeTasks().LoadWeight +
		quant.QuanPfWgt().Total()/tokens // amortized Eq. 3 surcharge
	return quantCost < plainCost
}

// KVQuantizationBeneficial decides whether quantizing the KV cache pays off:
// it compares (load_cache + store_cache) against Eq. 6 + Eq. 7. With
// attention offloaded the KV cache never moves, so quantization can only
// cost (§3.1 Observation 1) and the answer is always false.
func (e *Estimator) KVQuantizationBeneficial(bits int) bool {
	if e.Strat.AttnOnCPU {
		return false
	}
	plain := *e
	plain.Strat.QuantKV = false
	quant := *e
	quant.Strat.QuantKV = true
	quant.Strat.KVBits = bits
	if quant.Strat.GroupSize <= 0 {
		quant.Strat.GroupSize = 64
	}

	pt := plain.DecodeTasks()
	qt := quant.DecodeTasks()
	tokens := float64(e.Work.GenLen)
	plainCost := pt.LoadCache + pt.StoreCache
	quantCost := qt.LoadCache + qt.StoreCache + quant.QuanPfCache().Total()/tokens
	return quantCost < plainCost
}

// AttentionOffloadComparison evaluates the same model/workload with
// attention on CPU versus on GPU (each with its own best wg computed by the
// caller) and returns the two throughputs. The paper's third decision
// procedure compares Eqs. 8–9 with Eqs. 3–7; here both arms are evaluated
// with the full model for symmetry.
func AttentionOffloadComparison(withOffload, withoutOffload *Estimator) (offloadTput, noOffloadTput float64) {
	return withOffload.Throughput(), withoutOffload.Throughput()
}
