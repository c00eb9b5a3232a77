package perfmodel

import "time"

// Chunked-prefill terms: the analytical counterparts of the serving layer's
// chunked admission (runtime.Session.PrefillChunk). A prompt of s tokens is
// prefilled in ceil(s/c) chunks of at most c tokens; each chunk streams every
// layer once, computes causal attention of its rows against all earlier
// positions, and offloads its KV rows. The per-chunk attention term is what
// distinguishes the chunked model from a token-proportional split: the chunk
// covering rows [b, b+t) attends over b+t positions, so
//
//	attnFlops(b, t) = (4·t·(b+t)·h1 + 8·t·h1²)·bls
//
// which recovers TPrefill's (4·s²·h1 + 8·s·h1²)·bls exactly at b=0, t=s. The
// MLP and KV-offload terms are row-proportional, so they split linearly.
//
// These closed forms are the reference the chunked conformance suite holds
// the discrete-event simulator to at hard float tolerance: per-kind busy
// totals are schedule-independent (a task's busy time is its service time
// wherever the scheduler places it), so sim and model must agree to rounding
// error, not calibration error.

// ChunkPrefillParts returns the per-layer task durations (seconds) of the
// prefill chunk covering prompt rows [base, base+tokens): the streamed weight
// upload, the GPU compute (attention over base+tokens positions + MLP + the
// chunk's share of the Eq. 20 quantization surcharge), and the chunk's KV
// offload on the downlink.
func (e *Estimator) ChunkPrefillParts(base, tokens int) (loadWeight, compute, kvDown float64) {
	if tokens <= 0 {
		return 0, 0, 0
	}
	g := e.gpu()
	b, t := float64(base), float64(tokens)
	bls := float64(e.Work.BlockSize())
	h1, h2 := float64(e.Mod.Hidden), float64(e.Mod.FFN)
	attnFlops := (4*t*(b+t)*h1 + 8*t*h1*h1) * bls
	mlpFlops := 4 * t * h1 * h2 * bls
	compute = (attnFlops + mlpFlops) / g.Flops
	if s := float64(e.Work.PromptLen); s > 0 {
		// The one-time prefill-KV quantization cost (Eq. 20) splits by rows.
		compute += e.QuanPfCache().Total() * t / s
	}

	loadWeight = e.WeightUpTime()

	// The final chunk also offloads the first generated token's KV row, so
	// the chunked rows sum to the monolithic prefillKVBytes (s+1 rows).
	kvRows := t
	if base+tokens >= e.Work.PromptLen {
		kvRows++
	}
	kvBytes := 2 * kvRows * h1 * bls * float64(e.Mod.BytesPerElem)
	if e.Strat.AttnOnCPU {
		kvDown = kvBytes / e.linkBW()
	} else {
		kvDown = kvBytes * (1 - e.Strat.CacheGPUPct) * e.Strat.kvQuantRatio() / e.linkBW()
	}
	return loadWeight, compute, kvDown
}

// ChunkedPrefillTasks returns the total per-kind busy time (seconds) of
// prefilling the whole prompt in chunks of at most `chunk` tokens, summed
// over every chunk and every layer. chunk <= 0 (or >= the prompt) degenerates
// to one monolithic chunk. Only the three kinds a prefill exercises are
// populated (LoadWeight, Compute, StoreCache).
func (e *Estimator) ChunkedPrefillTasks(chunk int) TaskTimes {
	s := e.Work.PromptLen
	var tt TaskTimes
	if s <= 0 {
		return tt
	}
	if chunk <= 0 || chunk > s {
		chunk = s
	}
	l := float64(e.Mod.Layers)
	for base := 0; base < s; base += chunk {
		t := chunk
		if s-base < t {
			t = s - base
		}
		lw, comp, kv := e.ChunkPrefillParts(base, t)
		tt.LoadWeight += lw * l
		tt.Compute += comp * l
		tt.StoreCache += kv * l
	}
	return tt
}

// ChunkedPrefillChunks returns how many chunks a prompt of the workload's
// length needs at the given chunk size.
func (e *Estimator) ChunkedPrefillChunks(chunk int) int {
	s := e.Work.PromptLen
	if s <= 0 {
		return 0
	}
	if chunk <= 0 || chunk > s {
		return 1
	}
	return (s + chunk - 1) / chunk
}

// TPrefillChunked is the ideal-overlap makespan estimate of a chunked
// prefill: per chunk and layer the busiest of {weight upload, compute, KV
// offload} bounds the step (the Eq. 2 composition TPrefill uses), summed over
// all chunks and layers. It upper-bounds nothing the conformance suite pins
// exactly — the DES makespan is compared structurally (>= the busiest kind's
// total, <= the serial sum) — but it is the number drain and TTFT predictions
// want: the chunked prefill's wall time under ideal overlap.
func (e *Estimator) TPrefillChunked(chunk int) float64 {
	s := e.Work.PromptLen
	if s <= 0 {
		return 0
	}
	if chunk <= 0 || chunk > s {
		chunk = s
	}
	l := float64(e.Mod.Layers)
	var total float64
	for base := 0; base < s; base += chunk {
		t := chunk
		if s-base < t {
			t = s - base
		}
		lw, comp, kv := e.ChunkPrefillParts(base, t)
		m := comp
		if lw > m {
			m = lw
		}
		if kv > m {
			m = kv
		}
		total += m * l
	}
	return total
}

// PredictChunked is the fitted prefill-cost model's chunked prediction: a
// prompt split into ceil(tokens/chunk) chunks pays the fixed per-admission
// cost (layer streaming setup) once per chunk and the per-token cost once per
// token: T ≈ ceil(n/c)·fixed + perToken·n. chunk <= 0 (chunking disabled) or
// chunk >= tokens degenerates to the monolithic Predict. Zero before Ready.
func (m *PrefillCostModel) PredictChunked(tokens, chunk int) time.Duration {
	if tokens <= 0 {
		return 0
	}
	if chunk <= 0 || chunk >= tokens {
		return m.Predict(tokens)
	}
	fixed, perToken, ready := m.fit.fitted()
	if !ready {
		return 0
	}
	chunks := float64((tokens + chunk - 1) / chunk)
	return time.Duration((fixed*chunks + perToken*float64(tokens)) * float64(time.Second))
}

// ChunkStateBytes is the admission model's bound on the host memory a
// chunked prefill retains while in flight: the raw float32 rows of the whole
// prompt across every layer (the live cache quantized slots keep so later
// chunks attend against raw history). The bound is reached just before the
// final chunk completes; the fuzz harness asserts observed peaks never
// exceed it.
func (a AdmissionModel) ChunkStateBytes(promptLen, layers int) int64 {
	if promptLen < 0 {
		promptLen = 0
	}
	if layers < 0 {
		layers = 0
	}
	per := satMul64(2, satMul64(int64(a.HiddenDim), int64(a.BytesPerElem)))
	return satMul64(int64(layers), satMul64(int64(promptLen), per))
}
