package perfmodel

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// AdmissionModel estimates, before a request is admitted, the peak GPU-arena
// footprint serving it will cause — the online counterpart of the paper's
// memory-capacity constraints (Eqs. 17–19). The serving engine stages at most
// one slot's KV working copy at a time (its per-layer decode is serial per
// slot) and keeps at most WeightBuffers streamed layer buffers in flight, so
// the peak decomposes into
//
//	peak = ResidentBase + WeightBuffers·LayerBytes + slack·maxSlotKV
//
// where maxSlotKV is the largest single slot's staged K+V bytes at its final
// sequence length (2·(s+n)·h·bytesPerElem, the per-layer term of Eq. 17) and
// slack absorbs transient double-buffering during rollback/retry.
//
// All arithmetic saturates instead of overflowing, so adversarial shapes
// (fuzzed prompt lengths, giant hidden sizes) can never produce a negative
// estimate or wrap around into a spuriously small one.
type AdmissionModel struct {
	// HiddenDim and BytesPerElem describe the model's KV row geometry. The
	// staged working copy is always float32 in the functional engine, so
	// BytesPerElem is 4 there; the analytical model keeps it a parameter.
	HiddenDim    int
	BytesPerElem int

	// ResidentBase is the arena footprint that exists independent of any
	// request: pinned resident layers (the wg split's GPU share).
	ResidentBase int64
	// LayerBytes is the largest streamed layer's staged weight buffer.
	LayerBytes int64
	// WeightBuffers is how many streamed layer buffers can be in flight at
	// once (2 under prefetch: current + next).
	WeightBuffers int
	// Slack scales the KV term (≥ 1); it absorbs the transient second copy a
	// retried fetch can hold while the first is being released.
	Slack float64
}

// Validate reports malformed parameters.
func (a AdmissionModel) Validate() error {
	if a.HiddenDim <= 0 || a.BytesPerElem <= 0 {
		return fmt.Errorf("perfmodel: admission model geometry %d/%d must be positive", a.HiddenDim, a.BytesPerElem)
	}
	if a.ResidentBase < 0 || a.LayerBytes < 0 || a.WeightBuffers < 0 {
		return fmt.Errorf("perfmodel: admission model byte terms must be non-negative")
	}
	if a.Slack < 1 {
		return fmt.Errorf("perfmodel: admission slack %g must be >= 1", a.Slack)
	}
	return nil
}

// SlotKVBytes returns the staged K+V working-copy size of one slot once it
// has cached promptLen+newTokens tokens: 2·(s+n)·h·bytes, saturating.
// Negative lengths are treated as zero.
func (a AdmissionModel) SlotKVBytes(promptLen, newTokens int) int64 {
	if promptLen < 0 {
		promptLen = 0
	}
	if newTokens < 0 {
		newTokens = 0
	}
	tokens := satAdd64(int64(promptLen), int64(newTokens))
	per := satMul64(2, satMul64(int64(a.HiddenDim), int64(a.BytesPerElem)))
	return satMul64(tokens, per)
}

// PeakBytes returns the predicted peak arena use when the largest staged
// slot holds kvBytes, saturating on overflow.
//
// Shared-prefix KV reuse does not lower this bound, and deliberately so:
// seeding a slot from the prefix cache skips suffix-prefill *compute*, but
// the slot's store still receives the full prompt's KV, and every decode
// step stages the full (prompt+generated) working copy into the arena. The
// prefill itself never charges its live KV to the arena (it is host-side
// until store_cache). So the admission-time estimate at final lengths
// remains a valid upper bound on the arena high-water mark with reuse on —
// the property the serve-bounds conformance suite checks. Reused bytes show
// up in the *time* models instead: PrefillCostModel predicts the suffix
// prefill stall, and drain estimates fold the queued suffix backlog in.
func (a AdmissionModel) PeakBytes(kvBytes int64) int64 {
	if kvBytes < 0 {
		kvBytes = 0
	}
	peak := satAdd64(a.ResidentBase, satMul64(int64(a.WeightBuffers), a.LayerBytes))
	return satAdd64(peak, satScale(kvBytes, a.Slack))
}

// ScaledKV returns the slack-scaled KV pressure term of PeakBytes — the
// quantity watermark comparisons use against the arena's KV headroom.
func (a AdmissionModel) ScaledKV(kvBytes int64) int64 {
	if kvBytes < 0 {
		kvBytes = 0
	}
	return satScale(kvBytes, a.Slack)
}

// satAdd64 adds, clamping at MaxInt64.
func satAdd64(x, y int64) int64 {
	if x > math.MaxInt64-y {
		return math.MaxInt64
	}
	return x + y
}

// satMul64 multiplies non-negative operands, clamping at MaxInt64.
func satMul64(x, y int64) int64 {
	if x == 0 || y == 0 {
		return 0
	}
	if x > math.MaxInt64/y {
		return math.MaxInt64
	}
	return x * y
}

// satScale multiplies a non-negative byte count by a factor ≥ 0, clamping.
func satScale(x int64, f float64) int64 {
	v := float64(x) * f
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return 0
	}
	return int64(v)
}

// StepCostModel predicts per-step decode latency as a function of batch
// occupancy by fitting observed steps to the Eq. 2 shape: with per-slot
// serial attention, a step costs a fixed part (weight streaming, which is
// shared across slots) plus a per-slot part (load_cache + compute +
// store_cache per sequence), i.e. T_step(b) ≈ fixed + perSlot·b. The fit is
// an exponentially-decayed least squares over (occupancy, duration) samples,
// so the predictor tracks drift (degradation rungs change both
// coefficients). All methods are safe for concurrent use: the scheduler
// observes from its loop goroutine while the background adapt refitter reads
// coefficients and predictions off it.
type StepCostModel struct{ fit decayedFit }

// stepCostDecay is the per-observation decay: ~0.97 keeps roughly the last
// 30 steps dominant, long enough to smooth fault noise and short enough to
// track a degradation rung within a burst.
const stepCostDecay = 0.97

// stepCostMinSamples gates predictions until the fit has seen enough steps.
const stepCostMinSamples = 8

// decayedFit is the exponentially-decayed least-squares fit y ≈ fixed +
// slope·x both cost models share: decayed sufficient statistics, a sample
// count gating readiness, and a mutex making it safe for concurrent use.
type decayedFit struct {
	mu                  sync.Mutex
	n, sx, sxx, sy, sxy float64
	samples             int64
}

// observe folds one (x, duration) sample into the fit.
func (f *decayedFit) observe(x float64, d time.Duration) {
	y := d.Seconds()
	f.mu.Lock()
	f.n = f.n*stepCostDecay + 1
	f.sx = f.sx*stepCostDecay + x
	f.sxx = f.sxx*stepCostDecay + x*x
	f.sy = f.sy*stepCostDecay + y
	f.sxy = f.sxy*stepCostDecay + x*y
	f.samples++
	f.mu.Unlock()
}

// fitted returns the constrained coefficients (seconds) and whether the fit
// has seen enough samples to predict, read under one lock.
func (f *decayedFit) fitted() (fixed, slope float64, ready bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fixed, slope = affineFit(f.n, f.sx, f.sxx, f.sy, f.sxy)
	return fixed, slope, f.samples >= stepCostMinSamples
}

// predict returns fixed + slope·x as a duration (zero before the fit is
// ready).
func (f *decayedFit) predict(x float64) time.Duration {
	fixed, slope, ready := f.fitted()
	if !ready {
		return 0
	}
	return time.Duration((fixed + slope*x) * float64(time.Second))
}

// Observe folds one decode step at the given occupancy into the fit.
func (m *StepCostModel) Observe(occupancy int, d time.Duration) {
	if occupancy <= 0 || d <= 0 {
		return
	}
	m.fit.observe(float64(occupancy), d)
}

// Ready reports whether the model has enough samples to predict.
func (m *StepCostModel) Ready() bool {
	_, _, ready := m.fit.fitted()
	return ready
}

// Coefficients returns the fitted (fixed, perSlot) parts in seconds. Before
// Ready, or when the observed occupancies are degenerate (all equal), the
// per-slot part is folded into an occupancy-independent mean.
func (m *StepCostModel) Coefficients() (fixed, perSlot float64) {
	fixed, perSlot, _ = m.fit.fitted()
	return fixed, perSlot
}

// affineFit solves the weighted least-squares fit y ≈ fixed + slope·x from
// its sufficient statistics (total weight n and the weighted sums of x, x²,
// y and x·y), constrained to fixed ≥ 0 and slope ≥ 0. When the
// unconstrained optimum breaks one constraint, the constrained optimum lies
// on that constraint's boundary: slope = 0 gives the mean, fixed = 0 the
// fit through the origin. Degenerate x (all samples equal) also yields the
// mean.
func affineFit(n, sx, sxx, sy, sxy float64) (fixed, slope float64) {
	if n <= 0 {
		return 0, 0
	}
	det := n*sxx - sx*sx
	mean := sy / n
	if det <= 1e-12*n*sxx {
		return mean, 0
	}
	slope = (n*sxy - sx*sy) / det
	fixed = (sy - slope*sx) / n
	if slope < 0 {
		// Noise can tilt the fit negative; an occupancy-independent mean is
		// the safe fallback (never predicts faster steps for bigger batches).
		return mean, 0
	}
	if fixed < 0 {
		// Refit the slope rather than clamping the intercept alone: the
		// unconstrained slope paired with a zero intercept overpredicts
		// every sample at the dominant x. A few slow outliers at a rare x
		// steepen the unconstrained slope, and uniform decay never
		// unlearns it until that x is sampled again.
		return 0, sxy / sxx
	}
	return fixed, slope
}

// PredictTPOT returns the predicted time-per-output-token at the given
// occupancy (each step yields one token per active slot, so TPOT equals step
// time). Zero before the model is Ready.
func (m *StepCostModel) PredictTPOT(occupancy int) time.Duration {
	if occupancy <= 0 {
		return 0
	}
	return m.fit.predict(float64(occupancy))
}

// PredictDrain estimates how long the server needs to finish remainingTokens
// across the given occupancy — the Retry-After hint for rejected requests.
// Zero when the model is not Ready or there is nothing to drain.
func (m *StepCostModel) PredictDrain(remainingTokens int64, occupancy int) time.Duration {
	if remainingTokens <= 0 || occupancy <= 0 {
		return 0
	}
	steps := (remainingTokens + int64(occupancy) - 1) / int64(occupancy)
	return time.Duration(steps) * m.PredictTPOT(occupancy)
}

// PrefillCostModel predicts admission prefill latency as a function of the
// tokens actually prefilled — with shared-prefix reuse, the *suffix* length,
// which is where reused bytes enter the scheduler's latency math. Prefill
// streams every layer once regardless of prompt length and then pays per
// prefilled token (projections, MLP, store_cache), so the Eq. 2 shape is the
// same affine fit the step model uses: T_prefill(n) ≈ fixed + perToken·n,
// with the quadratic attention term absorbed into the slope over the short
// prompt ranges one deployment serves. Exponentially-decayed least squares,
// same decay and readiness gate as StepCostModel; like it, safe for
// concurrent use (the scheduler observes from its loop goroutine while the
// adapt refitter and routers read predictions concurrently).
type PrefillCostModel struct{ fit decayedFit }

// Observe folds one admission: tokens actually prefilled (suffix length
// under reuse) against the measured prefill duration.
func (m *PrefillCostModel) Observe(tokens int, d time.Duration) {
	if tokens <= 0 || d <= 0 {
		return
	}
	m.fit.observe(float64(tokens), d)
}

// Ready reports whether the model has enough samples to predict.
func (m *PrefillCostModel) Ready() bool {
	_, _, ready := m.fit.fitted()
	return ready
}

// Coefficients returns the fitted (fixed, perToken) parts in seconds, with
// the same degenerate-input and negative-slope fallbacks as the step model.
func (m *PrefillCostModel) Coefficients() (fixed, perToken float64) {
	fixed, perToken, _ = m.fit.fitted()
	return fixed, perToken
}

// Predict returns the expected prefill stall for the given token count
// (zero before Ready or for nothing to prefill).
func (m *PrefillCostModel) Predict(tokens int) time.Duration {
	if tokens <= 0 {
		return 0
	}
	return m.fit.predict(float64(tokens))
}
