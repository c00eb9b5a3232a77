package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/xtrace"
)

// This file is the scheduler's admission unit: the submit-side check, the
// loop-side gate over the queue head, and the admission of queued requests
// into free slots of the slot table, monolithically or one chunk per loop
// iteration, with the prefill-cost fit and peak estimate they feed.

// ErrOverloaded is the sentinel all admission-controller rejections wrap;
// errors.Is(err, ErrOverloaded) matches any OverloadError.
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError is a structured admission rejection: the HTTP layer maps it
// to 429 (memory/latency pressure) or 503 (breaker shedding) with a
// Retry-After derived from the predicted drain time.
type OverloadError struct {
	// Reason is a short machine-readable cause: "arena-pressure",
	// "tpot-budget", "never-fits", or "shedding".
	Reason string
	// RetryAfter is the predicted time until the pressure drains (zero when
	// the step-cost model has no estimate yet).
	RetryAfter time.Duration
	// State is the breaker state at rejection time.
	State BreakerState
	// Permanent marks rejections no amount of waiting can fix — the request
	// can never be admitted on this deployment (its KV at final length
	// exceeds the arena's whole headroom). The HTTP layer maps permanent
	// rejections to 422 with no Retry-After, so clients stop retrying them;
	// transient pressure stays 429/503.
	Permanent bool
}

func (e *OverloadError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("serve: request can never be admitted (%s, state %s)", e.Reason, e.State)
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("serve: overloaded (%s, state %s, retry after %v)", e.Reason, e.State, e.RetryAfter)
	}
	return fmt.Sprintf("serve: overloaded (%s, state %s)", e.Reason, e.State)
}

// Is makes errors.Is(err, ErrOverloaded) true for every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// newAdmissionModel builds the perfmodel admission estimator from the
// engine's actual deployment: its pinned resident bytes, its largest
// streamed layer buffer, and the prefetch depth. This closes the loop: the
// analytical model is parameterized by the running engine rather than by a
// hypothetical platform.
func newAdmissionModel(eng *runtime.Engine) perfmodel.AdmissionModel {
	buffers := 1
	if eng.Policy().Prefetch {
		buffers = 2 // current + prefetched next layer
	}
	return perfmodel.AdmissionModel{
		HiddenDim:     eng.ModelConfig().Hidden,
		BytesPerElem:  4, // staged KV working copies are float32
		ResidentBase:  eng.ResidentBaseBytes(),
		LayerBytes:    eng.MaxStreamLayerBytes(),
		WeightBuffers: buffers,
		Slack:         footprintSlack,
	}
}

// admitCheck is the submit-side admission controller: it rejects against the
// breaker and the loop-published pressure snapshot. Per-request footprint
// gating against the watermarks happens in the loop (which defers instead of
// dropping); here only requests that could never fit, or that arrive while
// the server is already past its watermarks, are turned away.
func (s *Scheduler) admitCheck(req Request) error {
	s.mu.Lock()
	view := s.press
	s.mu.Unlock()
	if st := s.brk.current(); st == Shedding {
		return &OverloadError{Reason: "shedding", RetryAfter: view.drain, State: st}
	}
	if s.adm.ScaledKV(s.adm.SlotKVBytes(len(req.Prompt), req.MaxNewTokens)) > s.kvHeadroom {
		// No drain can ever make this request fit: its own final-length KV
		// exceeds the whole arena headroom. Permanent → HTTP 422, never 429.
		return &OverloadError{Reason: "never-fits", State: s.brk.current(), Permanent: true}
	}
	if view.gpuFrac >= s.cfg.ArenaHighWater || view.hostFrac >= s.cfg.ArenaHighWater {
		return &OverloadError{Reason: "arena-pressure", RetryAfter: view.drain, State: s.brk.current()}
	}
	if s.cfg.TPOTBudget > 0 && view.tpotNext > s.cfg.TPOTBudget {
		return &OverloadError{Reason: "tpot-budget", RetryAfter: view.drain, State: s.brk.current()}
	}
	return nil
}

// gateDecision is the loop-side admission gate's verdict on the queue head.
type gateDecision int

const (
	gateAdmit gateDecision = iota
	gateDefer
	gateReject
)

// gateHead decides whether the queue head can join the batch now. Deferring
// keeps it queued (FIFO order preserved); rejecting finishes it with a
// structured overload error. The watermark tightens to the low mark while
// the ladder is escalated (hysteresis: drain below lwm before admitting
// freely again).
func (s *Scheduler) gateHead(p *pending) gateDecision {
	if s.adm.ScaledKV(s.adm.SlotKVBytes(p.finalKVTokens())) > s.kvHeadroom {
		return gateReject
	}
	if s.sess.NumActive() == 0 {
		// Livelock guard: with an empty batch nothing drains, so anything
		// that absolutely fits must be admitted.
		return gateAdmit
	}
	thr := s.cfg.ArenaHighWater
	if s.level > 0 {
		thr = s.cfg.ArenaLowWater
	}
	if float64(s.adm.ScaledKV(s.batchKV(p))) > thr*float64(s.kvHeadroom) {
		return gateDefer
	}
	if s.cfg.HostKVBudget > 0 &&
		float64(s.sess.HostKVBytes()) >= thr*float64(s.cfg.HostKVBudget) {
		return gateDefer
	}
	if s.cfg.TPOTBudget > 0 {
		if t := s.cost.PredictTPOT(s.sess.NumActive() + 1); t > s.cfg.TPOTBudget {
			return gateDefer
		}
		// Suffix-cost gate: an admission stalls every active slot for the
		// prefill's duration, so the head is costed at the tokens it will
		// actually prefill — its prompt minus whatever the prefix cache
		// already holds. A cached-prefix request sails through where an
		// equally long cold one defers. Deferrals are bounded so a cold
		// head eventually admits regardless (FIFO liveness). With chunked
		// prefill the gate is unnecessary — per-step prefill exposure is
		// bounded to one chunk by construction — so it only applies to
		// prompts short enough to admit monolithically.
		if s.prefillCost.Ready() && p.prefillDeferrals < maxPrefillDeferrals &&
			!(s.cfg.ChunkTokens > 0 && len(p.effectivePrompt()) > s.cfg.ChunkTokens) {
			suffix := s.suffixTokens(p)
			if s.prefillCost.Predict(suffix) > time.Duration(prefillStallSteps)*s.cfg.TPOTBudget {
				p.prefillDeferrals++
				return gateDefer
			}
		}
	}
	return gateAdmit
}

// prefillStallSteps is how many TPOT budgets an admission's predicted
// prefill stall may cost the running batch before the gate defers it;
// maxPrefillDeferrals bounds those deferrals per request.
const (
	prefillStallSteps   = 4
	maxPrefillDeferrals = 16
)

// suffixTokens predicts how many tokens admitting p will actually prefill:
// its effective prompt minus the longest cached prefix (capped so at least
// one token always prefills).
func (s *Scheduler) suffixTokens(p *pending) int {
	prompt := p.effectivePrompt()
	n := len(prompt)
	if s.prefixStore != nil {
		n -= s.prefixStore.MatchTokens(prompt, len(prompt)-1)
	}
	return n
}

// takeQueued removes a request (previously returned by next) from the queue,
// charging its tenant's fair-share credit.
func (s *Scheduler) takeQueued(p *pending) {
	s.mu.Lock()
	s.queue.take(p)
	s.mu.Unlock()
}

// admit moves queued requests into free slots, prefilling each and emitting
// its first token. The dispatch choice is the fair queue's: FIFO order in
// single-tenant mode, weighted round-robin under per-tenant quotas
// otherwise. Requests whose context already ended are dropped without
// consuming a slot. The dispatched candidate is gated against the watermarks
// first — deferred requests stay queued in place.
func (s *Scheduler) admit() {
	for {
		slot := s.freeSlot()
		if slot < 0 {
			return
		}
		s.mu.Lock()
		p := s.queue.next(s.tenantEligibleLocked)
		s.mu.Unlock()
		if p == nil {
			return
		}
		if err := p.ctx.Err(); err != nil {
			s.takeQueued(p)
			s.finishFailed(p, err)
			continue
		}
		switch s.gateHead(p) {
		case gateDefer:
			return
		case gateReject:
			s.takeQueued(p)
			p.stream.finish(&OverloadError{Reason: "never-fits", State: s.brk.current(), Permanent: true})
			s.eng.Stats().RecordOverloadRejection()
			s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Rejected++ })
			continue
		}
		s.takeQueued(p)
		prompt := p.effectivePrompt()
		// queue_wait covers submission to the admission decision; an evicted
		// request's resume admissions are not re-counted (its wait is the
		// original one). The KV storage mode is sticky per request too: a
		// resumed request keeps the mode of its first admission so its tokens
		// stay exact against one solo reference.
		if !p.admittedOnce {
			s.trace(xtrace.TaskQueueWait, p.submitted, xtrace.At(-1, -1, slot))
			p.kvQuant = s.sess.QuantizeNewSlots()
		}
		if s.cfg.ChunkTokens > 0 && len(prompt) > s.cfg.ChunkTokens {
			// Chunked admission: open the prefill now, advance it one bounded
			// chunk per loop iteration (advanceChunk), and deliver the first
			// token when the final chunk lands. The slot is occupied from here
			// on, so occupancy gating and tenant quotas see it immediately.
			if err := s.sess.BeginPrefill(slot, prompt, p.kvQuant); err != nil {
				s.finishFailed(p, err)
				continue
			}
			s.occupy(p, slot)
			continue
		}
		t0 := time.Now()
		tok, err := s.sess.AdmitKV(p.ctx, slot, prompt, p.kvQuant)
		dur := time.Since(t0)
		if err != nil {
			s.finishFailed(p, err)
			continue
		}
		s.occupy(p, slot)
		// The fit observes the tokens this admission actually prefilled — the
		// suffix beyond any prefix-cache seed.
		s.admitted(p, tok, t0, dur, len(prompt)-s.sess.SlotReusedTokens(slot))
	}
}

// admitted completes an admission whose prefill produced p's first token
// (p's slot now decodes): the admission span covers the prefill from t0 and
// the prefill's (tokens, dur) sample feeds the prefill-cost fit. The
// estimator observation uses the prediction as of *before* this sample lands
// in the fit.
func (s *Scheduler) admitted(p *pending, tok int, t0 time.Time, dur time.Duration, tokens int) {
	s.trace(xtrace.TaskAdmit, t0, xtrace.At(-1, -1, p.slot))
	now := time.Now()
	// The admission's token came from prefill: restart the decode-gap window
	// without recording a gap, so TPOT only ever averages decode-step
	// intervals.
	p.noteAdmitToken(now)
	if !p.admittedOnce {
		p.admittedOnce = true
		p.stream.setKVQuant(s.sess.SlotQuantizedKV(p.slot))
		s.eng.Stats().RecordAdmission(now.Sub(p.submitted))
		s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Admitted++ })
	}
	s.observePrefill(tokens, dur)
	s.recordEstimate(p)
	s.deliver(p, tok)
}

// observePrefill folds one prefill's (tokens, duration) sample into the
// prefill-cost fit, first scoring the fit's prediction for it.
func (s *Scheduler) observePrefill(tokens int, dur time.Duration) {
	if obs := s.cfg.EstObserver; obs != nil && s.prefillCost.Ready() {
		obs.ObserveEstimate(perfmodel.EstPrefill, s.prefillCost.Predict(tokens).Seconds(), dur.Seconds())
	}
	s.prefillCost.Observe(tokens, dur)
}

// recordEstimate stores the admission-time peak prediction for p (covering
// the whole batch it joined, at final lengths) and folds it into the
// published high-water estimate.
func (s *Scheduler) recordEstimate(p *pending) {
	p.estimate = s.adm.PeakBytes(s.batchKV(nil))
	s.mu.Lock()
	if p.estimate > s.press.maxPredictedPeak {
		s.press.maxPredictedPeak = p.estimate
	}
	s.mu.Unlock()
}

// batchKV is the largest final-length KV footprint, in raw bytes, over the
// slot table and cand (when non-nil). Both phases count: a prefilling slot
// reaches its final length just as a decoding one does. The admission gate
// scales it against the watermarks; peak estimates use it raw.
func (s *Scheduler) batchKV(cand *pending) int64 {
	var maxKV int64
	if cand != nil {
		maxKV = s.adm.SlotKVBytes(cand.finalKVTokens())
	}
	for _, p := range s.slots {
		if p != nil {
			maxKV = max(maxKV, s.adm.SlotKVBytes(p.finalKVTokens()))
		}
	}
	return maxKV
}

// freeSlot returns the lowest free slot in the table, or -1 when every slot
// is occupied (decoding or prefilling).
func (s *Scheduler) freeSlot() int {
	for slot, p := range s.slots {
		if p == nil {
			return slot
		}
	}
	return -1
}

// occupy enters p into the table at slot — the admission side of release.
func (s *Scheduler) occupy(p *pending, slot int) {
	p.slot = slot
	s.slots[slot] = p
	s.noteActive(p, 1)
}

// advanceChunk advances exactly one in-flight chunked prefill by one chunk —
// the oldest submission first, so chunked admissions complete in FIFO order.
// Running at most one chunk per loop iteration is what bounds a decode step's
// prefill exposure to ChunkTokens by construction. Chunk durations feed the
// prefill-cost fit (each chunk is one (tokens, duration) sample); the final
// chunk activates the slot and delivers the first token exactly as a
// monolithic admission would have.
func (s *Scheduler) advanceChunk() {
	var p *pending
	for slot, q := range s.slots {
		if q != nil && s.sess.PrefillPending(slot) && (p == nil || q.submitted.Before(p.submitted)) {
			p = q
		}
	}
	if p == nil {
		return
	}
	prev, _ := s.sess.PrefillProgress(p.slot)
	t0 := time.Now()
	done, total, tok, err := s.sess.PrefillChunk(p.ctx, p.slot, s.cfg.ChunkTokens)
	dur := time.Since(t0)
	switch {
	case err != nil:
		// The prefill is still pending, so release cancels it; the prefix
		// blocks its completed chunks committed stay cached for a retry.
		s.release(p)
		s.finishFailed(p, err)
	case done < total:
		s.observePrefill(done-prev, dur)
	default:
		s.admitted(p, tok, t0, dur, done-prev)
	}
}
