package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/xtrace"
)

// This file is the scheduler's step unit: retiring cancelled slots, one
// decode step over the batch, token delivery, and the slot lifecycle's one
// release path with the checker that guards the slot table.

// retireCancelled frees the slots of requests whose context ended, so a
// cancelled request stops consuming decode steps at the next boundary. A
// cancelled mid-prefill chunk abandons its partial chunks the same way; the
// prefix blocks its completed chunks committed stay cached for a retry.
func (s *Scheduler) retireCancelled() {
	for _, p := range s.slots {
		if p == nil {
			continue
		}
		if err := p.ctx.Err(); err != nil {
			s.release(p)
			s.finishFailed(p, err)
		}
	}
}

// finishFailed ends a request that will not complete: its stream finishes
// with err, and the request counts as canceled when its own context ended
// and as rejected otherwise — on the engine stats and its tenant's counters
// alike, so every submission is accounted for exactly once.
func (s *Scheduler) finishFailed(p *pending, err error) {
	p.stream.finish(err)
	if p.ctx.Err() != nil {
		s.eng.Stats().RecordCancellation()
		s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Canceled++ })
		return
	}
	s.eng.Stats().RecordRejection()
	s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Rejected++ })
}

// stepBatch advances the whole active batch one token and fans the results
// out. A step error after the session's own retries and degradations is
// batch-fatal: every in-flight request fails with it.
//
// The step runs under a context derived from the scheduler's lifecycle —
// never context.Background() — and additionally cancelled once every request
// in the batch has abandoned its own context. Close keeps its documented
// semantics (in-flight requests run to completion) but a step that stalls in
// a fault window can no longer wedge drain when nobody is waiting for its
// result.
func (s *Scheduler) stepBatch() {
	stepCtx, cancel := s.stepContext()
	defer cancel()
	t0 := time.Now()
	toks, err := s.sess.Step(stepCtx)
	// Measure the step window immediately: the cost model must fit the
	// decode step itself, not the step plus tracing and fan-out overhead.
	stepDur := time.Since(t0)
	s.trace(xtrace.TaskStep, t0, xtrace.At(s.stepIdx, -1, -1))
	s.stepIdx++
	if err != nil {
		for slot, p := range s.slots {
			if p == nil || !s.sess.IsActive(slot) {
				continue
			}
			s.release(p)
			p.stream.finish(err)
			s.eng.Stats().RecordCancellation()
			s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Canceled++ })
		}
		return
	}
	// Score the TPOT prediction this step would have been quoted before
	// folding the measurement into the fit.
	if obs := s.cfg.EstObserver; obs != nil {
		if pred := s.cost.PredictTPOT(len(toks)); pred > 0 {
			obs.ObserveEstimate(perfmodel.EstTPOT, pred.Seconds(), stepDur.Seconds())
		}
	}
	s.cost.Observe(len(toks), stepDur)
	s.mu.Lock()
	depth := s.queue.len()
	s.mu.Unlock()
	s.eng.Stats().RecordBatchStep(len(toks), depth)
	// One timestamp for the whole fan-out: tokens of the same step are
	// simultaneous, and per-token clock reads would smear delivery overhead
	// into later slots' TPOT gaps.
	now := time.Now()
	for _, st := range toks {
		if p := s.slots[st.Slot]; p != nil {
			p.noteDecodeToken(now)
			s.deliver(p, st.Token)
		}
	}
}

// stepContext derives the batch step's context: child of the scheduler
// lifecycle, cancelled early once every decoding request's own context is
// done. The watcher goroutine waits on each request context in turn (order
// is irrelevant — all must be done) and exits promptly when the step
// finishes first.
func (s *Scheduler) stepContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(s.lifeCtx)
	ctxs := make([]context.Context, 0, len(s.slots))
	for slot, p := range s.slots {
		if p != nil && s.sess.IsActive(slot) {
			ctxs = append(ctxs, p.ctx)
		}
	}
	if len(ctxs) == 0 {
		return ctx, cancel
	}
	go func() {
		for _, c := range ctxs {
			select {
			case <-c.Done():
			case <-ctx.Done():
				return
			}
		}
		cancel()
	}()
	return ctx, cancel
}

// deliver pushes one token to the request's stream and completes the request
// when it hits EOS or its budget.
func (s *Scheduler) deliver(p *pending, tok int) {
	p.stream.push(tok)
	p.produced++
	if (s.cfg.EOS >= 0 && tok == s.cfg.EOS) || p.produced >= p.req.MaxNewTokens {
		s.release(p)
		s.eng.Stats().RecordCompletion(p.tpot())
		s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Completed++ })
		// Finish last, so a caller woken by Wait already sees the
		// completion in Metrics.
		p.stream.finish(nil)
	}
}

// release frees p's slot: it cancels p's chunked prefill or retires its
// decoding sequence, empties the table entry, drops the occupancy counters
// and marks the retirement. It is the one way a slot leaves the table; each
// caller does its own request accounting (completion, cancellation,
// rejection or re-queue).
func (s *Scheduler) release(p *pending) {
	if s.sess.PrefillPending(p.slot) {
		s.sess.CancelPrefill(p.slot)
	} else {
		s.sess.Retire(p.slot)
	}
	s.slots[p.slot] = nil
	s.noteActive(p, -1)
	s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, p.slot))
}

// occupied counts the slot table's occupied entries.
func (s *Scheduler) occupied() int {
	n := 0
	for _, p := range s.slots {
		if p != nil {
			n++
		}
	}
	return n
}

// noteActive mirrors the loop-owned occupancy into the mu-guarded counters
// Metrics and the tenant quota check read; p attributes the slot to its
// tenant.
func (s *Scheduler) noteActive(p *pending, delta int) {
	s.mu.Lock()
	s.active += delta
	s.tenantActive[p.tenant] += delta
	s.mu.Unlock()
}

// checkSlotTable switches on checkSlots. Tests set it; it is off in
// production.
var checkSlotTable atomic.Bool

// checkSlots verifies the slot table at a loop boundary and panics on a
// violation: an empty entry is neither decoding nor prefilling in the
// session, an occupied entry is exactly one of the two and knows its slot,
// and the mu-mirrored occupancy (total and summed over tenants) equals the
// occupied entries.
func (s *Scheduler) checkSlots() {
	if !checkSlotTable.Load() {
		return
	}
	for slot, p := range s.slots {
		decoding, prefilling := s.sess.IsActive(slot), s.sess.PrefillPending(slot)
		switch {
		case p == nil && (decoding || prefilling):
			panic(fmt.Sprintf("serve: slot %d is empty in the table but live in the session (decoding %v, prefilling %v)", slot, decoding, prefilling))
		case p != nil && (decoding == prefilling || p.slot != slot):
			panic(fmt.Sprintf("serve: slot %d entry (slot %d) is decoding %v, prefilling %v", slot, p.slot, decoding, prefilling))
		}
	}
	occupied := s.occupied()
	s.mu.Lock()
	active, tenants := s.active, 0
	for _, n := range s.tenantActive {
		tenants += n
	}
	s.mu.Unlock()
	if active != occupied || tenants != occupied {
		panic(fmt.Sprintf("serve: %d occupied slots but active count %d, tenant counts sum to %d", occupied, active, tenants))
	}
}
