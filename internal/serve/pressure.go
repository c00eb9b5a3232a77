package serve

import (
	"context"
	"time"

	"repro/internal/quant"
	"repro/internal/xtrace"
)

// This file is the scheduler's pressure unit: the KV-pressure ladder the
// loop runs each iteration, the breaker inputs it feeds, and the pressure
// snapshot it publishes for Submit, Health and Metrics.

// Health evaluates and returns the breaker state. Evaluating here (not just
// in the loop) lets an idle server walk back to healthy between polls.
func (s *Scheduler) Health() BreakerState {
	s.mu.Lock()
	view := s.press
	s.mu.Unlock()
	return s.evaluateBreaker(view.level, view.gpuFrac, view.hostFrac)
}

// evaluateBreaker feeds the breaker the given pressure state plus the live
// fault and queue counters, counting any transition it makes.
func (s *Scheduler) evaluateBreaker(level int, gpuFrac, hostFrac float64) BreakerState {
	total := s.eng.Stats().TotalRetries()
	s.mu.Lock()
	faults := total > s.lastRetries
	s.lastRetries = total
	qlen := s.queue.len()
	s.mu.Unlock()
	st, changed := s.brk.evaluate(breakerSignals{
		faults:        faults,
		ladderHigh:    level >= 2,
		queueSwamped:  qlen >= s.cfg.QueueDepth,
		arenaCritical: level >= 3 && (gpuFrac >= s.cfg.ArenaHighWater || hostFrac >= s.cfg.ArenaHighWater),
	})
	if changed {
		s.eng.Stats().RecordBreakerTransition()
	}
	return st
}

// managePressure is the KV-pressure ladder: it measures the scaled staging
// pressure against the arena's KV headroom (and the host budget), escalates
// one rung per iteration above the high watermark — quantize new slots,
// spill the largest staged slot, evict the lowest-priority slot — and walks
// back down one rung per HealthyStreak of evaluations below the low
// watermark. It then feeds the breaker and publishes the pressure snapshot.
func (s *Scheduler) managePressure() {
	gpuFrac, hostFrac := s.pressureFractions()
	hwm, lwm := s.cfg.ArenaHighWater, s.cfg.ArenaLowWater
	switch {
	case s.sess.NumActive() == 0:
		// Idle: nothing is staged, so pressure is definitionally gone. Walk
		// the ladder fully down so a calm server restores normal storage.
		if s.level != 0 {
			s.level = 0
			s.healthyEvals = 0
			s.sess.SetQuantizeNewSlots(false, quant.Config{})
		}
	case gpuFrac >= hwm || hostFrac >= hwm:
		s.escalate(gpuFrac >= hwm)
		s.healthyEvals = 0
		// Re-measure: a spill or evict changes the pressure immediately.
		gpuFrac, hostFrac = s.pressureFractions()
	case gpuFrac < lwm && hostFrac < lwm:
		s.healthyEvals++
		if s.healthyEvals >= s.cfg.HealthyStreak && s.level > 0 {
			s.level--
			s.healthyEvals = 0
			if s.level < 1 {
				s.sess.SetQuantizeNewSlots(false, quant.Config{})
			}
		}
	default:
		s.healthyEvals = 0
	}
	s.evaluateBreaker(s.level, gpuFrac, hostFrac)
	s.publishPressure(gpuFrac, hostFrac)
}

// pressureFractions measures current pressure: the largest staged slot's
// slack-scaled bytes over the KV headroom, and host KV bytes over the host
// budget (zero when unbudgeted).
func (s *Scheduler) pressureFractions() (gpuFrac, hostFrac float64) {
	_, maxStaged := s.largestStaged()
	gpuFrac = float64(s.adm.ScaledKV(maxStaged)) / float64(s.kvHeadroom)
	if s.cfg.HostKVBudget > 0 {
		host := s.sess.HostKVBytes()
		// In-flight chunked prefills retain their raw rows host-side until the
		// final chunk; that is real host memory and must feel the budget.
		host += s.sess.ChunkHostBytes()
		if s.prefixStore != nil {
			// Cached prefix blocks are host memory too; counting them here is
			// what lets the ladder's drop-prefix rung actually relieve the
			// pressure it sees.
			host += s.prefixStore.UsedBytes()
		}
		hostFrac = float64(host) / float64(s.cfg.HostKVBudget)
	}
	return gpuFrac, hostFrac
}

// escalate takes the next ladder rung. gpuHigh distinguishes arena staging
// pressure (relieved by spilling) from host pressure (relieved only by
// eviction).
//
// Before any rung that touches a live slot, host pressure first drops
// unreferenced prefix-cache blocks: they are the only memory in the system
// whose reclaim costs future hit rate rather than a live request's storage
// mode or progress. GPU staging pressure skips this rung — prefix blocks
// are host-resident and free no arena bytes.
func (s *Scheduler) escalate(gpuHigh bool) {
	if !gpuHigh && s.prefixStore != nil {
		if n := s.prefixStore.EvictUnreferenced(); n > 0 {
			s.eng.Stats().RecordPrefixEvictions(int64(n))
			s.traceEvent(xtrace.TaskPrefixEvict, xtrace.NoLabels)
			return
		}
	}
	switch {
	case s.level == 0:
		s.level = 1
		// Rung 1: new slots store their KV quantized — ~8x less host KV and
		// proportionally less staging for every future admission.
		s.sess.SetQuantizeNewSlots(true, LadderKV())
	case s.level == 1:
		s.level = 2
		if gpuHigh {
			s.spillLargest()
		}
	default:
		s.level = 3
		s.evictOne(gpuHigh)
	}
}

// largestStaged returns the occupied slot staging the most KV bytes and
// that byte count (-1, 0 when nothing stages: prefilling and host-resident
// slots stage nothing). Ties go to the lowest slot.
func (s *Scheduler) largestStaged() (slot int, bytes int64) {
	slot = -1
	for i, p := range s.slots {
		if p == nil {
			continue
		}
		if b := s.sess.StagedKVBytes(i); b > bytes {
			slot, bytes = i, b
		}
	}
	return slot, bytes
}

// spillLargest moves the biggest staged slot's KV to the host cache (rung
// 2): its attention runs on the CPU from now on and its staging pressure
// drops to zero, exactness preserved.
func (s *Scheduler) spillLargest() {
	victim, _ := s.largestStaged()
	if victim < 0 {
		return
	}
	// A failed spill leaves the staged copy authoritative; the ladder simply
	// tries again next iteration.
	_ = s.sess.SpillSlot(context.Background(), victim)
}

// evictOne retires the lowest-priority slot — the fewest-tokens-produced
// sequence whose KV is stored raw — and re-queues it at the head of the line
// for recompute-on-resume (rung 3). Raw-only because a re-prefill regenerates
// a raw slot's KV bit-identically, while a quantized slot's lossy history
// cannot be reproduced from tokens; quantized slots are spilled instead.
// With a single active slot there is nothing to gain (the evictee would be
// re-admitted immediately), so eviction needs at least two. Ties go to the
// lowest slot.
func (s *Scheduler) evictOne(gpuHigh bool) {
	var victim *pending
	for slot, p := range s.slots {
		if p == nil || !s.sess.IsActive(slot) || s.sess.SlotQuantizedKV(slot) {
			continue
		}
		if victim == nil || p.produced < victim.produced {
			victim = p
		}
	}
	if victim == nil || s.sess.NumActive() < 2 {
		if gpuHigh {
			s.spillLargest()
		}
		return
	}
	resume := make([]int, 0, len(victim.req.Prompt)+victim.produced)
	resume = append(resume, victim.req.Prompt...)
	resume = append(resume, victim.stream.snapshot()...)
	s.release(victim)
	victim.resumePrompt = resume
	s.mu.Lock()
	s.queue.pushFront(victim)
	s.mu.Unlock()
	s.eng.Stats().RecordEviction()
}

// publishPressure refreshes the mu-guarded snapshot Submit and Health read.
func (s *Scheduler) publishPressure(gpuFrac, hostFrac float64) {
	// Every occupied slot owes its unproduced budget: a request resuming
	// after eviction has already delivered the tokens its resume prompt
	// re-prefills. Prefilling slots also owe the remaining chunks of their
	// prefill.
	var remaining int64
	var occupied int
	var chunkDrain time.Duration
	for slot, p := range s.slots {
		if p == nil {
			continue
		}
		occupied++
		remaining += int64(p.req.MaxNewTokens - p.produced)
		if s.sess.IsActive(slot) {
			continue
		}
		done, total := s.sess.PrefillProgress(slot)
		chunkDrain += s.prefillCost.PredictChunked(total-done, s.cfg.ChunkTokens)
	}
	occ := s.sess.NumActive()
	var predicted int64
	if occupied > 0 {
		predicted = s.adm.PeakBytes(s.batchKV(nil))
	}
	drain := s.cost.PredictDrain(remaining, occ)
	// Fold the queued prefill backlog into the drain estimate at *suffix*
	// cost: a queue full of cached-prefix requests drains far faster than
	// its raw prompt lengths suggest, and Retry-After should say so.
	if s.prefillCost.Ready() {
		s.mu.Lock()
		queued := s.queue.snapshot()
		s.mu.Unlock()
		for _, q := range queued {
			drain += s.prefillCost.PredictChunked(s.suffixTokens(q), s.cfg.ChunkTokens)
		}
		drain += chunkDrain
	}
	tpotNext := s.cost.PredictTPOT(occ + 1)
	tpotNow := s.cost.PredictTPOT(occ)
	prefillReady := s.prefillCost.Ready()
	prefillFixed, prefillPerT := s.prefillCost.Coefficients()
	s.mu.Lock()
	s.press.level = s.level
	s.press.gpuFrac = gpuFrac
	s.press.hostFrac = hostFrac
	s.press.predictedPeak = predicted
	s.press.drain = drain
	s.press.tpotNext = tpotNext
	s.press.tpotNow = tpotNow
	s.press.prefillReady = prefillReady
	s.press.prefillFixed = prefillFixed
	s.press.prefillPerT = prefillPerT
	s.mu.Unlock()
}
