package serve

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/xtrace"
)

// This file is the scheduler's side of online policy hot-swapping: an adapt
// controller (internal/adapt) hands it a candidate runtime.ExecPolicy via
// RequestSwap, and the loop installs it at the top of its next iteration — a
// step boundary by construction, so no decode step ever runs under a mix of
// old and new settings and served tokens are unchanged (the swappable fields
// are numerics-free by design; see runtime.ExecPolicy).
//
// The breaker interlock is enforced twice: once at request time, so callers
// learn immediately that the server is degraded, and again at apply time,
// because the breaker may have tripped between the request and the next step
// boundary. A swap refused at apply time is dropped, not queued — the adapt
// controller observes the refusal as a confirmation timeout and retries under
// its own cooldown discipline.

// ErrSwapUnhealthy is returned (wrapped) when a swap is refused because the
// circuit breaker is not Healthy.
var ErrSwapUnhealthy = fmt.Errorf("serve: exec-policy swap refused: breaker not healthy")

// RequestSwap asks the scheduler to install p at its next step boundary. It
// validates eagerly and refuses while the scheduler is closed or the breaker
// is anything but Healthy — swapping execution strategy on a degraded or
// shedding server would confound the breaker's own recovery signal. Only one
// swap can be pending; a second request overwrites the first (latest wins).
// The application itself is asynchronous: poll ExecPolicy to confirm.
func (s *Scheduler) RequestSwap(p runtime.ExecPolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if s.brk.current() != Healthy {
		s.mu.Lock()
		s.swapsRefused++
		s.mu.Unlock()
		return ErrSwapUnhealthy
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	cp := p
	s.pendingSwap = &cp
	s.mu.Unlock()
	s.kick()
	return nil
}

// applyPendingSwap drains the swap mailbox from the loop goroutine. Called at
// the top of every loop iteration — a step boundary — so the engine's policy
// fields are never written while a step reads them.
func (s *Scheduler) applyPendingSwap() {
	s.mu.Lock()
	p := s.pendingSwap
	s.pendingSwap = nil
	s.mu.Unlock()
	if p == nil {
		return
	}
	// Re-check the interlock: the breaker may have degraded since the request
	// was accepted. Refusals drop the swap; the adapt controller re-requests.
	if s.brk.current() != Healthy {
		s.mu.Lock()
		s.swapsRefused++
		s.mu.Unlock()
		return
	}
	if err := s.eng.ApplyExecPolicy(*p); err != nil {
		// Validated at request time, so this is unreachable short of a
		// concurrent engine misconfiguration; count it as a refusal.
		s.mu.Lock()
		s.swapsRefused++
		s.mu.Unlock()
		return
	}
	s.traceEvent(xtrace.TaskPolicySwap, xtrace.At(s.stepIdx, -1, -1))
	s.mu.Lock()
	s.curExec = *p
	s.swapsApplied++
	s.mu.Unlock()
}

// ExecPolicy returns the exec policy most recently applied to the engine.
// Safe from any goroutine (it reads the scheduler's mirror, not the engine's
// loop-owned fields).
func (s *Scheduler) ExecPolicy() runtime.ExecPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curExec
}

// Stable reports whether the serving plant is in a state where policy
// experiments are safe: breaker Healthy and not shutting down. The adapt
// controller treats false as a hard interlock — no swap requests, canaries
// paused.
func (s *Scheduler) Stable() bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return !closed && s.brk.current() == Healthy
}

// SetAdaptStatsFunc registers a closure that snapshots the adapt controller's
// status for Metrics / the /stats endpoint. Pass nil to unregister. The
// closure must be safe to call from any goroutine.
func (s *Scheduler) SetAdaptStatsFunc(f func() map[string]any) {
	s.mu.Lock()
	s.adaptStats = f
	s.mu.Unlock()
}
