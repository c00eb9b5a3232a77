package runtime

import (
	"context"
	"fmt"
	"time"
)

// ExecPolicy is the numerics-preserving subset of Policy that the online
// adapt loop may hot-swap at a step boundary: thread widths, prefetch, and
// the step deadline. Fields that change what is computed or how tensors are
// stored (quantization, residency, attention/activation placement, GPU
// batching) are deliberately excluded — swapping those mid-stream would
// change a live slot's storage mode or its served tokens, and the serving
// layer's differential tests require token-exactness across a swap.
type ExecPolicy struct {
	// IntraOp is the worker width for tensor operators.
	IntraOp int
	// InterOp co-runs independent attention chunks within a GPU batch.
	InterOp int
	// Prefetch overlaps the next layer's weight load with compute.
	Prefetch bool
	// StepTimeout bounds each generation step (zero disables the deadline).
	StepTimeout time.Duration
}

// Validate reports malformed exec policies.
func (p ExecPolicy) Validate() error {
	if p.IntraOp < 1 {
		return fmt.Errorf("runtime: exec-policy intra-op width must be >= 1, got %d", p.IntraOp)
	}
	if p.InterOp < 0 {
		return fmt.Errorf("runtime: exec-policy inter-op parallelism must be >= 0, got %d", p.InterOp)
	}
	if p.StepTimeout < 0 {
		return fmt.Errorf("runtime: exec-policy step timeout must be >= 0, got %v", p.StepTimeout)
	}
	return nil
}

// ExecPolicy returns the swappable subset of the engine's current policy.
func (e *Engine) ExecPolicy() ExecPolicy {
	return ExecPolicy{
		IntraOp:     e.policy.IntraOp,
		InterOp:     e.policy.InterOp,
		Prefetch:    e.policy.Prefetch,
		StepTimeout: e.policy.StepTimeout,
	}
}

// ApplyExecPolicy installs the swappable policy fields. It must be called
// from the goroutine that steps the engine's sessions, between steps — the
// serving scheduler applies pending swaps at the top of its loop, which is a
// step boundary by construction. The engine reads these fields afresh each
// step, so the next step runs entirely under the new setting; no step ever
// observes a mix.
func (e *Engine) ApplyExecPolicy(p ExecPolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e.policy.IntraOp = p.IntraOp
	e.policy.InterOp = p.InterOp
	e.policy.Prefetch = p.Prefetch
	e.policy.StepTimeout = p.StepTimeout
	// The weight store dequantizes with its own cached width; keep it in
	// lockstep with the compute operators.
	e.weights.UsePool(e.pool, p.IntraOp)
	return nil
}

// driftStall injects the fault injector's current drift slowdown for an
// operation that took `elapsed` at real speed: the machine under a drift
// factor f behaves as if every compute window were f times longer. The stall
// aborts early on context cancellation (the completed work is still valid;
// callers return their result regardless).
func (e *Engine) driftStall(ctx context.Context, elapsed time.Duration) {
	d := e.faults.DriftDelay(elapsed)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
