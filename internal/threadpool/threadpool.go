// Package threadpool provides the execution substrate that LM-Offload's
// parallelism control drives: a fixed-size worker pool with data-parallel
// ParallelFor (intra-op parallelism) and an inter-op scheduler that bounds how
// many operations co-run and how many workers each one receives.
//
// The pool mirrors the PyTorch model described in §4 of the paper:
// torch.set_num_threads controls intra-op width, and
// torch.set_num_interop_threads controls how many operators execute
// concurrently. Here both are explicit per call so the tuner can explore the
// space without global state.
package threadpool

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a pool worker. Without recovery a
// panic in a worker goroutine kills the whole process; the pool instead
// captures the first one and rethrows it on the *submitting* goroutine
// (ParallelFor/ParallelRange) or returns it as an error (inter-op
// scheduler), so the submitter can recover and degrade instead of crashing.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Op names the operation, when known.
	Op string
	// Stack is the worker's stack at the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("threadpool: panic in op %q: %v", e.Op, e.Value)
	}
	return fmt.Sprintf("threadpool: worker panic: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. an injected
// fault), so errors.Is/As see through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicCatcher records the first panic recovered across a set of workers.
type panicCatcher struct {
	mu sync.Mutex
	pe *PanicError
}

// capture must be deferred inside the worker goroutine.
func (c *panicCatcher) capture(op string) {
	if r := recover(); r != nil {
		c.mu.Lock()
		if c.pe == nil {
			c.pe = &PanicError{Value: r, Op: op, Stack: debug.Stack()}
		}
		c.mu.Unlock()
	}
}

// rethrow re-panics the captured panic, if any, on the caller's goroutine.
func (c *panicCatcher) rethrow() {
	if c.pe != nil {
		panic(c.pe)
	}
}

// err returns the captured panic as an error, or nil.
func (c *panicCatcher) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pe == nil {
		return nil
	}
	return c.pe
}

// Pool is a bounded set of reusable workers. The zero value is not usable;
// construct with New.
type Pool struct {
	size int
	sem  chan struct{}
}

// New creates a pool with the given number of workers. Size must be positive.
func New(size int) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("threadpool: pool size must be positive, got %d", size)
	}
	return &Pool{size: size, sem: make(chan struct{}, size)}, nil
}

// MustNew is New for static configurations that cannot fail.
func MustNew(size int) *Pool {
	p, err := New(size)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// acquire blocks until a worker slot is free.
func (p *Pool) acquire() { p.sem <- struct{}{} }

// release frees a worker slot.
func (p *Pool) release() { <-p.sem }

// ParallelFor executes fn(i) for i in [0, n) using at most `width` workers
// from the pool, partitioning the index space into contiguous chunks (one per
// worker) to preserve cache locality — the same reason the paper bundles
// small operators. width is clamped to [1, pool size] and to n.
//
// A panic in fn is recovered from the worker goroutine and rethrown as a
// *PanicError on the calling goroutine after all workers finish, so the
// submitter can recover it (an unrecovered goroutine panic would abort the
// process).
func (p *Pool) ParallelFor(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width < 1 {
		width = 1
	}
	if width > p.size {
		width = p.size
	}
	if width > n {
		width = n
	}
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var catcher panicCatcher
	chunk := (n + width - 1) / width
	for w := 0; w < width; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.acquire()
		go func(lo, hi int) {
			defer wg.Done()
			defer p.release()
			defer catcher.capture("")
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	catcher.rethrow()
}

// ParallelRange executes fn(lo, hi) over contiguous sub-ranges of [0, n),
// letting the callee iterate its own chunk (cheaper than per-index closures
// for tight numeric kernels). Worker panics are rethrown on the calling
// goroutine as *PanicError, as in ParallelFor.
func (p *Pool) ParallelRange(n, width int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if width < 1 {
		width = 1
	}
	if width > p.size {
		width = p.size
	}
	if width > n {
		width = n
	}
	if width == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	var catcher panicCatcher
	chunk := (n + width - 1) / width
	for w := 0; w < width; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.acquire()
		go func(lo, hi int) {
			defer wg.Done()
			defer p.release()
			defer catcher.capture("")
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	catcher.rethrow()
}

// Op is a unit of work submitted to the inter-op scheduler. Width is the
// intra-op parallelism the operation should run with; Run receives the pool
// and that width.
type Op struct {
	Name  string
	Width int
	Run   func(p *Pool, width int)
}

// InterOpScheduler bounds how many Ops execute concurrently, independent of
// how many workers each Op consumes, mirroring inter-op parallelism.
type InterOpScheduler struct {
	pool    *Pool
	slots   chan struct{}
	wg      sync.WaitGroup
	catcher panicCatcher
}

// NewInterOp creates a scheduler over pool that co-runs at most maxConcurrent
// operations.
func NewInterOp(pool *Pool, maxConcurrent int) (*InterOpScheduler, error) {
	if maxConcurrent <= 0 {
		return nil, fmt.Errorf("threadpool: inter-op concurrency must be positive, got %d", maxConcurrent)
	}
	return &InterOpScheduler{pool: pool, slots: make(chan struct{}, maxConcurrent)}, nil
}

// Submit enqueues op for asynchronous execution, blocking only while all
// inter-op slots are busy. A panic inside the op is recovered and surfaced
// as an error from Wait instead of killing the process.
func (s *InterOpScheduler) Submit(op Op) {
	s.slots <- struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.slots }()
		defer s.catcher.capture(op.Name)
		op.Run(s.pool, op.Width)
	}()
}

// Wait blocks until every submitted operation has finished and returns the
// first recovered worker panic as a *PanicError (nil when every op
// completed normally).
func (s *InterOpScheduler) Wait() error {
	s.wg.Wait()
	return s.catcher.err()
}
