// Package serve is the online serving layer on top of the offloading
// engine: a bounded admission queue feeding a continuous-batching scheduler
// that joins requests into free KV slots at decode-step boundaries, streams
// tokens per request, and retires sequences on EOS, max-tokens, cancellation,
// or deadline expiry. Because every row's arithmetic in the engine is
// independent of the other rows in its batch, every request's tokens are
// bit-identical to a dedicated offline run — the package's differential
// tests pin that invariant down, faults included.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/quant"
)

// Admission and lifecycle errors surfaced by Submit and the streams.
var (
	// ErrQueueFull rejects a request when the admission queue is at capacity
	// — the backpressure signal load balancers retry against.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("serve: scheduler closed")
)

// LadderKV returns the fixed quantization the pressure ladder's first rung
// applies to newly admitted slots. Its group size must divide the model's
// hidden dimension (checked at New) so quantized slots stay token-exact.
func LadderKV() quant.Config { return quant.Config{Bits: 4, GroupSize: 32} }

// footprintSlack scales admission footprint estimates so transient
// double-buffering during retries stays inside the estimate.
const footprintSlack = 1.15

// Config bounds the scheduler: batch width, queue depth, and per-request
// limits every submission is validated against.
type Config struct {
	// Slots is the maximum number of concurrently decoding sequences (the
	// session's KV slot count).
	Slots int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull rather than buffering unboundedly.
	QueueDepth int
	// MaxPromptLen rejects oversize prompts at admission.
	MaxPromptLen int
	// MaxNewTokens caps a request's generation budget; DefaultNewTokens is
	// applied when a request leaves it zero.
	MaxNewTokens     int
	DefaultNewTokens int
	// EOS is the token ID that terminates a stream early (emitted, then the
	// slot retires). Negative disables EOS detection.
	EOS int
	// Vocab rejects prompt tokens outside [0, Vocab) — the engine's Embed
	// panics on them, so they must never reach a slot.
	Vocab int

	// ChunkTokens enables chunked prefill: a prompt longer than this many
	// tokens is admitted incrementally, one bounded chunk between decode
	// steps, so a long prefill never stalls the live batch for more than one
	// chunk's cost (the TPOT-spike bound). The chunk-sized work items replace
	// the all-or-nothing prefill-cost deferral gate. Zero disables chunking
	// (monolithic admission, PR 2 behavior). Served tokens are bit-identical
	// either way.
	ChunkTokens int

	// Overload protection, guided by the performance model: footprint
	// estimates gate admission (structured 429s with Retry-After), the
	// KV-pressure ladder sheds memory before the arena OOMs, and the health
	// circuit breaker trips to shedding under sustained faults.
	//
	// ArenaHighWater and ArenaLowWater are fractions of the arena's KV
	// headroom (capacity minus the weight working set). Predicted pressure
	// above the high watermark stops admissions and escalates the ladder;
	// hysteresis de-escalates only after HealthyStreak evaluations below the
	// low watermark.
	ArenaHighWater float64
	ArenaLowWater  float64
	// TPOTBudget rejects admissions whose predicted time-per-output-token at
	// the resulting occupancy exceeds the budget. Zero disables the check.
	TPOTBudget time.Duration
	// HostKVBudget bounds the session's host-side KV bytes; pressure against
	// it escalates the ladder toward eviction. Zero is unlimited.
	HostKVBudget int64
	// HealthyStreak is how many consecutive healthy evaluations de-escalate
	// the ladder and the circuit breaker by one level.
	HealthyStreak int

	// PrefixCacheBytes budgets the shared-prefix KV cache: admissions seed
	// their slot from the longest cached prompt prefix and prefill only the
	// suffix, with served tokens staying byte-identical to a cold prefill.
	// Zero disables reuse. The cache is host memory, charged against
	// HostKVBudget's pressure accounting when that is set.
	PrefixCacheBytes int64
	// PrefixBlockTokens is the prefix cache's block granularity; zero takes
	// runtime.DefaultPrefixBlockTokens.
	PrefixBlockTokens int

	// Tenants enables multi-tenant fair-share scheduling: each entry gets its
	// own bounded admission queue, an active-slot quota, and a weighted
	// round-robin share of admissions. Requests with an empty or unknown
	// tenant bill to the reserved DefaultTenant. Nil/empty keeps the
	// single-tenant FIFO.
	Tenants map[string]TenantConfig

	// LatencySampleCap overrides the TTFT/TPOT sample-ring capacity backing
	// ServeSummary's quantiles (zero keeps the runtime default). Long
	// benchmark cells set it so late samples don't displace early ones from
	// the window the quantiles are computed over.
	LatencySampleCap int

	// EstObserver, when set, receives (predicted, actual) pairs for the
	// scheduler's inline estimators — StepCost TPOT at each decode step and
	// fitted PrefillCost at each admission — letting harnesses score q-error
	// without touching loop-owned models. Must be safe for concurrent use.
	EstObserver perfmodel.EstObserver
}

// DefaultConfig returns serving limits sized for the functional models.
func DefaultConfig(vocab int) Config {
	return Config{
		Slots:            4,
		QueueDepth:       64,
		MaxPromptLen:     512,
		MaxNewTokens:     256,
		DefaultNewTokens: 32,
		EOS:              -1,
		Vocab:            vocab,
		ArenaHighWater:   0.85,
		ArenaLowWater:    0.65,
		HealthyStreak:    3,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("serve: slots must be positive, got %d", c.Slots)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("serve: queue depth must be positive, got %d", c.QueueDepth)
	}
	if c.MaxPromptLen <= 0 {
		return fmt.Errorf("serve: max prompt length must be positive, got %d", c.MaxPromptLen)
	}
	if c.MaxNewTokens <= 0 {
		return fmt.Errorf("serve: max new tokens must be positive, got %d", c.MaxNewTokens)
	}
	if c.DefaultNewTokens <= 0 || c.DefaultNewTokens > c.MaxNewTokens {
		return fmt.Errorf("serve: default new tokens %d outside (0, %d]", c.DefaultNewTokens, c.MaxNewTokens)
	}
	if c.Vocab <= 0 {
		return fmt.Errorf("serve: vocab must be positive, got %d", c.Vocab)
	}
	if c.ChunkTokens < 0 {
		return fmt.Errorf("serve: negative chunk tokens %d", c.ChunkTokens)
	}
	if !(c.ArenaLowWater > 0 && c.ArenaLowWater < c.ArenaHighWater && c.ArenaHighWater <= 1) {
		return fmt.Errorf("serve: watermarks must satisfy 0 < low (%g) < high (%g) <= 1",
			c.ArenaLowWater, c.ArenaHighWater)
	}
	if c.TPOTBudget < 0 {
		return fmt.Errorf("serve: negative TPOT budget %v", c.TPOTBudget)
	}
	if c.HostKVBudget < 0 {
		return fmt.Errorf("serve: negative host KV budget %d", c.HostKVBudget)
	}
	if c.HealthyStreak <= 0 {
		return fmt.Errorf("serve: healthy streak must be positive, got %d", c.HealthyStreak)
	}
	if c.PrefixCacheBytes < 0 {
		return fmt.Errorf("serve: negative prefix cache budget %d", c.PrefixCacheBytes)
	}
	if c.PrefixBlockTokens < 0 {
		return fmt.Errorf("serve: negative prefix block tokens %d", c.PrefixBlockTokens)
	}
	if c.LatencySampleCap < 0 {
		return fmt.Errorf("serve: negative latency sample cap %d", c.LatencySampleCap)
	}
	for name, tc := range c.Tenants {
		if name == "" {
			return fmt.Errorf("serve: tenant with empty name (use %q for the catch-all)", DefaultTenant)
		}
		if tc.Slots < 0 || tc.QueueDepth < 0 || tc.Weight < 0 {
			return fmt.Errorf("serve: tenant %s: slots/queue-depth/weight must be non-negative, got %d/%d/%d",
				name, tc.Slots, tc.QueueDepth, tc.Weight)
		}
	}
	return nil
}

// Request is one generation job: a prompt and its token budget.
type Request struct {
	Prompt []int
	// MaxNewTokens bounds the generated tokens (EOS may stop earlier).
	// Zero takes the config default.
	MaxNewTokens int
	// Tenant bills the request under a configured tenant for quota and
	// fair-share accounting. Empty (or unknown) maps to DefaultTenant;
	// ignored entirely when Config.Tenants is empty.
	Tenant string
}

// normalize applies defaults and validates the request against the limits.
// It returns the effective request.
func (c Config) normalize(req Request) (Request, error) {
	if req.MaxNewTokens == 0 {
		req.MaxNewTokens = c.DefaultNewTokens
	}
	if req.MaxNewTokens < 0 || req.MaxNewTokens > c.MaxNewTokens {
		return req, fmt.Errorf("serve: max_new_tokens %d outside [1, %d]", req.MaxNewTokens, c.MaxNewTokens)
	}
	if len(req.Prompt) == 0 {
		return req, fmt.Errorf("serve: empty prompt")
	}
	if len(req.Prompt) > c.MaxPromptLen {
		return req, fmt.Errorf("serve: prompt length %d exceeds limit %d", len(req.Prompt), c.MaxPromptLen)
	}
	for i, tok := range req.Prompt {
		if tok < 0 || tok >= c.Vocab {
			return req, fmt.Errorf("serve: prompt token %d at position %d outside vocab [0, %d)", tok, i, c.Vocab)
		}
	}
	return req, nil
}

// Stream delivers one request's tokens as they are generated. Tokens() is
// closed when the request finishes; Wait() blocks for completion and returns
// the full output. The token channel is buffered to the request's budget, so
// the scheduler never blocks on a slow consumer.
type Stream struct {
	ch   chan int
	done chan struct{}

	mu      sync.Mutex
	tokens  []int
	err     error
	kvQuant bool // slot stored its KV quantized (pressure ladder rung 1)
}

func newStream(budget int) *Stream {
	return &Stream{ch: make(chan int, budget), done: make(chan struct{})}
}

// Tokens returns the live token channel; it is closed on completion.
func (st *Stream) Tokens() <-chan int { return st.ch }

// Done is closed when the request finishes (successfully or not).
func (st *Stream) Done() <-chan struct{} { return st.done }

// Wait blocks until the request finishes and returns every generated token
// plus the terminal error (nil on EOS/max-tokens completion).
func (st *Stream) Wait() ([]int, error) {
	<-st.done
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.tokens...), st.err
}

// KVQuantized reports whether the request's KV was stored quantized (the
// pressure ladder's quantize-new-slots rung, or a store-wide QuantKV
// policy). Differential checks use it to pick the matching solo reference.
func (st *Stream) KVQuantized() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.kvQuant
}

// setKVQuant records the slot's storage mode at admission.
func (st *Stream) setKVQuant(q bool) {
	st.mu.Lock()
	st.kvQuant = q
	st.mu.Unlock()
}

// snapshot returns the tokens generated so far — the evict path's resume
// state (prompt + produced tokens re-prefill bit-identically).
func (st *Stream) snapshot() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.tokens...)
}

// push records and delivers one token. The channel send cannot block: at
// most MaxNewTokens tokens are ever pushed and the buffer holds all of them.
func (st *Stream) push(tok int) {
	st.mu.Lock()
	st.tokens = append(st.tokens, tok)
	st.mu.Unlock()
	st.ch <- tok
}

// finish seals the stream. It is called exactly once, by the scheduler loop.
func (st *Stream) finish(err error) {
	st.mu.Lock()
	st.err = err
	st.mu.Unlock()
	close(st.ch)
	close(st.done)
}

// admitQueue is the bounded FIFO admission queue. Invariants (fuzzed in
// FuzzAdmissionQueue): length never exceeds capacity, push fails exactly
// when full, and pop returns requests in arrival order.
type admitQueue struct {
	capacity int
	items    []*pending
}

// push enqueues p, reporting false when the queue is full.
func (q *admitQueue) push(p *pending) bool {
	if len(q.items) >= q.capacity {
		return false
	}
	q.items = append(q.items, p)
	return true
}

// pop dequeues the oldest request, or nil when empty.
func (q *admitQueue) pop() *pending {
	if len(q.items) == 0 {
		return nil
	}
	p := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return p
}

// peek returns the oldest request without dequeuing it, or nil when empty.
// The admission gate peeks before popping so a deferred request keeps its
// place at the head of the line.
func (q *admitQueue) peek() *pending {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// pushFront re-enqueues a request at the head of the line, exempt from the
// capacity bound: the evict path re-queues a request that was already
// admitted once, and dropping it to enforce capacity would turn a shed into
// a lost request.
func (q *admitQueue) pushFront(p *pending) {
	q.items = append([]*pending{p}, q.items...)
}

// remove deletes p by identity, reporting whether it was present.
func (q *admitQueue) remove(p *pending) bool {
	for i, it := range q.items {
		if it == p {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

func (q *admitQueue) len() int { return len(q.items) }
