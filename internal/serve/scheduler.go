package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/xtrace"
)

// pending is one request's lifecycle record, owned by the scheduler loop
// once submitted.
type pending struct {
	req       Request
	ctx       context.Context
	stream    *Stream
	submitted time.Time
	// tenant is the resolved billing tenant (DefaultTenant for empty/unknown
	// tags; equal to req.Tenant only when that tenant is configured).
	tenant string

	slot     int
	produced int
	lastTok  time.Time

	// TPOT accounting: the sum and count of *decode* inter-token gaps only.
	// Tokens that arrive with an admission (the prefill's first token, and
	// every re-prefill token after an eviction resume) restart the window
	// without contributing a gap, so prefill latency and eviction dead time
	// never skew the decode-latency metric.
	tpotAccum time.Duration
	tpotGaps  int

	// Overload-protection state.
	admittedOnce bool  // TTFT/admission recorded; set on first successful admit
	kvQuant      bool  // sticky per-request KV storage mode (ladder rung 1)
	estimate     int64 // admission-time predicted peak arena bytes
	// prefillDeferrals counts suffix-cost gate deferrals, bounding how long
	// a long-cold-prefill head request can be held back (FIFO liveness).
	prefillDeferrals int
	// resumePrompt replaces req.Prompt after an eviction: the original
	// prompt plus every token already delivered, so re-prefill regenerates
	// the exact continuation (recompute-on-resume).
	resumePrompt []int
}

// effectivePrompt returns the tokens the next admission will prefill.
func (p *pending) effectivePrompt() []int {
	if p.resumePrompt != nil {
		return p.resumePrompt
	}
	return p.req.Prompt
}

// noteAdmitToken stamps a token delivered by an admission's prefill: it
// restarts the decode-gap window without recording a gap.
func (p *pending) noteAdmitToken(now time.Time) { p.lastTok = now }

// noteDecodeToken stamps a token delivered by a decode step, accumulating
// the gap since the previous token of this admission window.
func (p *pending) noteDecodeToken(now time.Time) {
	if !p.lastTok.IsZero() {
		p.tpotAccum += now.Sub(p.lastTok)
		p.tpotGaps++
	}
	p.lastTok = now
}

// tpot returns the request's mean decode inter-token gap (zero when every
// token came from prefills).
func (p *pending) tpot() time.Duration {
	if p.tpotGaps == 0 {
		return 0
	}
	return p.tpotAccum / time.Duration(p.tpotGaps)
}

// finalKVTokens is the slot's token count at completion: original prompt
// plus the full budget, invariant across evict/resume (produced tokens move
// from budget to prompt).
func (p *pending) finalKVTokens() (promptLen, newTokens int) {
	return len(p.req.Prompt), p.req.MaxNewTokens
}

// pressureView is the loop-published snapshot of overload state that Submit,
// Health, and Metrics read under the scheduler mutex.
type pressureView struct {
	level             int
	gpuFrac, hostFrac float64
	predictedPeak     int64 // current batch's predicted peak at final lengths
	maxPredictedPeak  int64 // high-water of admission-time estimates
	drain             time.Duration
	tpotNext          time.Duration // predicted TPOT if one more slot joins
	tpotNow           time.Duration // predicted TPOT at the current occupancy

	// Prefill-cost coefficients (seconds), published so routers can predict
	// a candidate admission's prefill stall without touching the loop-owned
	// PrefillCostModel from another goroutine.
	prefillReady              bool
	prefillFixed, prefillPerT float64
}

// Scheduler drives a continuous-batching session: submissions land in a
// bounded queue; a single loop goroutine admits them into free slots at
// decode-step boundaries, steps the shared batch, fans tokens out to the
// per-request streams, and retires finished or cancelled sequences so their
// slots recycle immediately.
//
// The loop also closes the paper's performance model back onto serving:
// footprint estimates gate admission, a KV-pressure ladder (quantize new
// slots → spill → evict) sheds memory before the arena OOMs, and a circuit
// breaker walks healthy → degraded → shedding under sustained overload.
type Scheduler struct {
	eng   *runtime.Engine
	sess  *runtime.Session
	cfg   Config
	start time.Time

	// Admission-control machinery.
	adm         perfmodel.AdmissionModel
	kvHeadroom  int64 // arena capacity minus the weight working set
	cost        perfmodel.StepCostModel
	prefillCost perfmodel.PrefillCostModel
	brk         breaker

	// prefixStore is the shared-prefix KV cache (nil when disabled).
	prefixStore *runtime.PrefixStore

	// lifeCtx is the scheduler's lifecycle context: batch steps derive from
	// it (never from context.Background()), so a hung step can be unwound
	// once every request it serves has been abandoned, and drain cannot be
	// wedged behind work nobody is waiting for.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu          sync.Mutex
	queue       *fairQueue
	closed      bool
	active      int // slots occupied, mirrored under mu for Metrics
	press       pressureView
	lastRetries int64
	// Hot-swap state (adaptswap.go): the pending-policy mailbox the loop
	// drains at step boundaries, the last-applied policy mirror readers see,
	// lifetime swap counters, and the adapt loop's stats closure.
	pendingSwap  *runtime.ExecPolicy
	curExec      runtime.ExecPolicy
	swapsApplied int64
	swapsRefused int64
	adaptStats   func() map[string]any
	// Tenant accounting: active slots per tenant (the fair-share eligibility
	// input; single-tenant mode counts its one implicit tenant) and the
	// lifetime per-tenant counters Metrics reports (fair-share mode only).
	tenantActive map[string]int
	tenantCounts map[string]*TenantMetrics

	wake chan struct{} // 1-buffered submit/close signal for the idle loop
	done chan struct{} // closed when the loop drains and exits

	// Loop-owned state (no locking needed): the slot table, the
	// pressure-ladder level, the de-escalation streak, and the decode-step
	// counter labelling step spans.
	//
	// slots[i] is the request occupying slot i, nil while the slot is free.
	// The session is the source of truth for an occupant's phase:
	// PrefillPending(i) while its chunked prefill is in flight (the loop
	// advances one chunk per iteration between decode steps), IsActive(i)
	// once it decodes. A slot leaves the table only through release.
	slots        []*pending
	level        int
	healthyEvals int
	stepIdx      int
}

// New builds a scheduler over the engine and starts its loop. The engine
// must be dedicated to this scheduler (sessions own the engine's arena and
// stats) and its fault injector, if any, wired beforehand. The arena must
// leave positive KV headroom beyond the weight working set, and the ladder's
// quantization groups must align to the model's rows.
func New(eng *runtime.Engine, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sess, err := eng.NewSession(cfg.Slots)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:          eng,
		sess:         sess,
		cfg:          cfg,
		start:        time.Now(),
		queue:        newFairQueue(cfg),
		wake:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		slots:        make([]*pending, cfg.Slots),
		tenantActive: make(map[string]int),
		tenantCounts: make(map[string]*TenantMetrics),
	}
	s.curExec = eng.ExecPolicy()
	if cfg.LatencySampleCap > 0 {
		eng.Stats().SetServeSampleCap(cfg.LatencySampleCap)
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	if cfg.PrefixCacheBytes > 0 {
		ps, err := runtime.NewPrefixStore(cfg.PrefixCacheBytes, cfg.PrefixBlockTokens,
			eng.ModelConfig().Layers, eng.ModelConfig().Hidden)
		if err != nil {
			return nil, err
		}
		sess.UsePrefixStore(ps)
		s.prefixStore = ps
	}
	s.adm = newAdmissionModel(eng)
	if err := s.adm.Validate(); err != nil {
		return nil, err
	}
	s.kvHeadroom = eng.ArenaCapacity() - s.adm.ResidentBase - int64(s.adm.WeightBuffers)*s.adm.LayerBytes
	if s.kvHeadroom <= 0 {
		return nil, fmt.Errorf("serve: arena capacity %d leaves no KV headroom beyond the weight working set (%d resident + %d buffered)",
			eng.ArenaCapacity(), s.adm.ResidentBase, int64(s.adm.WeightBuffers)*s.adm.LayerBytes)
	}
	if eng.ModelConfig().Hidden%LadderKV().GroupSize != 0 {
		return nil, fmt.Errorf("serve: ladder KV group size %d must divide the model hidden dimension %d",
			LadderKV().GroupSize, eng.ModelConfig().Hidden)
	}
	s.brk.needStreak = cfg.HealthyStreak
	go s.loop()
	return s, nil
}

// Submit validates and enqueues a request, returning its token stream. The
// context governs the request's whole lifetime: cancellation or deadline
// expiry removes it from the queue or retires its slot at the next step
// boundary, with the stream finishing on ctx.Err(). Overloaded states reject
// with a structured *OverloadError instead of queuing work the server cannot
// absorb.
func (s *Scheduler) Submit(ctx context.Context, req Request) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := s.cfg.normalize(req)
	if err != nil {
		s.eng.Stats().RecordRejection()
		return nil, err
	}
	tenant, tcfg := s.cfg.tenantConfig(req.Tenant)
	if s.cfg.fairShare() {
		s.bumpTenant(tenant, func(m *TenantMetrics) { m.Submitted++ })
		if tcfg.Slots == 0 {
			// An explicit zero-slot quota suspends the tenant: no amount of
			// waiting admits it, so the rejection is permanent (HTTP 422).
			s.bumpTenant(tenant, func(m *TenantMetrics) { m.Rejected++ })
			s.eng.Stats().RecordOverloadRejection()
			return nil, &OverloadError{Reason: "tenant-suspended", State: s.brk.current(), Permanent: true}
		}
	}
	if err := s.admitCheck(req); err != nil {
		s.eng.Stats().RecordOverloadRejection()
		s.bumpTenant(tenant, func(m *TenantMetrics) { m.Rejected++ })
		return nil, err
	}
	p := &pending{req: req, tenant: tenant, ctx: ctx, stream: newStream(req.MaxNewTokens), submitted: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.eng.Stats().RecordRejection()
		return nil, ErrClosed
	}
	if err := s.queue.push(p); err != nil {
		s.mu.Unlock()
		s.eng.Stats().RecordRejection()
		s.bumpTenant(tenant, func(m *TenantMetrics) { m.Rejected++ })
		return nil, err
	}
	s.mu.Unlock()
	s.kick()
	return p.stream, nil
}

// Close stops admission and waits for the queue and every in-flight request
// to drain. Queued requests still run to completion; callers wanting faster
// shutdown cancel their request contexts.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kick()
	<-s.done
}

// Metrics is a point-in-time view of the serving state, combining the
// scheduler's queue/slot occupancy with the engine's extended stats.
type Metrics struct {
	QueueDepth  int
	ActiveSlots int
	TotalSlots  int
	Uptime      time.Duration

	// TokensGenerated and TokensPerSec cover every token the engine produced
	// since the scheduler started (prefill first-tokens included).
	TokensGenerated int64
	TokensPerSec    float64

	Serve runtime.ServeSummary

	// Overload protection.
	Breaker            BreakerState
	BreakerTransitions int64
	PressureLevel      int
	PredictedPeakBytes int64 // admission-time estimate high-water
	ArenaCapacity      int64
	ArenaPeak          int64
	// EstimateRatio is PredictedPeakBytes over the arena's actual peak — the
	// admission model's over-estimate factor (0 until something ran).
	EstimateRatio float64
	// PredictedTPOT is the step-cost model's latency prediction at the
	// current batch occupancy (0 while idle or before the fit is ready).
	PredictedTPOT time.Duration
	// TraceTasks is the per-task traced time since tracing was enabled (nil
	// while tracing is off) — the /stats view of the span aggregates.
	TraceTasks map[string]time.Duration

	// Shared-prefix cache (zero-valued when Config.PrefixCacheBytes is 0).
	// PrefixHitRate is hits over hits+misses; byte fields mirror the
	// store's arena accounting.
	PrefixHitRate       float64
	PrefixCacheBytes    int64
	PrefixCacheCapacity int64

	// PredictedDrain is the loop's current estimate of the time to drain the
	// running batch plus the queued prefill backlog — the number behind
	// Retry-After, exposed so harnesses can score it against measured drains.
	PredictedDrain time.Duration

	// Tenants holds the per-tenant accounting when fair-share scheduling is
	// on (nil otherwise), keyed by resolved tenant name.
	Tenants map[string]TenantMetrics

	// Hot-swap view: the exec policy currently applied to the engine, the
	// lifetime counts of swaps applied and refused at the breaker interlock,
	// and — when an adapt controller registered itself — its status snapshot.
	ExecPolicy   runtime.ExecPolicy
	SwapsApplied int64
	SwapsRefused int64
	Adapt        map[string]any
}

// TenantMetrics is one tenant's point-in-time serving view: current queue
// and slot occupancy plus lifetime request counters.
type TenantMetrics struct {
	Queued int `json:"queued"`
	Active int `json:"active"`

	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
}

// Metrics snapshots the serving metrics.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	depth := s.queue.len()
	active := s.active
	view := s.press
	curExec := s.curExec
	swapsApplied, swapsRefused := s.swapsApplied, s.swapsRefused
	adaptFn := s.adaptStats
	var tenants map[string]TenantMetrics
	if s.cfg.fairShare() {
		// Every tenant a request can bill to is configured in the queue, so
		// idle tenants show their (zero) occupancy too.
		tenants = make(map[string]TenantMetrics, len(s.queue.tenants))
		for name := range s.queue.tenants {
			var snap TenantMetrics
			if tm := s.tenantCounts[name]; tm != nil {
				snap = *tm
			}
			snap.Queued = s.queue.depth(name)
			snap.Active = s.tenantActive[name]
			tenants[name] = snap
		}
	}
	s.mu.Unlock()
	st := s.eng.Stats()
	summary := st.ServeSummary()
	uptime := time.Since(s.start)
	tokens := st.TokensGeneratedCount()
	m := Metrics{
		QueueDepth:         depth,
		ActiveSlots:        active,
		TotalSlots:         s.cfg.Slots,
		Uptime:             uptime,
		TokensGenerated:    tokens,
		Serve:              summary,
		Breaker:            s.brk.current(),
		BreakerTransitions: s.brk.transitionCount(),
		PressureLevel:      view.level,
		PredictedPeakBytes: view.maxPredictedPeak,
		ArenaCapacity:      s.eng.ArenaCapacity(),
		ArenaPeak:          s.eng.ArenaPeak(),
		PredictedTPOT:      view.tpotNow,
		PredictedDrain:     view.drain,
		Tenants:            tenants,
		ExecPolicy:         curExec,
		SwapsApplied:       swapsApplied,
		SwapsRefused:       swapsRefused,
	}
	if adaptFn != nil {
		m.Adapt = adaptFn()
	}
	if s.prefixStore != nil {
		ps := s.prefixStore.Stats()
		m.PrefixCacheBytes = ps.UsedBytes
		m.PrefixCacheCapacity = ps.CapacityBytes
		if total := summary.PrefixHits + summary.PrefixMisses; total > 0 {
			m.PrefixHitRate = float64(summary.PrefixHits) / float64(total)
		}
	}
	if rec := s.eng.Tracer(); rec != nil {
		agg := xtrace.Aggregate(rec.Spans())
		tt := make(map[string]time.Duration, len(agg.Tasks))
		for name, ts := range agg.Tasks {
			tt[name] = ts.Total
		}
		m.TraceTasks = tt
	}
	if uptime > 0 {
		m.TokensPerSec = float64(tokens) / uptime.Seconds()
	}
	if m.ArenaPeak > 0 && m.PredictedPeakBytes > 0 {
		m.EstimateRatio = float64(m.PredictedPeakBytes) / float64(m.ArenaPeak)
	}
	return m
}

// trace records one serving-lifecycle span (queue_wait, admit, step) into
// the engine's span recorder on the serve lane. Nil-safe and ~free while
// tracing is off.
func (s *Scheduler) trace(name string, t0 time.Time, l xtrace.Labels) {
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(name, xtrace.LaneServe, t0, time.Since(t0), l)
	}
}

// traceEvent records an instantaneous serving marker (retire).
func (s *Scheduler) traceEvent(name string, l xtrace.Labels) {
	if rec := s.eng.Tracer(); rec != nil {
		rec.Event(name, xtrace.LaneServe, time.Now(), l)
	}
}

// kick nudges an idle loop; the 1-buffered channel makes signals sticky so a
// submit racing the loop's idle check is never lost.
func (s *Scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler's only mutator of the session and the slot table.
// Each iteration works one step boundary: apply a pending policy swap,
// retire cancelled slots, manage memory pressure (pressure.go), admit from
// the queue and advance one chunked prefill (admission.go), then run one
// decode step over the active batch and deliver its tokens (step.go).
func (s *Scheduler) loop() {
	defer close(s.done)
	defer s.lifeCancel()
	for {
		s.checkSlots()
		s.applyPendingSwap()
		s.retireCancelled()
		s.managePressure()
		s.admit()
		s.advanceChunk()
		if s.sess.NumActive() == 0 {
			// Nothing decodes, so any occupied slot is a chunked prefill
			// still in flight.
			prefilling := s.occupied() > 0
			s.mu.Lock()
			idle := s.queue.len() == 0 && !prefilling
			finished := idle && s.closed
			s.mu.Unlock()
			if finished {
				return
			}
			if idle {
				<-s.wake
			}
			continue
		}
		s.stepBatch()
	}
}
