package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/quant"
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

// promptLen returns the effective prompt length (resume prompt after evict).
func (p *pending) promptLen() int {
	if p.resumePrompt != nil {
		return len(p.resumePrompt)
	}
	return len(p.req.Prompt)
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
// With Config.AdmissionControl, the loop additionally closes the paper's
// performance model back onto serving: footprint estimates gate admission,
// a KV-pressure ladder (quantize new slots → spill → evict) sheds memory
// before the arena OOMs, and a circuit breaker walks
// healthy → degraded → shedding under sustained overload.
type Scheduler struct {
	eng   *runtime.Engine
	sess  *runtime.Session
	cfg   Config
	start time.Time

	// Admission-control machinery (zero-valued when disabled).
	adm         perfmodel.AdmissionModel
	kvHeadroom  int64 // arena capacity minus the weight working set
	cost        *perfmodel.StepCostModel
	prefillCost *perfmodel.PrefillCostModel
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
	// Multi-tenant accounting (populated only when cfg.Tenants is set):
	// active slots per tenant (the fair-share eligibility input) and the
	// lifetime per-tenant counters Metrics reports.
	tenantActive map[string]int
	tenantCounts map[string]*TenantMetrics

	wake chan struct{} // 1-buffered submit/close signal for the idle loop
	done chan struct{} // closed when the loop drains and exits

	// Loop-owned state (no locking needed): slot -> in-flight request,
	// pressure-ladder level, the de-escalation streak, and the decode-step
	// counter labelling step spans.
	running      map[int]*pending
	level        int
	healthyEvals int
	stepIdx      int
	// chunking maps slot -> request with a chunked prefill in flight
	// (Config.ChunkTokens > 0). These slots are occupied but not yet
	// decoding; the loop advances one chunk per iteration between decode
	// steps, so no step stalls for more than one chunk's cost.
	chunking map[int]*pending
}

// New builds a scheduler over the engine and starts its loop. The engine
// must be dedicated to this scheduler (sessions own the engine's arena and
// stats) and its fault injector, if any, wired beforehand. With admission
// control, the arena must leave positive KV headroom beyond the weight
// working set, and the ladder's quantization groups must align to the
// model's rows.
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
		running:      make(map[int]*pending),
		chunking:     make(map[int]*pending),
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
	s.prefillCost = &perfmodel.PrefillCostModel{}
	if cfg.AdmissionControl {
		s.adm = newAdmissionModel(eng, cfg)
		if err := s.adm.Validate(); err != nil {
			return nil, err
		}
		s.kvHeadroom = eng.ArenaCapacity() - s.adm.ResidentBase - int64(s.adm.WeightBuffers)*s.adm.LayerBytes
		if s.kvHeadroom <= 0 {
			return nil, fmt.Errorf("serve: arena capacity %d leaves no KV headroom beyond the weight working set (%d resident + %d buffered)",
				eng.ArenaCapacity(), s.adm.ResidentBase, int64(s.adm.WeightBuffers)*s.adm.LayerBytes)
		}
		if eng.ModelConfig().Hidden%cfg.LadderKV.GroupSize != 0 {
			return nil, fmt.Errorf("serve: ladder KV group size %d must divide the model hidden dimension %d",
				cfg.LadderKV.GroupSize, eng.ModelConfig().Hidden)
		}
		s.cost = &perfmodel.StepCostModel{}
		s.brk.needStreak = cfg.HealthyStreak
	}
	go s.loop()
	return s, nil
}

// Submit validates and enqueues a request, returning its token stream. The
// context governs the request's whole lifetime: cancellation or deadline
// expiry removes it from the queue or retires its slot at the next step
// boundary, with the stream finishing on ctx.Err(). Under admission control,
// overloaded states reject with a structured *OverloadError instead of
// queuing work the server cannot absorb.
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
	if s.cfg.AdmissionControl {
		if err := s.admitCheck(req); err != nil {
			s.eng.Stats().RecordOverloadRejection()
			s.bumpTenant(tenant, func(m *TenantMetrics) { m.Rejected++ })
			return nil, err
		}
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

// bumpTenant applies a counter update under the scheduler mutex (no-op in
// single-tenant mode).
func (s *Scheduler) bumpTenant(name string, f func(*TenantMetrics)) {
	if !s.cfg.fairShare() {
		return
	}
	s.mu.Lock()
	m := s.tenantCounts[name]
	if m == nil {
		m = &TenantMetrics{}
		s.tenantCounts[name] = m
	}
	f(m)
	s.mu.Unlock()
}

// tenantEligibleLocked is the fair-share dispatcher's quota check: a tenant
// may only take a slot while its active count is below its quota. Called by
// fairQueue.next with s.mu held.
func (s *Scheduler) tenantEligibleLocked(name string) bool {
	if !s.cfg.fairShare() {
		return true
	}
	_, tc := s.cfg.tenantConfig(name)
	if tc.Slots <= 0 {
		return false
	}
	return s.tenantActive[name] < tc.Slots
}

// admitCheck is the submit-side admission controller: it rejects against the
// breaker and the loop-published pressure snapshot. Per-request footprint
// gating against the watermarks happens in the loop (which defers instead of
// dropping); here only requests that could never fit, or that arrive while
// the server is already past its watermarks, are turned away.
func (s *Scheduler) admitCheck(req Request) error {
	if st := s.brk.current(); st == Shedding {
		s.mu.Lock()
		drain := s.press.drain
		s.mu.Unlock()
		return &OverloadError{Reason: "shedding", RetryAfter: drain, State: st}
	}
	if s.adm.ScaledKV(s.adm.SlotKVBytes(len(req.Prompt), req.MaxNewTokens)) > s.kvHeadroom {
		// No drain can ever make this request fit: its own final-length KV
		// exceeds the whole arena headroom. Permanent → HTTP 422, never 429.
		return &OverloadError{Reason: "never-fits", State: s.brk.current(), Permanent: true}
	}
	s.mu.Lock()
	view := s.press
	s.mu.Unlock()
	if view.gpuFrac >= s.cfg.ArenaHighWater || view.hostFrac >= s.cfg.ArenaHighWater {
		return &OverloadError{Reason: "arena-pressure", RetryAfter: view.drain, State: s.brk.current()}
	}
	if s.cfg.TPOTBudget > 0 && view.tpotNext > s.cfg.TPOTBudget {
		return &OverloadError{Reason: "tpot-budget", RetryAfter: view.drain, State: s.brk.current()}
	}
	return nil
}

// Health evaluates and returns the breaker state. Evaluating here (not just
// in the loop) lets an idle server walk back to healthy between polls.
func (s *Scheduler) Health() BreakerState {
	if !s.cfg.AdmissionControl {
		return Healthy
	}
	s.mu.Lock()
	view := s.press
	s.mu.Unlock()
	st, changed := s.brk.evaluate(s.signals(view.level, view.gpuFrac, view.hostFrac))
	if changed {
		s.eng.Stats().RecordBreakerTransition()
	}
	return st
}

// signals assembles the breaker inputs from the given pressure state plus
// the live fault and queue counters.
func (s *Scheduler) signals(level int, gpuFrac, hostFrac float64) breakerSignals {
	total := s.eng.Stats().TotalRetries()
	s.mu.Lock()
	faults := total > s.lastRetries
	s.lastRetries = total
	qlen := s.queue.len()
	s.mu.Unlock()
	return breakerSignals{
		faults:        faults,
		ladderHigh:    level >= 2,
		queueSwamped:  qlen >= s.cfg.QueueDepth,
		arenaCritical: level >= 3 && (gpuFrac >= s.cfg.ArenaHighWater || hostFrac >= s.cfg.ArenaHighWater),
	}
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

	// Overload protection (meaningful with Config.AdmissionControl).
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
		tenants = make(map[string]TenantMetrics, len(s.tenantCounts))
		for name, tm := range s.tenantCounts {
			snap := *tm
			snap.Queued = s.queue.depth(name)
			snap.Active = s.tenantActive[name]
			tenants[name] = snap
		}
		// Tenants with traffic counters appear above; configured-but-idle
		// tenants still show their (zero) occupancy.
		for name := range s.queue.tenants {
			if _, ok := tenants[name]; !ok {
				tenants[name] = TenantMetrics{Queued: s.queue.depth(name), Active: s.tenantActive[name]}
			}
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

// noteActive mirrors the loop-owned occupancy into the mu-guarded counters
// Metrics and the fair-share quota check read; p attributes the slot to its
// tenant.
func (s *Scheduler) noteActive(p *pending, delta int) {
	s.mu.Lock()
	s.active += delta
	if s.cfg.fairShare() {
		s.tenantActive[p.tenant] += delta
	}
	s.mu.Unlock()
}

// kick nudges an idle loop; the 1-buffered channel makes signals sticky so a
// submit racing the loop's idle check is never lost.
func (s *Scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler's only mutator of the session. Each iteration works
// one step boundary: manage memory pressure, retire cancelled slots, admit
// from the queue, then run one decode step over the active batch and deliver
// its tokens.
func (s *Scheduler) loop() {
	defer close(s.done)
	defer s.lifeCancel()
	for {
		s.applyPendingSwap()
		s.retireCancelled()
		if s.cfg.AdmissionControl {
			s.managePressure()
		}
		s.admit()
		s.advanceChunk()
		if s.sess.NumActive() == 0 {
			s.mu.Lock()
			idle := s.queue.len() == 0 && len(s.chunking) == 0
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

// retireCancelled frees the slots of requests whose context ended, so a
// cancelled request stops consuming decode steps at the next boundary. A
// cancelled mid-prefill chunk abandons its partial chunks the same way; the
// prefix blocks its completed chunks committed stay cached for a retry.
func (s *Scheduler) retireCancelled() {
	for slot, p := range s.running {
		if err := p.ctx.Err(); err != nil {
			s.sess.Retire(slot)
			delete(s.running, slot)
			s.noteActive(p, -1)
			s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, slot))
			s.finishFailed(p, err)
		}
	}
	for _, p := range s.chunking {
		if err := p.ctx.Err(); err != nil {
			s.abandonChunked(p, err)
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
	st, changed := s.brk.evaluate(s.signals(s.level, gpuFrac, hostFrac))
	_ = st
	if changed {
		s.eng.Stats().RecordBreakerTransition()
	}
	s.publishPressure(gpuFrac, hostFrac)
}

// pressureFractions measures current pressure: the largest staged slot's
// slack-scaled bytes over the KV headroom, and host KV bytes over the host
// budget (zero when unbudgeted).
func (s *Scheduler) pressureFractions() (gpuFrac, hostFrac float64) {
	var maxStaged int64
	for slot := range s.running {
		if b := s.sess.StagedKVBytes(slot); b > maxStaged {
			maxStaged = b
		}
	}
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
		s.sess.SetQuantizeNewSlots(true, s.cfg.LadderKV)
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

// spillLargest moves the biggest staged slot's KV to the host cache (rung
// 2): its attention runs on the CPU from now on and its staging pressure
// drops to zero, exactness preserved.
func (s *Scheduler) spillLargest() {
	victim, best := -1, int64(0)
	for slot := range s.running {
		if b := s.sess.StagedKVBytes(slot); b > best {
			victim, best = slot, b
		}
	}
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
// re-admitted immediately), so eviction needs at least two.
func (s *Scheduler) evictOne(gpuHigh bool) {
	var victim *pending
	for _, p := range s.running {
		if s.sess.SlotQuantizedKV(p.slot) {
			continue
		}
		if victim == nil || p.produced < victim.produced {
			victim = p
		}
	}
	if victim == nil || len(s.running) < 2 {
		if gpuHigh {
			s.spillLargest()
		}
		return
	}
	resume := make([]int, 0, len(victim.req.Prompt)+victim.produced)
	resume = append(resume, victim.req.Prompt...)
	resume = append(resume, victim.stream.snapshot()...)
	s.sess.Retire(victim.slot)
	delete(s.running, victim.slot)
	s.noteActive(victim, -1)
	s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, victim.slot))
	victim.resumePrompt = resume
	s.mu.Lock()
	s.queue.pushFront(victim)
	s.mu.Unlock()
	s.eng.Stats().RecordEviction()
}

// publishPressure refreshes the mu-guarded snapshot Submit and Health read.
func (s *Scheduler) publishPressure(gpuFrac, hostFrac float64) {
	var maxKV, remaining int64
	for _, p := range s.running {
		pl, nt := p.finalKVTokens()
		if kv := s.adm.SlotKVBytes(pl, nt); kv > maxKV {
			maxKV = kv
		}
		remaining += int64(p.req.MaxNewTokens - p.produced)
	}
	for _, p := range s.chunking {
		pl, nt := p.finalKVTokens()
		if kv := s.adm.SlotKVBytes(pl, nt); kv > maxKV {
			maxKV = kv
		}
		remaining += int64(p.req.MaxNewTokens)
	}
	occ := len(s.running)
	var predicted int64
	if occ+len(s.chunking) > 0 {
		predicted = s.adm.PeakBytes(maxKV)
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
		// In-flight chunked prefills still owe their remaining chunks.
		for slot := range s.chunking {
			done, total := s.sess.PrefillProgress(slot)
			drain += s.prefillCost.PredictChunked(total-done, s.cfg.ChunkTokens)
		}
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
	pl, nt := p.finalKVTokens()
	cand := s.adm.ScaledKV(s.adm.SlotKVBytes(pl, nt))
	if cand > s.kvHeadroom {
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
	newMax := cand
	for _, q := range s.running {
		qpl, qnt := q.finalKVTokens()
		if b := s.adm.ScaledKV(s.adm.SlotKVBytes(qpl, qnt)); b > newMax {
			newMax = b
		}
	}
	for _, q := range s.chunking {
		qpl, qnt := q.finalKVTokens()
		if b := s.adm.ScaledKV(s.adm.SlotKVBytes(qpl, qnt)); b > newMax {
			newMax = b
		}
	}
	if float64(newMax) > thr*float64(s.kvHeadroom) {
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
			!(s.cfg.ChunkTokens > 0 && p.promptLen() > s.cfg.ChunkTokens) {
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
// consuming a slot. Under admission control the dispatched candidate is
// gated against the watermarks first — deferred requests stay queued in
// place.
func (s *Scheduler) admit() {
	for s.sess.NumActive()+len(s.chunking) < s.cfg.Slots {
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
		if s.cfg.AdmissionControl {
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
		}
		s.takeQueued(p)
		slot := s.freeSlot()
		prompt := p.effectivePrompt()
		// queue_wait covers submission to the admission decision; an evicted
		// request's resume admissions are not re-counted (its wait is the
		// original one).
		if !p.admittedOnce {
			s.trace(xtrace.TaskQueueWait, p.submitted, xtrace.At(-1, -1, slot))
		}
		// The KV storage mode is sticky per request: a resumed request keeps
		// the mode of its first admission so its tokens stay exact against one
		// solo reference. Without admission control the ladder never engages.
		if s.cfg.AdmissionControl && !p.admittedOnce {
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
			p.slot = slot
			s.chunking[slot] = p
			s.noteActive(p, 1)
			continue
		}
		t0 := time.Now()
		tok, err := s.sess.AdmitKV(p.ctx, slot, prompt, p.kvQuant)
		dur := time.Since(t0)
		if err != nil {
			s.finishFailed(p, err)
			continue
		}
		p.slot = slot
		s.noteActive(p, 1)
		// The fit observes the tokens this admission actually prefilled — the
		// suffix beyond any prefix-cache seed.
		s.admitted(p, tok, t0, dur, len(prompt)-s.sess.SlotReusedTokens(slot))
	}
}

// admitted completes an admission whose prefill produced p's first token:
// the admission span covers the prefill from t0, the request joins the
// running batch, and the prefill's (tokens, dur) sample feeds the
// prefill-cost fit. The estimator observation uses the prediction as of
// *before* this sample lands in the fit.
func (s *Scheduler) admitted(p *pending, tok int, t0 time.Time, dur time.Duration, tokens int) {
	s.trace(xtrace.TaskAdmit, t0, xtrace.At(-1, -1, p.slot))
	now := time.Now()
	s.running[p.slot] = p
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
	if s.cfg.AdmissionControl {
		s.observePrefill(tokens, dur)
		s.recordEstimate(p)
	}
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
	var maxKV int64
	for _, q := range s.running {
		qpl, qnt := q.finalKVTokens()
		if kv := s.adm.SlotKVBytes(qpl, qnt); kv > maxKV {
			maxKV = kv
		}
	}
	for _, q := range s.chunking {
		qpl, qnt := q.finalKVTokens()
		if kv := s.adm.SlotKVBytes(qpl, qnt); kv > maxKV {
			maxKV = kv
		}
	}
	p.estimate = s.adm.PeakBytes(maxKV)
	s.mu.Lock()
	if p.estimate > s.press.maxPredictedPeak {
		s.press.maxPredictedPeak = p.estimate
	}
	s.mu.Unlock()
}

// freeSlot returns an inactive slot index; admit only calls it when one
// exists (NumActive + chunking < Slots). A slot with a chunked prefill in
// flight is occupied even though the session does not count it active yet.
func (s *Scheduler) freeSlot() int {
	for slot := 0; slot < s.cfg.Slots; slot++ {
		if !s.sess.IsActive(slot) && s.running[slot] == nil && s.chunking[slot] == nil {
			return slot
		}
	}
	panic("serve: no free slot despite NumActive < Slots")
}

// advanceChunk advances exactly one in-flight chunked prefill by one chunk —
// the oldest submission first, so chunked admissions complete in FIFO order.
// Running at most one chunk per loop iteration is what bounds a decode step's
// prefill exposure to ChunkTokens by construction. Chunk durations feed the
// prefill-cost fit (each chunk is one (tokens, duration) sample); the final
// chunk activates the slot and delivers the first token exactly as a
// monolithic admission would have.
func (s *Scheduler) advanceChunk() {
	if len(s.chunking) == 0 {
		return
	}
	var p *pending
	for _, q := range s.chunking {
		if p == nil || q.submitted.Before(p.submitted) {
			p = q
		}
	}
	prev, _ := s.sess.PrefillProgress(p.slot)
	t0 := time.Now()
	done, total, tok, err := s.sess.PrefillChunk(p.ctx, p.slot, s.cfg.ChunkTokens)
	dur := time.Since(t0)
	switch {
	case err != nil:
		s.abandonChunked(p, err)
	case done < total:
		if s.cfg.AdmissionControl {
			s.observePrefill(done-prev, dur)
		}
	default:
		delete(s.chunking, p.slot)
		s.admitted(p, tok, t0, dur, done-prev)
	}
}

// abandonChunked cancels p's in-flight chunked prefill, frees its slot, and
// finishes the request with err.
func (s *Scheduler) abandonChunked(p *pending, err error) {
	s.sess.CancelPrefill(p.slot)
	delete(s.chunking, p.slot)
	s.noteActive(p, -1)
	s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, p.slot))
	s.finishFailed(p, err)
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
		for slot, p := range s.running {
			s.sess.Retire(slot)
			delete(s.running, slot)
			s.noteActive(p, -1)
			s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, slot))
			p.stream.finish(err)
			s.eng.Stats().RecordCancellation()
			s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Canceled++ })
		}
		return
	}
	if s.cfg.AdmissionControl {
		// Score the TPOT prediction this step would have been quoted before
		// folding the measurement into the fit.
		if obs := s.cfg.EstObserver; obs != nil {
			if pred := s.cost.PredictTPOT(len(toks)); pred > 0 {
				obs.ObserveEstimate(perfmodel.EstTPOT, pred.Seconds(), stepDur.Seconds())
			}
		}
		s.cost.Observe(len(toks), stepDur)
	}
	s.mu.Lock()
	depth := s.queue.len()
	s.mu.Unlock()
	s.eng.Stats().RecordBatchStep(len(toks), depth)
	// One timestamp for the whole fan-out: tokens of the same step are
	// simultaneous, and per-token clock reads would smear delivery overhead
	// into later slots' TPOT gaps.
	now := time.Now()
	for _, st := range toks {
		if p := s.running[st.Slot]; p != nil {
			p.noteDecodeToken(now)
			s.deliver(p, st.Token)
		}
	}
}

// stepContext derives the batch step's context: child of the scheduler
// lifecycle, cancelled early once every running request's own context is
// done. The watcher goroutine waits on each request context in turn (order
// is irrelevant — all must be done) and exits promptly when the step
// finishes first.
func (s *Scheduler) stepContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(s.lifeCtx)
	if len(s.running) == 0 {
		return ctx, cancel
	}
	ctxs := make([]context.Context, 0, len(s.running))
	for _, p := range s.running {
		ctxs = append(ctxs, p.ctx)
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
		s.sess.Retire(p.slot)
		delete(s.running, p.slot)
		s.noteActive(p, -1)
		s.traceEvent(xtrace.TaskRetire, xtrace.At(-1, -1, p.slot))
		s.eng.Stats().RecordCompletion(p.tpot())
		s.bumpTenant(p.tenant, func(m *TenantMetrics) { m.Completed++ })
		// Finish last, so a caller woken by Wait already sees the
		// completion in Metrics.
		p.stream.finish(nil)
	}
}
