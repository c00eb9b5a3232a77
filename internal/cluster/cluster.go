package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/xtrace"
)

// TokenStream is the per-attempt stream surface the router consumes: a
// token channel that closes on completion and a Wait that reports the
// terminal error. *serve.Stream satisfies it; tests inject fakes.
type TokenStream interface {
	Tokens() <-chan int
	Wait() ([]int, error)
}

// Backend is one replica's serving surface as the router sees it. The live
// implementation wraps *serve.Scheduler; unit tests script fakes to exercise
// routing edge cases (slow first tokens, mid-stream death, crafted overload
// rejections) without real engines.
type Backend interface {
	Submit(ctx context.Context, req serve.Request) (TokenStream, error)
	Health() serve.BreakerState
	RouteSnapshot() serve.RouteSnapshot
	PrefixMatchTokens(prompt []int) int
}

// schedulerBackend adapts *serve.Scheduler's concrete stream type to the
// Backend interface.
type schedulerBackend struct{ s *serve.Scheduler }

func (b schedulerBackend) Submit(ctx context.Context, req serve.Request) (TokenStream, error) {
	st, err := b.s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return st, nil
}
func (b schedulerBackend) Health() serve.BreakerState         { return b.s.Health() }
func (b schedulerBackend) RouteSnapshot() serve.RouteSnapshot { return b.s.RouteSnapshot() }
func (b schedulerBackend) PrefixMatchTokens(prompt []int) int { return b.s.PrefixMatchTokens(prompt) }
func (b schedulerBackend) Metrics() serve.Metrics             { return b.s.Metrics() }
func (b schedulerBackend) Scheduler() *serve.Scheduler        { return b.s }

// Replica is one cluster member: a backend plus the cluster-level liveness
// flag and the per-replica fault injector the chaos harnesses drive.
type Replica struct {
	name string
	be   Backend
	inj  *faults.Injector

	mu       sync.Mutex
	down     bool
	inflight map[*attempt]context.CancelFunc
}

// NewReplica wraps a scheduler as a cluster member. inj may be nil; when
// set, the replica reports itself degraded while inj's fault window is open.
func NewReplica(name string, s *serve.Scheduler, inj *faults.Injector) *Replica {
	return &Replica{name: name, be: schedulerBackend{s}, inj: inj, inflight: map[*attempt]context.CancelFunc{}}
}

// NewReplicaBackend wraps an arbitrary backend (tests, remote shims).
func NewReplicaBackend(name string, be Backend, inj *faults.Injector) *Replica {
	return &Replica{name: name, be: be, inj: inj, inflight: map[*attempt]context.CancelFunc{}}
}

// Name returns the replica's display name.
func (r *Replica) Name() string { return r.name }

// register tracks an in-flight attempt so a kill can sever it.
func (r *Replica) register(a *attempt, cancel context.CancelFunc) {
	r.mu.Lock()
	r.inflight[a] = cancel
	r.mu.Unlock()
}

func (r *Replica) unregister(a *attempt) {
	r.mu.Lock()
	delete(r.inflight, a)
	r.mu.Unlock()
}

// state classifies the replica for routing: the cluster-level down flag and
// a shedding breaker are both unroutable; a degraded breaker or an open
// fault window scores worse and hedges immediately.
func (r *Replica) state() ReplicaState {
	r.mu.Lock()
	down := r.down
	r.mu.Unlock()
	if down {
		return DownReplica
	}
	switch r.be.Health() {
	case serve.Shedding:
		return DownReplica
	case serve.Degraded:
		return DegradedReplica
	}
	if r.inj.Active() {
		return DegradedReplica
	}
	return Up
}

// attempt is one dispatch of a request onto one replica.
type attempt struct {
	idx    int
	rep    *Replica
	st     TokenStream
	cancel context.CancelFunc
}

// release cancels the attempt and drops its kill registration.
func (a *attempt) release() {
	a.rep.unregister(a)
	a.cancel()
}

// Options configure the router.
type Options struct {
	// Policy is the scoring/hedging rule set; the zero value takes
	// DefaultPolicy.
	Policy Policy
	// Hedge enables hedged second attempts on slow or degraded primaries.
	Hedge bool
	// MaxAttempts bounds dispatch attempts per request across replicas
	// (0 = one attempt per replica).
	MaxAttempts int
}

// Cluster routes requests across replicas. All methods are safe for
// concurrent use.
type Cluster struct {
	replicas []*Replica
	pol      Policy
	hedge    bool
	maxTries int
	cfg      serve.Config

	tracer atomic.Pointer[xtrace.Recorder]

	submitted, completed, failed atomic.Int64
	hedges, hedgeWins, failovers atomic.Int64
	rejTransient, rejPermanent   atomic.Int64
	wg                           sync.WaitGroup
}

// New builds a router over the replicas. cfg is the shared serving
// configuration (every replica must have been built from it); the router
// uses its limits for failover resubmission and the HTTP frontend.
func New(replicas []*Replica, cfg serve.Config, opts Options) (*Cluster, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: need at least one replica")
	}
	pol := opts.Policy
	if pol == (Policy{}) {
		pol = DefaultPolicy()
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxTries := opts.MaxAttempts
	if maxTries <= 0 {
		maxTries = len(replicas)
	}
	return &Cluster{replicas: replicas, pol: pol, hedge: opts.Hedge, maxTries: maxTries, cfg: cfg}, nil
}

// Config returns the shared serving configuration.
func (c *Cluster) Config() serve.Config { return c.cfg }

// Replica returns member i.
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// SetTracer installs (or removes, with nil) the span recorder for
// route/hedge/failover spans.
func (c *Cluster) SetTracer(r *xtrace.Recorder) { c.tracer.Store(r) }

func (c *Cluster) trace(name string, t0 time.Time, replica int) {
	if rec := c.tracer.Load(); rec != nil {
		rec.Record(name, xtrace.LaneCluster, t0, time.Since(t0), xtrace.At(-1, -1, replica))
	}
}

func (c *Cluster) traceEvent(name string, replica int) {
	if rec := c.tracer.Load(); rec != nil {
		rec.Event(name, xtrace.LaneCluster, time.Now(), xtrace.At(-1, -1, replica))
	}
}

// Kill marks replica i down and severs every in-flight attempt on it: the
// router's liveness view of a crashed process. Queued and mid-stream
// requests on the replica fail over at their next stream event.
func (c *Cluster) Kill(i int) {
	r := c.replicas[i]
	r.mu.Lock()
	already := r.down
	r.down = true
	cancels := make([]context.CancelFunc, 0, len(r.inflight))
	for _, cancel := range r.inflight {
		cancels = append(cancels, cancel)
	}
	r.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	if !already {
		c.traceEvent(xtrace.TaskReplicaDown, i)
	}
}

// Restart marks replica i routable again.
func (c *Cluster) Restart(i int) {
	r := c.replicas[i]
	r.mu.Lock()
	was := r.down
	r.down = false
	r.mu.Unlock()
	if was {
		c.traceEvent(xtrace.TaskReplicaUp, i)
	}
}

// Down reports replica i's cluster-level liveness flag.
func (c *Cluster) Down(i int) bool {
	r := c.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// States returns every replica's routing state.
func (c *Cluster) States() []ReplicaState {
	out := make([]ReplicaState, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.state()
	}
	return out
}

// views builds the per-replica scoring views for one prompt.
func (c *Cluster) views(prompt []int) []ReplicaView {
	out := make([]ReplicaView, len(c.replicas))
	for i, r := range c.replicas {
		st := r.state()
		v := ReplicaView{State: st, PromptTokens: len(prompt)}
		if st != DownReplica {
			snap := r.be.RouteSnapshot()
			v.QueueDepth = snap.QueueDepth
			v.ActiveSlots = snap.ActiveSlots
			v.TotalSlots = snap.TotalSlots
			v.PredictedDrain = snap.PredictedDrain
			v.PredictedTPOT = snap.PredictedTPOT
			v.MatchedTokens = r.be.PrefixMatchTokens(prompt)
			v.PrefillCost = snap.PredictPrefill(v.SuffixTokens())
		}
		out[i] = v
	}
	return out
}

// ReasonNoReplica is the overload reason for a cluster with no routable
// replica; the HTTP layer maps it to 503 like a shedding breaker.
const ReasonNoReplica = "no-healthy-replica"

// dispatch routes req to the best untried routable replica, walking down
// the ranking on transient overload. It returns the live attempt and the
// view it was scored with, or the terminal error:
//
//   - a Permanent *serve.OverloadError from ANY replica ends the walk
//     immediately — a never-fits verdict is deterministic across identical
//     deployments, and re-dispatching it would turn one well-formed 422
//     into N wasted admission checks (the 429-vs-422 contract);
//   - transient rejections accumulate, and when every replica has rejected,
//     the merged error carries the MAX Retry-After observed, so a client
//     backs off long enough for the slowest replica rather than re-slamming
//     the fleet at the most optimistic hint;
//   - non-overload errors (validation, closed) return as-is.
func (c *Cluster) dispatch(ctx context.Context, req serve.Request, tried map[int]bool) (*attempt, ReplicaView, error) {
	views := c.views(req.Prompt)
	order := c.pol.Rank(views)
	var merged *serve.OverloadError
	routable := 0
	for _, i := range order {
		if tried[i] {
			continue
		}
		routable++
		if len(tried) >= c.maxTries {
			break
		}
		tried[i] = true
		att, err := c.startAttempt(ctx, i, req)
		if err == nil {
			return att, views[i], nil
		}
		var ovl *serve.OverloadError
		switch {
		case errors.As(err, &ovl):
			if ovl.Permanent {
				c.rejPermanent.Add(1)
				return nil, ReplicaView{}, ovl
			}
			c.rejTransient.Add(1)
			if merged == nil {
				cp := *ovl
				merged = &cp
			} else if ovl.RetryAfter > merged.RetryAfter {
				merged.RetryAfter = ovl.RetryAfter
				merged.Reason = ovl.Reason
				merged.State = ovl.State
			}
		case errors.Is(err, serve.ErrQueueFull):
			// A full queue is transient backpressure with no drain hint.
			c.rejTransient.Add(1)
			if merged == nil {
				merged = &serve.OverloadError{Reason: "queue-full"}
			}
		default:
			return nil, ReplicaView{}, err
		}
	}
	if merged != nil {
		return nil, ReplicaView{}, merged
	}
	if routable == 0 {
		return nil, ReplicaView{}, &serve.OverloadError{Reason: ReasonNoReplica}
	}
	return nil, ReplicaView{}, &serve.OverloadError{Reason: "attempts-exhausted"}
}

// startAttempt submits req to replica i under a per-attempt context derived
// from the request context, registering the cancel so a kill severs it.
func (c *Cluster) startAttempt(ctx context.Context, i int, req serve.Request) (*attempt, error) {
	r := c.replicas[i]
	attemptCtx, cancel := context.WithCancel(ctx)
	a := &attempt{idx: i, rep: r, cancel: cancel}
	r.register(a, cancel)
	st, err := r.be.Submit(attemptCtx, req)
	if err != nil {
		a.release()
		return nil, err
	}
	// A kill racing the submit must still sever this attempt: register
	// happened before Submit, so the racing Kill either saw the cancel (and
	// called it) or the down flag was set before our state() check — either
	// way the attempt's context dies and the pump fails over.
	a.st = st
	return a, nil
}

// Stream is one routed request's merged output: tokens from whichever
// attempt won, continuation tokens after any failover.
type Stream struct {
	ch   chan int
	done chan struct{}

	mu       sync.Mutex
	tokens   []int
	err      error
	replicas []int // serving replica per winner change, in order
	hedged   bool
	hedgeWon bool
}

func newClusterStream(budget int) *Stream {
	return &Stream{ch: make(chan int, budget), done: make(chan struct{})}
}

// Tokens returns the live token channel; closed on completion.
func (st *Stream) Tokens() <-chan int { return st.ch }

// Done is closed when the request finishes.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Wait blocks for completion and returns all tokens plus the terminal error.
func (st *Stream) Wait() ([]int, error) {
	<-st.done
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.tokens...), st.err
}

// Replicas returns the sequence of replica indices that served tokens (one
// entry per winner change; length > 1 means the request failed over).
func (st *Stream) Replicas() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.replicas...)
}

// Hedged reports whether a hedge attempt launched, and whether it won.
func (st *Stream) Hedged() (launched, won bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hedged, st.hedgeWon
}

func (st *Stream) noteWinner(replica int) {
	st.mu.Lock()
	st.replicas = append(st.replicas, replica)
	st.mu.Unlock()
}

func (st *Stream) noteHedge(launched, won bool) {
	st.mu.Lock()
	if launched {
		st.hedged = true
	}
	if won {
		st.hedgeWon = true
	}
	st.mu.Unlock()
}

func (st *Stream) push(tok int) {
	st.mu.Lock()
	st.tokens = append(st.tokens, tok)
	st.mu.Unlock()
	st.ch <- tok
}

func (st *Stream) finish(err error) {
	st.mu.Lock()
	st.err = err
	st.mu.Unlock()
	close(st.ch)
	close(st.done)
}

// delivered returns a copy of the tokens pushed so far (the failover resume
// state).
func (st *Stream) delivered() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.tokens...)
}

// Submit routes the request: score replicas, dispatch to the best, and
// manage hedging and failover in a background pump. Submit-side rejections
// (overload on every routable replica, permanent never-fits, validation)
// return synchronously with the serve layer's error types, so the HTTP
// frontend maps them exactly like a single replica would.
func (c *Cluster) Submit(ctx context.Context, req serve.Request) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.submitted.Add(1)
	t0 := time.Now()
	tried := make(map[int]bool, len(c.replicas))
	att, view, err := c.dispatch(ctx, req, tried)
	c.trace(xtrace.TaskRoute, t0, func() int {
		if att != nil {
			return att.idx
		}
		return -1
	}())
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	budget := req.MaxNewTokens
	if budget == 0 {
		budget = c.cfg.DefaultNewTokens
	}
	cs := newClusterStream(budget)
	c.wg.Add(1)
	go c.pump(ctx, req, budget, cs, att, view, tried)
	return cs, nil
}

// Wait blocks until every in-flight pump goroutine has finished — the
// cluster-level drain barrier (close replica schedulers afterwards).
func (c *Cluster) Wait() { c.wg.Wait() }

// terminalErr classifies a finished attempt's error for the pump: nil means
// done, permanent overload and parent-context errors end the request, and
// everything else is failover-eligible (the replica died, stalled past its
// deadline, or rejected after a kill).
func (c *Cluster) terminalErr(ctx context.Context, err error) (final error, failover bool) {
	if err == nil {
		return nil, false
	}
	if ctx.Err() != nil {
		return ctx.Err(), false
	}
	var ovl *serve.OverloadError
	if errors.As(err, &ovl) && ovl.Permanent {
		return ovl, false
	}
	return err, true
}

// pump owns one routed request after its first successful dispatch: it
// forwards tokens to the merged stream, launches a hedged second attempt if
// the primary's first token is late (first token wins, loser cancelled),
// and fails the request over — full prompt while still tokenless
// ("mid-queue"), prompt+delivered continuation after tokens flowed — when
// the serving replica dies.
func (c *Cluster) pump(ctx context.Context, req serve.Request, budget int, cs *Stream, first *attempt, view ReplicaView, tried map[int]bool) {
	defer c.wg.Done()
	primary := first
	var hedge *attempt
	finish := func(err error) {
		if primary != nil {
			primary.release()
		}
		if hedge != nil {
			hedge.release()
		}
		if err == nil {
			c.completed.Add(1)
		} else {
			c.failed.Add(1)
		}
		cs.finish(err)
	}

	// Phase 1: no token delivered yet. Wait for the primary's first token,
	// hedging onto the next-best replica when it is late.
	var hedgeC <-chan time.Time
	if c.hedge && len(c.replicas) > 1 {
		delay := c.pol.HedgeDelay(view)
		if delay <= 0 {
			// Degraded primary: hedge immediately rather than waiting out
			// its tail (APEX's online-inference framing).
			if hedge = c.tryHedge(ctx, req, tried); hedge != nil {
				cs.noteHedge(true, false)
			}
		} else {
			t := time.NewTimer(delay)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	var winner *attempt
	for winner == nil {
		var hedgeTokens <-chan int
		if hedge != nil {
			hedgeTokens = hedge.st.Tokens()
		}
		select {
		case tok, ok := <-primary.st.Tokens():
			if ok {
				winner = primary
				if hedge != nil {
					hedge.release()
					hedge = nil
				}
				cs.noteWinner(winner.idx)
				cs.push(tok)
				break
			}
			_, err := primary.st.Wait()
			primary.release()
			primary = nil
			final, failover := c.terminalErr(ctx, err)
			if !failover {
				finish(final)
				return
			}
			if hedge != nil {
				// The hedge is already running the same prompt; promote it.
				primary, hedge = hedge, nil
				continue
			}
			next, _, derr := c.redispatch(ctx, req, tried)
			if derr != nil {
				finish(preferOverload(derr, final))
				return
			}
			primary = next
		case tok, ok := <-hedgeTokens:
			if ok {
				// First token wins: the hedge becomes the serving attempt
				// and the slower primary is cancelled before it can deliver.
				winner = hedge
				hedge = nil
				primary.release()
				primary = winner
				c.hedgeWins.Add(1)
				cs.noteHedge(true, true)
				cs.noteWinner(winner.idx)
				cs.push(tok)
				break
			}
			// Hedge died without a token; drop it and keep the primary.
			hedge.release()
			hedge = nil
		case <-hedgeC:
			hedgeC = nil
			if hedge == nil {
				if hedge = c.tryHedge(ctx, req, tried); hedge != nil {
					cs.noteHedge(true, false)
				}
			}
		case <-ctx.Done():
			finish(ctx.Err())
			return
		}
	}

	// Phase 2: winner streams; on replica death, fail over with the
	// prompt+delivered continuation (generation is deterministic, so the
	// resumed replica regenerates the exact next tokens).
	for {
		select {
		case tok, ok := <-winner.st.Tokens():
			if ok {
				cs.push(tok)
				continue
			}
			_, err := winner.st.Wait()
			winner.release()
			primary = nil
			final, failover := c.terminalErr(ctx, err)
			if !failover {
				finish(final)
				return
			}
			delivered := cs.delivered()
			if len(delivered) >= budget {
				// Budget already met; the trailing error affected no output.
				finish(nil)
				return
			}
			if c.cfg.EOS >= 0 && len(delivered) > 0 && delivered[len(delivered)-1] == c.cfg.EOS {
				finish(nil)
				return
			}
			resume := make([]int, 0, len(req.Prompt)+len(delivered))
			resume = append(resume, req.Prompt...)
			resume = append(resume, delivered...)
			if len(resume) > c.cfg.MaxPromptLen {
				finish(final)
				return
			}
			next, _, derr := c.redispatch(ctx, serve.Request{Prompt: resume, MaxNewTokens: budget - len(delivered)}, tried)
			if derr != nil {
				finish(preferOverload(derr, final))
				return
			}
			winner = next
			primary = winner
			cs.noteWinner(winner.idx)
		case <-ctx.Done():
			primary = winner // finish releases it
			finish(ctx.Err())
			return
		}
	}
}

// preferOverload picks the error a failed request should surface: a
// structured overload rejection (so clients keep 429/422 semantics even
// when the original replica died) over the raw death error.
func preferOverload(dispatchErr, deathErr error) error {
	var ovl *serve.OverloadError
	if errors.As(dispatchErr, &ovl) && ovl.Reason != ReasonNoReplica && ovl.Reason != "attempts-exhausted" {
		return dispatchErr
	}
	if deathErr != nil {
		return deathErr
	}
	return dispatchErr
}

// redispatch is dispatch plus the failover accounting and span.
func (c *Cluster) redispatch(ctx context.Context, req serve.Request, tried map[int]bool) (*attempt, ReplicaView, error) {
	t0 := time.Now()
	att, view, err := c.dispatch(ctx, req, tried)
	if err != nil {
		return nil, view, err
	}
	c.failovers.Add(1)
	c.trace(xtrace.TaskFailover, t0, att.idx)
	return att, view, nil
}

// tryHedge launches a single hedged attempt on the best untried routable
// replica. Hedge submits never walk the ranking on rejection — a hedge is
// opportunistic, and burning every replica's admission queue for one slow
// request would amplify overload.
func (c *Cluster) tryHedge(ctx context.Context, req serve.Request, tried map[int]bool) *attempt {
	views := c.views(req.Prompt)
	for _, i := range c.pol.Rank(views) {
		if tried[i] {
			continue
		}
		if len(tried) >= c.maxTries {
			return nil
		}
		tried[i] = true
		att, err := c.startAttempt(ctx, i, req)
		if err != nil {
			return nil
		}
		c.hedges.Add(1)
		c.traceEvent(xtrace.TaskHedge, i)
		return att
	}
	return nil
}

// Metrics is the router's counter snapshot.
type Metrics struct {
	Replicas  int
	States    []ReplicaState
	Submitted int64
	Completed int64
	Failed    int64
	Hedges    int64
	HedgeWins int64
	Failovers int64
	// RejectedTransient counts per-replica transient overload rejections the
	// router observed (a single request may contribute several); Rejected
	// Permanent counts never-fits verdicts (each ends its request at the
	// first replica).
	RejectedTransient int64
	RejectedPermanent int64
}

// Metrics snapshots the router counters and replica states.
func (c *Cluster) Metrics() Metrics {
	return Metrics{
		Replicas:          len(c.replicas),
		States:            c.States(),
		Submitted:         c.submitted.Load(),
		Completed:         c.completed.Load(),
		Failed:            c.failed.Load(),
		Hedges:            c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
		Failovers:         c.failovers.Load(),
		RejectedTransient: c.rejTransient.Load(),
		RejectedPermanent: c.rejPermanent.Load(),
	}
}
