package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// --- fakes ------------------------------------------------------------------

// fakeStream is a scripted TokenStream: a producer goroutine feeds the token
// channel, honoring context cancellation, then settles the terminal error.
type fakeStream struct {
	ch   chan int
	done chan struct{}

	mu  sync.Mutex
	out []int
	err error
}

func (f *fakeStream) Tokens() <-chan int { return f.ch }

func (f *fakeStream) Wait() ([]int, error) {
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.out...), f.err
}

// script describes how one fake submission behaves.
type script struct {
	tokens     []int         // tokens to emit (all of them unless dieAfter fires)
	firstDelay time.Duration // stall before the first token
	gap        time.Duration // stall between tokens
	dieAfter   int           // emit this many tokens then fail with dieErr (-1 = never)
	dieErr     error
}

func play(ctx context.Context, sc script) *fakeStream {
	fs := &fakeStream{ch: make(chan int, 1024), done: make(chan struct{})}
	go func() {
		defer close(fs.done)
		defer close(fs.ch)
		settle := func(err error) {
			fs.mu.Lock()
			fs.err = err
			fs.mu.Unlock()
		}
		wait := func(d time.Duration) bool {
			if d <= 0 {
				select {
				case <-ctx.Done():
					return false
				default:
					return true
				}
			}
			select {
			case <-time.After(d):
				return true
			case <-ctx.Done():
				return false
			}
		}
		if !wait(sc.firstDelay) {
			settle(ctx.Err())
			return
		}
		for i, tok := range sc.tokens {
			if sc.dieAfter >= 0 && i == sc.dieAfter {
				settle(sc.dieErr)
				return
			}
			if i > 0 && !wait(sc.gap) {
				settle(ctx.Err())
				return
			}
			select {
			case fs.ch <- tok:
				fs.mu.Lock()
				fs.out = append(fs.out, tok)
				fs.mu.Unlock()
			case <-ctx.Done():
				settle(ctx.Err())
				return
			}
		}
		if sc.dieAfter >= 0 && sc.dieAfter >= len(sc.tokens) {
			settle(sc.dieErr)
			return
		}
		settle(nil)
	}()
	return fs
}

// fakeBackend scripts one replica. Each Submit consumes the next script (the
// last one repeats); submit errors short-circuit before any stream exists.
type fakeBackend struct {
	mu        sync.Mutex
	health    serve.BreakerState
	snap      serve.RouteSnapshot
	match     int
	scripts   []script
	submitErr error
	submits   int
	requests  []serve.Request
}

func (b *fakeBackend) Submit(ctx context.Context, req serve.Request) (TokenStream, error) {
	b.mu.Lock()
	b.submits++
	b.requests = append(b.requests, req)
	err := b.submitErr
	var sc script
	if len(b.scripts) > 0 {
		sc = b.scripts[0]
		if len(b.scripts) > 1 {
			b.scripts = b.scripts[1:]
		}
	} else {
		sc = script{dieAfter: -1}
	}
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return play(ctx, sc), nil
}

func (b *fakeBackend) Health() serve.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health
}

func (b *fakeBackend) RouteSnapshot() serve.RouteSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snap
}

func (b *fakeBackend) PrefixMatchTokens(prompt []int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.match > len(prompt) {
		return len(prompt)
	}
	return b.match
}

func (b *fakeBackend) submitCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.submits
}

func (b *fakeBackend) request(i int) serve.Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.requests[i]
}

func testConfig() serve.Config {
	cfg := serve.DefaultConfig(64)
	return cfg
}

func fakeCluster(t *testing.T, opts Options, backends ...*fakeBackend) (*Cluster, []*fakeBackend) {
	t.Helper()
	reps := make([]*Replica, len(backends))
	for i, b := range backends {
		reps[i] = NewReplicaBackend(string(rune('a'+i)), b, nil)
	}
	c, err := New(reps, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, backends
}

func mustTokens(t *testing.T, st *Stream, want []int) {
	t.Helper()
	got, err := st.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %v", len(got), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

// --- routing ----------------------------------------------------------------

// TestClusterRoutesByAffinity: the replica holding the prompt's prefix gets
// the request even though both are equally idle.
func TestClusterRoutesByAffinity(t *testing.T) {
	cold := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{1, 2}, dieAfter: -1}}}
	warm := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, match: 6, scripts: []script{{tokens: []int{1, 2}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, cold, warm)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4, 5, 6, 7, 8}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{1, 2})
	c.Wait()
	if cold.submitCount() != 0 || warm.submitCount() != 1 {
		t.Fatalf("submits cold=%d warm=%d, want 0/1 (affinity must route to the warm replica)",
			cold.submitCount(), warm.submitCount())
	}
	if reps := st.Replicas(); len(reps) != 1 || reps[0] != 1 {
		t.Fatalf("Replicas = %v, want [1]", reps)
	}
}

// TestClusterSkipsDownReplica: a killed replica takes no traffic even when
// it would otherwise win the ranking; Restart brings it back.
func TestClusterSkipsDownReplica(t *testing.T) {
	best := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, match: 8, scripts: []script{{tokens: []int{9}, dieAfter: -1}}}
	other := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{9}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, best, other)

	c.Kill(0)
	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4, 5, 6, 7, 8}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{9})
	if best.submitCount() != 0 {
		t.Fatal("killed replica received traffic")
	}

	c.Restart(0)
	st, err = c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4, 5, 6, 7, 8}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{9})
	c.Wait()
	if best.submitCount() != 1 {
		t.Fatal("restarted replica took no traffic despite winning the ranking")
	}
}

// TestClusterNoRoutableReplica: a fully-down fleet rejects with the
// no-healthy-replica overload reason (the HTTP layer's 503).
func TestClusterNoRoutableReplica(t *testing.T) {
	a := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 1}}
	b := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 1}}
	c, _ := fakeCluster(t, Options{}, a, b)
	c.Kill(0)
	c.Kill(1)

	_, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1}, MaxNewTokens: 1})
	var ovl *serve.OverloadError
	if !errors.As(err, &ovl) || ovl.Reason != ReasonNoReplica {
		t.Fatalf("submit to dead fleet returned %v, want OverloadError{%s}", err, ReasonNoReplica)
	}
}

// --- overload contract (satellite: 429-vs-422) ------------------------------

// TestClusterPermanentNeverRedispatched: a permanent never-fits verdict from
// the first replica ends the request immediately — the second replica must
// not even see a submit.
func TestClusterPermanentNeverRedispatched(t *testing.T) {
	perm := &fakeBackend{
		snap:      serve.RouteSnapshot{TotalSlots: 4},
		match:     4, // wins the ranking
		submitErr: &serve.OverloadError{Reason: "never-fits", Permanent: true},
	}
	healthy := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{1}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, perm, healthy)

	_, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 1})
	var ovl *serve.OverloadError
	if !errors.As(err, &ovl) || !ovl.Permanent {
		t.Fatalf("submit returned %v, want the permanent overload error", err)
	}
	if healthy.submitCount() != 0 {
		t.Fatal("permanent rejection was re-dispatched to another replica")
	}
	if m := c.Metrics(); m.RejectedPermanent != 1 {
		t.Fatalf("RejectedPermanent = %d, want 1", m.RejectedPermanent)
	}
}

// TestClusterMergesMaxRetryAfter: when every replica rejects transiently, the
// surfaced error carries the MAX Retry-After observed, so the client backs
// off long enough for the slowest replica.
func TestClusterMergesMaxRetryAfter(t *testing.T) {
	quick := &fakeBackend{
		snap:      serve.RouteSnapshot{TotalSlots: 4},
		submitErr: &serve.OverloadError{Reason: "arena-pressure", RetryAfter: 2 * time.Second},
	}
	slow := &fakeBackend{
		snap:      serve.RouteSnapshot{TotalSlots: 4},
		submitErr: &serve.OverloadError{Reason: "tpot-budget", RetryAfter: 5 * time.Second},
	}
	c, _ := fakeCluster(t, Options{}, quick, slow)

	_, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1}, MaxNewTokens: 1})
	var ovl *serve.OverloadError
	if !errors.As(err, &ovl) {
		t.Fatalf("submit returned %v, want an overload error", err)
	}
	if ovl.Permanent {
		t.Fatal("merged transient rejection must not be permanent")
	}
	if ovl.RetryAfter != 5*time.Second {
		t.Fatalf("merged RetryAfter = %v, want the max (5s)", ovl.RetryAfter)
	}
	if m := c.Metrics(); m.RejectedTransient != 2 {
		t.Fatalf("RejectedTransient = %d, want 2", m.RejectedTransient)
	}
}

// TestClusterQueueFullWalksRanking: a full queue on the best replica is
// transient — the router walks to the next replica and serves.
func TestClusterQueueFullWalksRanking(t *testing.T) {
	full := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, match: 4, submitErr: serve.ErrQueueFull}
	open := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{7}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, full, open)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{7})
	c.Wait()
	if open.submitCount() != 1 {
		t.Fatal("router did not walk past the full queue")
	}
}

// --- hedging ----------------------------------------------------------------

// TestClusterHedgeFirstTokenWins: the primary stalls far past its predicted
// TTFT; the hedge fires, delivers first, and serves the whole request while
// the primary is cancelled.
func TestClusterHedgeFirstTokenWins(t *testing.T) {
	// The slow replica wins the ranking on affinity (full prefix cached, 1ms
	// predicted TTFT vs the cold replica's 4ms nominal prefill), so it takes
	// the request — then stalls 2s, blowing through the 3×1ms hedge trigger.
	prompt := make([]int, 20)
	slow := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4, PredictedDrain: time.Millisecond},
		match:   20,
		scripts: []script{{tokens: []int{100, 101}, firstDelay: 2 * time.Second, dieAfter: -1}},
	}
	fast := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		scripts: []script{{tokens: []int{1, 2, 3}, dieAfter: -1}},
	}
	c, _ := fakeCluster(t, Options{Hedge: true}, slow, fast)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNewTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{1, 2, 3})
	c.Wait()
	launched, won := st.Hedged()
	if !launched || !won {
		t.Fatalf("Hedged() = (%v, %v), want (true, true)", launched, won)
	}
	if reps := st.Replicas(); len(reps) != 1 || reps[0] != 1 {
		t.Fatalf("Replicas = %v, want [1] (the hedge)", reps)
	}
	m := c.Metrics()
	if m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want 1/1", m.Hedges, m.HedgeWins)
	}
}

// TestClusterHedgeLosesToPrimary: the primary answers within its predicted
// TTFT — no hedge launches, and the fleet does no duplicate work.
func TestClusterHedgeLosesToPrimary(t *testing.T) {
	// The primary wins the ranking on affinity with no TTFT prediction, so
	// the hedge trigger is the 400ms cold fallback — far beyond its instant
	// first token.
	prim := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		match:   4,
		scripts: []script{{tokens: []int{5, 6}, dieAfter: -1}},
	}
	spare := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}}
	c, _ := fakeCluster(t, Options{Hedge: true}, prim, spare)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{5, 6})
	c.Wait()
	if launched, _ := st.Hedged(); launched {
		t.Fatal("hedge launched although the primary answered in time")
	}
	if spare.submitCount() != 0 {
		t.Fatal("spare replica saw duplicate work")
	}
}

// TestClusterHedgesDegradedImmediately: a degraded primary hedges with no
// delay (HedgeDelay 0) — the request races both replicas from the start.
func TestClusterHedgesDegradedImmediately(t *testing.T) {
	degraded := &fakeBackend{
		health:  serve.Degraded,
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		match:   4, // affinity big enough to out-score the degraded penalty
		scripts: []script{{tokens: []int{1}, firstDelay: time.Second, dieAfter: -1}},
	}
	healthy := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		scripts: []script{{tokens: []int{2}, dieAfter: -1}},
	}
	pol := DefaultPolicy()
	pol.DegradedPenalty = 0 // force the degraded replica to win the ranking
	c, _ := fakeCluster(t, Options{Hedge: true, Policy: pol}, degraded, healthy)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{2})
	c.Wait()
	if launched, won := st.Hedged(); !launched || !won {
		t.Fatalf("Hedged() = (%v, %v), want immediate hedge win", launched, won)
	}
	if degraded.submitCount() != 1 || healthy.submitCount() != 1 {
		t.Fatalf("submits degraded=%d healthy=%d, want 1/1 (raced)", degraded.submitCount(), healthy.submitCount())
	}
}

// --- failover ---------------------------------------------------------------

// TestClusterMidQueueFailover: the primary dies before any token; the router
// re-dispatches the full prompt and the client sees an uninterrupted stream.
func TestClusterMidQueueFailover(t *testing.T) {
	dying := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		match:   4,
		scripts: []script{{dieAfter: 0, dieErr: errors.New("replica crashed")}},
	}
	backup := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{1, 2}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, dying, backup)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{1, 2})
	c.Wait()
	if got := backup.request(0).Prompt; len(got) != 4 {
		t.Fatalf("failover re-dispatched prompt of %d tokens, want the full 4", len(got))
	}
	if m := c.Metrics(); m.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers)
	}
	if reps := st.Replicas(); len(reps) != 1 || reps[0] != 1 {
		t.Fatalf("Replicas = %v, want [1]", reps)
	}
}

// TestClusterMidStreamFailoverResumes: the primary dies after 2 of 5 tokens;
// the router resumes on the backup with prompt+delivered and the remaining
// budget, and the merged stream is seamless.
func TestClusterMidStreamFailoverResumes(t *testing.T) {
	dying := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		match:   4,
		scripts: []script{{tokens: []int{10, 11, 99}, dieAfter: 2, dieErr: errors.New("replica crashed")}},
	}
	backup := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{12, 13, 14}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, dying, backup)

	prompt := []int{1, 2, 3, 4}
	st, err := c.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNewTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{10, 11, 12, 13, 14})
	c.Wait()

	resumed := backup.request(0)
	wantPrompt := []int{1, 2, 3, 4, 10, 11}
	if len(resumed.Prompt) != len(wantPrompt) {
		t.Fatalf("resume prompt %v, want %v", resumed.Prompt, wantPrompt)
	}
	for i := range wantPrompt {
		if resumed.Prompt[i] != wantPrompt[i] {
			t.Fatalf("resume prompt %v, want %v", resumed.Prompt, wantPrompt)
		}
	}
	if resumed.MaxNewTokens != 3 {
		t.Fatalf("resume budget = %d, want 3 (5 asked, 2 delivered)", resumed.MaxNewTokens)
	}
	if reps := st.Replicas(); len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Fatalf("Replicas = %v, want [0 1]", reps)
	}
}

// TestClusterKillFailsOverInflight: Kill severs a stream mid-flight via its
// attempt context and the request completes on the surviving replica.
func TestClusterKillFailsOverInflight(t *testing.T) {
	victim := &fakeBackend{
		snap:  serve.RouteSnapshot{TotalSlots: 4},
		match: 4,
		// Emits one token then stalls forever; only the kill's cancel ends it.
		scripts: []script{{tokens: []int{10, 99}, gap: time.Hour, dieAfter: -1}},
	}
	backup := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}, scripts: []script{{tokens: []int{11}, dieAfter: -1}}}
	c, _ := fakeCluster(t, Options{}, victim, backup)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first token so the kill lands mid-stream.
	select {
	case <-st.Tokens():
	case <-time.After(5 * time.Second):
		t.Fatal("no first token")
	}
	c.Kill(0)
	mustTokens(t, st, []int{10, 11})
	c.Wait()
	if reps := st.Replicas(); len(reps) != 2 || reps[1] != 1 {
		t.Fatalf("Replicas = %v, want failover to replica 1", reps)
	}
}

// TestClusterFailoverStopsAtBudget: when the primary dies with the budget
// already delivered, the request completes cleanly with no re-dispatch.
func TestClusterFailoverStopsAtBudget(t *testing.T) {
	dying := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		match:   4,
		scripts: []script{{tokens: []int{10, 11}, dieAfter: 2, dieErr: errors.New("late crash")}},
	}
	spare := &fakeBackend{snap: serve.RouteSnapshot{TotalSlots: 4}}
	c, _ := fakeCluster(t, Options{}, dying, spare)

	st, err := c.Submit(context.Background(), serve.Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustTokens(t, st, []int{10, 11})
	c.Wait()
	if spare.submitCount() != 0 {
		t.Fatal("re-dispatched a request whose budget was already met")
	}
}

// TestClusterCancelPropagates: cancelling the request context ends the routed
// stream with ctx.Err and no failover.
func TestClusterCancelPropagates(t *testing.T) {
	stall := &fakeBackend{
		snap:    serve.RouteSnapshot{TotalSlots: 4},
		scripts: []script{{tokens: []int{1}, firstDelay: time.Hour, dieAfter: -1}},
	}
	c, _ := fakeCluster(t, Options{}, stall)

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.Submit(ctx, serve.Request{Prompt: []int{1}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, werr := st.Wait()
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait after cancel returned %v, want context.Canceled", werr)
	}
	c.Wait()
	if m := c.Metrics(); m.Failovers != 0 {
		t.Fatal("client cancellation must not trigger failover")
	}
}
