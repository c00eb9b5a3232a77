package serve

import (
	"context"
	"errors"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

const modelSeed = 42

func tinyEngine(t *testing.T, pol runtime.Policy, workers int) *runtime.Engine {
	t.Helper()
	m, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), model.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var pool *threadpool.Pool
	if workers > 1 {
		pool = threadpool.MustNew(workers)
	}
	eng, err := runtime.NewEngine(m, pol, 1<<30, pool)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// soloReference runs one prompt through the plain model — the runtime-free
// sequential baseline of the differential suite — and truncates at the
// first EOS the way the scheduler does (EOS emitted, then the stream ends).
func soloReference(t *testing.T, prompt []int, genLen, eos int) []int {
	t.Helper()
	m, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), model.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Generate(nil, 1, [][]int{prompt}, genLen)
	if err != nil {
		t.Fatal(err)
	}
	toks := out[0]
	if eos >= 0 {
		for i, tok := range toks {
			if tok == eos {
				return toks[:i+1]
			}
		}
	}
	return toks
}

func assertTokensEqual(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d tokens %v, want %d %v", label, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: token %d = %d, want %d (got %v, want %v)", label, i, got[i], want[i], got, want)
			return
		}
	}
}

// serveRequest is the scheduler request for a trace entry.
func serveRequest(r workload.Request) Request {
	return Request{Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens}
}

// replayTrace replays the trace against a fresh scheduler, which it closes
// once every stream has drained.
func replayTrace(t *testing.T, eng *runtime.Engine, cfg Config, trace workload.Trace) []workload.Outcome {
	t.Helper()
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	return workload.Replay(context.Background(), trace, func(_ int, r workload.Request) (workload.Stream, error) {
		return sched.Submit(context.Background(), serveRequest(r))
	})
}

// poissonTrace builds a deterministic Poisson-ish arrival trace: seeded
// exponential inter-arrival gaps, random prompt lengths and budgets.
func poissonTrace(seed int64, n, vocab, maxPrompt, maxNew int, meanGap time.Duration) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var out workload.Trace
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(meanGap))
		plen := 1 + rng.Intn(maxPrompt)
		prompt := make([]int, plen)
		for j := range prompt {
			prompt[j] = rng.Intn(vocab)
		}
		out = append(out, workload.Request{At: at, Session: -1, Prompt: prompt, MaxNewTokens: 1 + rng.Intn(maxNew)})
	}
	return out
}

// TestDifferentialUniformTrace: simultaneous equal-shape requests through a
// 2-slot scheduler (forcing queuing behind the batch) are token-exact
// against the sequential reference.
func TestDifferentialUniformTrace(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	var trace workload.Trace
	for i := 0; i < 6; i++ {
		prompt := []int{1 + i, 2 + i, 3 + i, 4 + i}
		trace = append(trace, workload.Request{Session: -1, Prompt: prompt, MaxNewTokens: 6})
	}
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
	for i, o := range replayTrace(t, eng, cfg, trace) {
		if err := errors.Join(o.SubmitErr, o.Err); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		want := soloReference(t, trace[i].Prompt, trace[i].MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, "uniform trace", o.Tokens, want)
	}
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after drain: %d bytes", used)
	}
}

// TestDifferentialPoissonTrace: a seeded Poisson arrival trace with ragged
// prompts and varied budgets, continuously batched, stays token-exact.
func TestDifferentialPoissonTrace(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 3
	trace := poissonTrace(7, 10, model.Tiny().Vocab, 6, 8, 2*time.Millisecond)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
	for i, o := range replayTrace(t, eng, cfg, trace) {
		if err := errors.Join(o.SubmitErr, o.Err); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		want := soloReference(t, trace[i].Prompt, trace[i].MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, "poisson trace", o.Tokens, want)
	}
}

// TestDifferentialFaultedTrace: the same exactness must survive injected
// transfer faults, KV corruption, memory pressure, and worker panics — the
// serving-layer counterpart of the chaos tests.
func TestDifferentialFaultedTrace(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	trace := poissonTrace(11, 8, model.Tiny().Vocab, 5, 6, time.Millisecond)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 4)
	inj := faults.MustNew(7, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.08},
		faults.KVTransfer:     {Prob: 0.06},
		faults.KVCorruption:   {Prob: 0.06},
		faults.MemPressure:    {Prob: 0.03, Max: 4},
		faults.WorkerPanic:    {Prob: 0.04, Max: 2},
	})
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 4})
	for i, o := range replayTrace(t, eng, cfg, trace) {
		if err := errors.Join(o.SubmitErr, o.Err); err != nil {
			t.Fatalf("request %d did not survive the chaos: %v (injector %s)", i, err, inj)
		}
		want := soloReference(t, trace[i].Prompt, trace[i].MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, "faulted trace", o.Tokens, want)
	}
	if len(inj.Counts()) == 0 {
		t.Error("no faults fired; chaos differential is vacuous")
	}
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after faulted drain: %d bytes", used)
	}
}

// TestEOSTerminatesStream: when the reference output contains the EOS token,
// the served stream ends at it (inclusive), matching the truncated
// reference.
func TestEOSTerminatesStream(t *testing.T) {
	prompt := []int{1, 2, 3, 4}
	const budget = 10
	full := soloReference(t, prompt, budget, -1)
	eos := full[2] // force an EOS hit on the third generated token
	want := soloReference(t, prompt, budget, eos)
	if len(want) >= len(full) {
		t.Fatalf("test setup broken: EOS %d does not truncate %v", eos, full)
	}

	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 1
	cfg.EOS = eos
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	o := replayTrace(t, eng, cfg, workload.Trace{{Session: -1, Prompt: prompt, MaxNewTokens: budget}})[0]
	if err := errors.Join(o.SubmitErr, o.Err); err != nil {
		t.Fatal(err)
	}
	assertTokensEqual(t, "eos stream", o.Tokens, want)
}

// TestQueueBackpressure: with a single busy slot and a depth-2 queue, extra
// submissions reject with ErrQueueFull and are counted.
func TestQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 1
	cfg.QueueDepth = 2
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	req := Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 64}
	var streams []*Stream
	var full int
	// Burst far past slot+queue capacity; at least one submission must hit
	// the bound (the loop can drain at most one queue entry per admission).
	for i := 0; i < 12; i++ {
		st, err := sched.Submit(context.Background(), req)
		switch {
		case err == nil:
			streams = append(streams, st)
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if full == 0 {
		t.Error("burst of 12 into slots=1/queue=2 never hit ErrQueueFull")
	}
	for _, st := range streams {
		if _, err := st.Wait(); err != nil {
			t.Errorf("accepted request failed: %v", err)
		}
	}
	if got := eng.Stats().ServeSummary().Rejected; got != int64(full) {
		t.Errorf("Rejected = %d, want %d", got, full)
	}
}

// TestSubmitValidation: malformed requests reject without touching a slot.
func TestSubmitValidation(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	bad := []Request{
		{Prompt: nil},
		{Prompt: make([]int, cfg.MaxPromptLen+1)},
		{Prompt: []int{1}, MaxNewTokens: -1},
		{Prompt: []int{1}, MaxNewTokens: cfg.MaxNewTokens + 1},
		{Prompt: []int{-1}},
		{Prompt: []int{cfg.Vocab}},
	}
	for i, req := range bad {
		if _, err := sched.Submit(context.Background(), req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if got := eng.Stats().ServeSummary().Rejected; got != int64(len(bad)) {
		t.Errorf("Rejected = %d, want %d", got, len(bad))
	}
}

// TestSubmitAfterClose rejects with ErrClosed.
func TestSubmitAfterClose(t *testing.T) {
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, DefaultConfig(model.Tiny().Vocab))
	if err != nil {
		t.Fatal(err)
	}
	sched.Close()
	if _, err := sched.Submit(context.Background(), Request{Prompt: []int{1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCancellationRetiresSlot: a cancelled in-flight request finishes with
// context.Canceled at the next step boundary, frees its slot for the queued
// successor, and the successor's tokens are unaffected by the evicted
// neighbour.
func TestCancellationRetiresSlot(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 1
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	ctx, cancel := context.WithCancel(context.Background())
	long, err := sched.Submit(ctx, Request{Prompt: []int{5, 6, 7}, MaxNewTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the victim to start producing, then cancel it.
	<-long.Tokens()
	cancel()
	if _, err := long.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request err = %v, want context.Canceled", err)
	}

	next := Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 5}
	st, err := sched.Submit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := soloReference(t, next.Prompt, next.MaxNewTokens, cfg.EOS)
	assertTokensEqual(t, "post-cancel request", got, want)
	if eng.Stats().ServeSummary().Canceled == 0 {
		t.Error("cancellation not counted")
	}
}

// checkSlotInvariants switches on the scheduler loop's slot-table check
// (checkSlots) for the rest of the test: a violation panics the loop.
func checkSlotInvariants(t *testing.T) {
	checkSlotTable.Store(true)
	t.Cleanup(func() { checkSlotTable.Store(false) })
}

// TestSchedulerStress hammers one scheduler with concurrent submitters,
// cancellers, and deadline-bound clients, then asserts a clean drain: every
// stream terminates, no goroutine outlives Close, and the arena holds no
// leaked staging bytes.
func TestSchedulerStress(t *testing.T) {
	checkSlotInvariants(t)
	const clients = 24
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 3
	cfg.QueueDepth = clients
	before := goroutine_count()
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 4)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	type job struct {
		req    Request
		mode   int // 0 = run to completion, 1 = cancel mid-flight, 2 = short deadline
		cancel time.Duration
	}
	jobs := make([]job, clients)
	for i := range jobs {
		plen := 1 + rng.Intn(5)
		prompt := make([]int, plen)
		for j := range prompt {
			prompt[j] = rng.Intn(cfg.Vocab)
		}
		jobs[i] = job{
			req:    Request{Prompt: prompt, MaxNewTokens: 4 + rng.Intn(12)},
			mode:   i % 3,
			cancel: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		}
	}

	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			switch jb.mode {
			case 1:
				ctx, cancel = context.WithCancel(ctx)
				go func() { time.Sleep(jb.cancel); cancel() }()
			case 2:
				ctx, cancel = context.WithTimeout(ctx, jb.cancel)
				defer cancel()
			}
			st, err := sched.Submit(ctx, jb.req)
			if errors.Is(err, ErrQueueFull) {
				return
			}
			if err != nil {
				t.Errorf("client %d submit: %v", i, err)
				return
			}
			toks, err := st.Wait()
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("client %d: unexpected terminal error %v", i, err)
			}
			if err == nil && len(toks) == 0 {
				t.Errorf("client %d: completed with no tokens", i)
			}
		}(i, jb)
	}
	wg.Wait()
	sched.Close()

	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after stress drain: %d bytes", used)
	}
	sum := eng.Stats().ServeSummary()
	if sum.Admitted == 0 {
		t.Error("stress run admitted nothing")
	}
	if sum.Completed+sum.Canceled+sum.Rejected == 0 {
		t.Error("stress run recorded no outcomes")
	}
	// Every scheduler goroutine must have exited.
	deadline := time.Now().Add(3 * time.Second)
	for goroutine_count() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goroutine_count(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf[:goruntime.Stack(buf, true)])
	}
}

func goroutine_count() int { return goruntime.NumGoroutine() }

// TestMetricsSnapshot: after a served batch, the metrics reflect the
// admissions, completions, occupancy, and latency samples.
func TestMetricsSnapshot(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streams []*Stream
	for i := 0; i < 4; i++ {
		st, err := sched.Submit(context.Background(), Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 4})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		if _, err := st.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m := sched.Metrics()
	sched.Close()
	if m.Serve.Admitted != 4 || m.Serve.Completed != 4 {
		t.Errorf("admitted/completed = %d/%d, want 4/4", m.Serve.Admitted, m.Serve.Completed)
	}
	if m.Serve.BatchSteps == 0 || m.Serve.AvgOccupancy <= 0 {
		t.Errorf("batch accounting empty: steps=%d occupancy=%f", m.Serve.BatchSteps, m.Serve.AvgOccupancy)
	}
	if m.Serve.TTFTP50 <= 0 || m.Serve.TTFTP99 < m.Serve.TTFTP50 {
		t.Errorf("TTFT quantiles inconsistent: p50=%v p99=%v", m.Serve.TTFTP50, m.Serve.TTFTP99)
	}
	if m.TokensGenerated != 16 {
		t.Errorf("TokensGenerated = %d, want 16", m.TokensGenerated)
	}
	if m.ActiveSlots != 0 || m.QueueDepth != 0 {
		t.Errorf("drained scheduler reports active=%d queued=%d", m.ActiveSlots, m.QueueDepth)
	}
}
