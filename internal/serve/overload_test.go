package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// smallArenaEngine builds a Tiny engine whose arena leaves exactly kvHeadroom
// bytes beyond the weight working set, so watermark crossings are reachable
// with short sequences. The working set is probed from a throwaway engine
// (resident base + one streamed layer buffer under a no-prefetch policy).
func smallArenaEngine(t *testing.T, kvHeadroom int64, workers int) *runtime.Engine {
	t.Helper()
	probe := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	capacity := probe.ResidentBaseBytes() + probe.MaxStreamLayerBytes() + kvHeadroom

	m, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), model.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var pool *threadpool.Pool
	if workers > 1 {
		pool = threadpool.MustNew(workers)
	}
	eng, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 1}, capacity, pool)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// soloSessionReference replays one prompt through a dedicated single-slot
// session, optionally with the slot's KV quantized — the exactness baseline
// for requests the pressure ladder moved to quantized storage (lossy KV is
// still deterministic, so served output must equal this solo replay).
func soloSessionReference(t *testing.T, prompt []int, genLen int, quantized bool, qcfg quant.Config) []int {
	t.Helper()
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if quantized {
		if err := sess.SetQuantizeNewSlots(true, qcfg); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tok, err := sess.AdmitKV(ctx, 0, prompt, quantized)
	if err != nil {
		t.Fatal(err)
	}
	out := []int{tok}
	for len(out) < genLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, toks[0].Token)
	}
	sess.Retire(0)
	return out
}

// overloadTrace is a seeded bursty arrival process: calm stretches at a
// sustainable pace interleaved with bursts arriving ~4x faster than the
// server drains, with ragged prompt lengths and budgets.
func overloadTrace(seed int64, n, vocab int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var out workload.Trace
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		burst := (i/8)%2 == 1
		if burst {
			at += time.Duration(rng.ExpFloat64() * float64(500*time.Microsecond))
		} else {
			at += time.Duration(rng.ExpFloat64() * float64(4*time.Millisecond))
		}
		plen := 4 + rng.Intn(28)
		prompt := make([]int, plen)
		for j := range prompt {
			prompt[j] = rng.Intn(vocab)
		}
		out = append(out, workload.Request{At: at, Session: -1, Prompt: prompt, MaxNewTokens: 8 + rng.Intn(56)})
	}
	return out
}

// TestOverloadSoak is the chaos soak: a bursty 4x-rate trace against a
// deliberately tiny KV headroom, with transfer/mem-pressure fault windows
// toggling mid-burst. The server may shed load (structured overload errors)
// but must not OOM, panic, leak arena bytes, or corrupt anything: every
// request that completes is token-exact against a solo replay, the queue
// stays bounded, the admission estimate dominates the observed arena peak,
// and health returns to normal after the storm.
func TestOverloadSoak(t *testing.T) {
	checkSlotInvariants(t)
	n := 48
	if testing.Short() {
		n = 24
	}
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 3
	cfg.QueueDepth = 8
	cfg.MaxPromptLen = 64
	cfg.MaxNewTokens = 64
	cfg.HostKVBudget = 1 << 20

	eng := smallArenaEngine(t, 64<<10, 2)
	inj := faults.MustNew(13, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.05},
		faults.KVTransfer:     {Prob: 0.04},
		faults.MemPressure:    {Prob: 0.02, Max: 4},
	})
	inj.SetActive(false)
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 4})

	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fault windows: toggle the injector on and off while the trace runs.
	stopFaults := make(chan struct{})
	var faultWG sync.WaitGroup
	faultWG.Add(1)
	go func() {
		defer faultWG.Done()
		on := false
		for {
			select {
			case <-stopFaults:
				inj.SetActive(false)
				return
			case <-time.After(15 * time.Millisecond):
				on = !on
				inj.SetActive(on)
			}
		}
	}()

	trace := overloadTrace(21, n, cfg.Vocab)
	outs := make([][]int, len(trace))
	errs := make([]error, len(trace))
	kvq := make([]bool, len(trace))
	var wg sync.WaitGroup
	for i, a := range trace {
		wg.Add(1)
		go func(i int, a workload.Request) {
			defer wg.Done()
			time.Sleep(a.At)
			st, err := sched.Submit(context.Background(), serveRequest(a))
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = st.Wait()
			kvq[i] = st.KVQuantized()
		}(i, a)
	}
	wg.Wait()
	close(stopFaults)
	faultWG.Wait()

	completed, shed := 0, 0
	for i := range trace {
		switch {
		case errs[i] == nil:
			completed++
		case errors.Is(errs[i], ErrOverloaded) || errors.Is(errs[i], ErrQueueFull):
			shed++
		default:
			t.Fatalf("request %d failed with a non-overload error: %v", i, errs[i])
		}
	}
	if completed == 0 {
		t.Fatal("soak completed zero requests; server never recovered")
	}
	t.Logf("soak: %d completed, %d shed", completed, shed)

	// Token exactness for every completed request, against the reference
	// matching the storage mode the ladder chose for it.
	for i := range trace {
		if errs[i] != nil {
			continue
		}
		var want []int
		if kvq[i] {
			want = soloSessionReference(t, trace[i].Prompt, trace[i].MaxNewTokens, true, LadderKV())
		} else {
			want = soloReference(t, trace[i].Prompt, trace[i].MaxNewTokens, cfg.EOS)
		}
		assertTokensEqual(t, "soak request", outs[i], want)
	}

	m := sched.Metrics()
	if m.Serve.QueuePeak > cfg.QueueDepth {
		t.Errorf("queue peak %d exceeded bound %d", m.Serve.QueuePeak, cfg.QueueDepth)
	}
	if m.PredictedPeakBytes < eng.ArenaPeak() {
		t.Errorf("admission estimate %d below observed arena peak %d", m.PredictedPeakBytes, eng.ArenaPeak())
	}
	if m.EstimateRatio >= 2 {
		t.Errorf("over-estimate ratio %.2f not < 2x", m.EstimateRatio)
	}
	if got := eng.Stats().ArenaFreeErrorCount(); got != 0 {
		t.Errorf("%d arena free underflows during soak", got)
	}

	// Monotone recovery: with the storm over, health must walk back to
	// healthy within a bounded number of evaluations.
	recovered := false
	for i := 0; i < 10*cfg.HealthyStreak; i++ {
		if sched.Health() == Healthy {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Errorf("health never returned to healthy post-burst (state %s)", sched.Health())
	}

	sched.Close()
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after soak drain: %d bytes", used)
	}
}

// TestEvictionResume drives the ladder to its last rung via a tiny host KV
// budget: one of two long-running raw requests is evicted mid-decode,
// re-queued, and resumed by re-prefilling prompt+produced — and still ends
// token-exact against the solo reference.
func TestEvictionResume(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.QueueDepth = 4
	cfg.MaxNewTokens = 64
	// Tiny host budget: two 64-token sequences overflow it mid-flight.
	cfg.HostKVBudget = 160 << 10

	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reqs := []Request{
		{Prompt: []int{3, 1, 4, 1, 5, 9, 2, 6}, MaxNewTokens: 56},
		{Prompt: []int{2, 7, 1, 8, 2, 8, 1, 8}, MaxNewTokens: 56},
	}
	outs := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	kvq := make([]bool, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			st, err := sched.Submit(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = st.Wait()
			kvq[i] = st.KVQuantized()
		}(i, req)
	}
	wg.Wait()
	m := sched.Metrics()
	sched.Close()

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		var want []int
		if kvq[i] {
			want = soloSessionReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, true, LadderKV())
		} else {
			want = soloReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, cfg.EOS)
		}
		assertTokensEqual(t, "evicted request", outs[i], want)
	}
	if m.Serve.Evicted < 1 {
		t.Errorf("host-budget squeeze evicted nothing (metrics %+v)", m.Serve)
	}
}

// TestSpillUnderArenaPressure drives the ladder's middle rungs from GPU-side
// pressure alone: requests sized to cross the high watermark mid-decode (but
// still fit absolutely) must first flip new slots to quantized storage (rung
// 1) and then spill the largest staged slot to the host (rung 2) — and every
// request still completes token-exact.
func TestSpillUnderArenaPressure(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.QueueDepth = 4

	// 32 KiB headroom: a 52-token sequence peaks at ~0.93 of it (above the
	// 0.85 watermark) while its slack-scaled footprint still fits.
	eng := smallArenaEngine(t, 32<<10, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reqs := []Request{
		{Prompt: []int{3, 1, 4, 1, 5, 9, 2, 6}, MaxNewTokens: 44},
		{Prompt: []int{2, 7, 1, 8, 2, 8, 1, 8}, MaxNewTokens: 44},
	}
	outs := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	kvq := make([]bool, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			st, err := sched.Submit(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = st.Wait()
			kvq[i] = st.KVQuantized()
		}(i, req)
	}
	wg.Wait()
	m := sched.Metrics()
	sched.Close()

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		var want []int
		if kvq[i] {
			want = soloSessionReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, true, LadderKV())
		} else {
			want = soloReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, cfg.EOS)
		}
		assertTokensEqual(t, "spilled request", outs[i], want)
	}
	if m.Serve.Spilled < 1 {
		t.Errorf("arena pressure spilled nothing (metrics %+v)", m.Serve)
	}
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after spill drain: %d bytes", used)
	}
}

// TestBreakerHysteresis pins the state machine: upgrades are immediate,
// downgrades need a full clean streak, and recovery from shedding passes
// through degraded.
func TestBreakerHysteresis(t *testing.T) {
	b := breaker{needStreak: 3}
	if st, _ := b.evaluate(breakerSignals{faults: true}); st != Degraded {
		t.Fatalf("one signal gave %s, want degraded", st)
	}
	if st, _ := b.evaluate(breakerSignals{faults: true, queueSwamped: true}); st != Shedding {
		t.Fatalf("two signals gave %s, want shedding", st)
	}
	// A lone critical arena signal is enough for shedding.
	b2 := breaker{needStreak: 3}
	if st, _ := b2.evaluate(breakerSignals{arenaCritical: true}); st != Shedding {
		t.Fatal("critical arena did not trip shedding")
	}
	// Two clean evaluations are not enough to step down...
	for i := 0; i < 2; i++ {
		if st, changed := b.evaluate(breakerSignals{}); changed || st != Shedding {
			t.Fatalf("downgrade after %d clean evals (state %s)", i+1, st)
		}
	}
	// ...the third is, and lands on degraded, not healthy.
	st, changed := b.evaluate(breakerSignals{})
	if !changed || st != Degraded {
		t.Fatalf("third clean eval gave %s (changed %v), want degraded", st, changed)
	}
	// A dirty evaluation mid-streak resets it.
	b.evaluate(breakerSignals{})
	b.evaluate(breakerSignals{})
	b.evaluate(breakerSignals{faults: true, ladderHigh: true}) // back to shedding
	if st, _ := b.evaluate(breakerSignals{}); st != Shedding {
		t.Fatalf("streak survived a dirty evaluation: %s", st)
	}
	if n := b.transitionCount(); n == 0 {
		t.Error("transition counter never moved")
	}
}

// TestSheddingRejectsSubmissions: a breaker forced to shedding turns
// submissions away with a structured 503-style error before they queue.
func TestSheddingRejectsSubmissions(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	sched.brk.evaluate(breakerSignals{arenaCritical: true})
	_, err = sched.Submit(context.Background(), Request{Prompt: []int{1, 2}, MaxNewTokens: 4})
	var ovl *OverloadError
	if !errors.As(err, &ovl) || ovl.Reason != "shedding" {
		t.Fatalf("shedding submit returned %v, want OverloadError{shedding}", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadError does not match ErrOverloaded sentinel")
	}
	if got := sched.Metrics().Serve.Rejected429; got < 1 {
		t.Errorf("Rejected429 = %d after a shed submission", got)
	}
}

// TestNeverFitsRejected: a request whose footprint can never fit the arena
// is rejected at submit time, not queued to fail later.
func TestNeverFitsRejected(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.MaxPromptLen = 4096
	cfg.MaxNewTokens = 1 << 20

	eng := smallArenaEngine(t, 32<<10, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	// 32 KiB headroom holds ~64 Tiny tokens (512 B/token scaled); ask for
	// far more.
	prompt := make([]int, 64)
	_, err = sched.Submit(context.Background(), Request{Prompt: prompt, MaxNewTokens: 4096})
	var ovl *OverloadError
	if !errors.As(err, &ovl) || ovl.Reason != "never-fits" {
		t.Fatalf("oversize request returned %v, want OverloadError{never-fits}", err)
	}

	// A modest request on the same scheduler still completes.
	st, err := sched.Submit(context.Background(), Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatalf("small request after a never-fits rejection failed: %v", err)
	}
}

// TestFaultWindowGating: an inactive injector must fire nothing, and
// reactivation restores fault injection — the soak harness depends on both.
func TestFaultWindowGating(t *testing.T) {
	inj := faults.MustNew(5, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 1.0},
	})
	inj.SetActive(false)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 3})
	if _, err := eng.Generate(context.Background(), [][]int{{1, 2, 3}}, 2); err != nil {
		t.Fatalf("generation failed with an inactive injector: %v", err)
	}
	if n := len(inj.Counts()); n != 0 {
		t.Fatalf("inactive injector fired %d sites", n)
	}
	inj.SetActive(true)
	if _, err := eng.Generate(context.Background(), [][]int{{1, 2, 3}}, 2); err == nil && len(inj.Counts()) == 0 {
		t.Fatal("reactivated injector never fired")
	}
}

// TestDrainEstimateCountsResumedPrefillOnce pins the published drain
// estimate's token count when an evicted request resumes through a chunked
// prefill: the tokens it already delivered are part of its resume prompt,
// so only the rest of its budget is still owed. The scheduler's loop is
// stopped first so the test can stage the slot table by hand.
func TestDrainEstimateCountsResumedPrefillOnce(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.ChunkTokens = 4
	sched, err := New(tinyEngine(t, runtime.Policy{IntraOp: 1}, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched.Close()

	// Slot 0 decodes a fresh request; slot 1 re-prefills an evicted one
	// that had delivered 4 of its 10 tokens.
	decoding := &pending{req: Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 8}, produced: 1}
	if _, err := sched.sess.Admit(context.Background(), 0, decoding.req.Prompt); err != nil {
		t.Fatal(err)
	}
	resumed := &pending{req: Request{Prompt: []int{4, 5, 6, 7, 8, 9}, MaxNewTokens: 10}, produced: 4}
	resumed.resumePrompt = append(append([]int(nil), resumed.req.Prompt...), 10, 11, 12, 13)
	if err := sched.sess.BeginPrefill(1, resumed.resumePrompt, false); err != nil {
		t.Fatal(err)
	}
	sched.slots[0], sched.slots[1] = decoding, resumed
	for i := 0; i < 8; i++ {
		sched.cost.Observe(1, time.Millisecond)
	}

	sched.publishPressure(0, 0)
	owed := int64(8-1) + int64(10-4)
	if want := sched.cost.PredictDrain(owed, 1); sched.press.drain != want {
		t.Errorf("published drain %v, want %v for %d owed tokens (over %v per token)",
			sched.press.drain, want, owed, sched.cost.PredictTPOT(1))
	}
}
