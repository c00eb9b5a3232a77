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
	"repro/internal/runtime"
	"repro/internal/workload"
)

// TestPrefixDifferentialSharedPrefixTrace: concurrent requests sharing a
// prompt prefix, served with the prefix cache on, are token-exact against the
// sequential no-cache reference — the tentpole's exactness contract — and the
// cache actually engages (hits, inserts, reused tokens all non-zero).
func TestPrefixDifferentialSharedPrefixTrace(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.PrefixCacheBytes = 8 << 20
	cfg.PrefixBlockTokens = 8

	shared := make([]int, 24)
	for i := range shared {
		shared[i] = (i*5 + 1) % cfg.Vocab
	}
	var reqs []Request
	for i := 0; i < 8; i++ {
		prompt := append([]int(nil), shared...)
		for j := 0; j <= i; j++ {
			prompt = append(prompt, (i*13+j*3+2)%cfg.Vocab)
		}
		reqs = append(reqs, Request{Prompt: prompt, MaxNewTokens: 6})
	}

	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
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
		}(i, req)
	}
	wg.Wait()
	m := sched.Metrics()
	sched.Close()

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		want := soloReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, "prefix-cached request", outs[i], want)
	}
	if m.Serve.PrefixHits < 1 || m.Serve.PrefixInserts < 1 || m.Serve.PrefixReusedTokens < 1 {
		t.Errorf("prefix cache never engaged: %+v", m.Serve)
	}
	if m.PrefixCacheCapacity != cfg.PrefixCacheBytes {
		t.Errorf("PrefixCacheCapacity = %d, want %d", m.PrefixCacheCapacity, cfg.PrefixCacheBytes)
	}
	if m.PrefixHitRate <= 0 || m.PrefixHitRate > 1 {
		t.Errorf("PrefixHitRate = %g outside (0, 1]", m.PrefixHitRate)
	}
}

// prefixSoakTrace is a bursty shared-prefix arrival process: every prompt
// extends one of two common prefixes, so cache hits interleave with the
// pressure ladder's spills and evictions.
func prefixSoakTrace(seed int64, n, vocab int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	prefixes := [][]int{make([]int, 16), make([]int, 16)}
	for i := range prefixes[0] {
		prefixes[0][i] = rng.Intn(vocab)
		prefixes[1][i] = rng.Intn(vocab)
	}
	var out workload.Trace
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		if (i/8)%2 == 1 {
			at += time.Duration(rng.ExpFloat64() * float64(500*time.Microsecond))
		} else {
			at += time.Duration(rng.ExpFloat64() * float64(4*time.Millisecond))
		}
		prompt := append([]int(nil), prefixes[rng.Intn(2)]...)
		for j := 0; j < 4+rng.Intn(16); j++ {
			prompt = append(prompt, rng.Intn(vocab))
		}
		out = append(out, workload.Request{At: at, Session: -1, Prompt: prompt, MaxNewTokens: 8 + rng.Intn(40)})
	}
	return out
}

// TestPrefixSoak mixes prefix-cache hits with the full pressure ladder under
// fault windows: a bursty shared-prefix trace against a tiny KV headroom and
// host budget, so hits, inserts, prefix-block drops, spills, and evictions
// all interleave. Completed requests stay token-exact against the matching
// no-cache solo reference, and nothing leaks. Run with -race in CI.
func TestPrefixSoak(t *testing.T) {
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
	cfg.PrefixCacheBytes = 256 << 10
	cfg.PrefixBlockTokens = 8

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

	trace := prefixSoakTrace(29, n, cfg.Vocab)
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
		t.Fatal("prefix soak completed zero requests")
	}
	m := sched.Metrics()
	t.Logf("prefix soak: %d completed, %d shed, %d hits, %d inserts, %d prefix evictions, %d spills, %d evictions",
		completed, shed, m.Serve.PrefixHits, m.Serve.PrefixInserts, m.Serve.PrefixEvictions,
		m.Serve.Spilled, m.Serve.Evicted)

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
		assertTokensEqual(t, "prefix soak request", outs[i], want)
	}

	if m.Serve.PrefixHits < 1 {
		t.Errorf("shared-prefix trace produced no cache hits: %+v", m.Serve)
	}
	if m.PredictedPeakBytes < eng.ArenaPeak() {
		t.Errorf("admission estimate %d below observed arena peak %d with reuse on",
			m.PredictedPeakBytes, eng.ArenaPeak())
	}
	if got := eng.Stats().ArenaFreeErrorCount(); got != 0 {
		t.Errorf("%d arena free underflows during prefix soak", got)
	}
	sched.Close()
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after prefix soak drain: %d bytes", used)
	}
}

// TestDrainUnderSlowStep is the regression for the scheduler-lifecycle bug:
// stepBatch used to run Step under context.Background(), so a step stalled in
// a fault window kept running — and wedged Close — even after every request
// in the batch had been cancelled. With the step context derived from the
// scheduler lifecycle and the batch's request contexts, abandoning all
// requests unwinds the stalled step and drain completes promptly.
func TestDrainUnderSlowStep(t *testing.T) {
	const stall = 30 * time.Second
	inj := faults.MustNew(7, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 1, Stall: stall},
	})
	inj.SetActive(false)
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	eng.SetFaultInjector(inj)

	sched, err := New(eng, DefaultConfig(model.Tiny().Vocab))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// A budget far beyond what the test lets run: decode must still be in
	// flight when the fault window opens.
	st, err := sched.Submit(ctx, Request{Prompt: []int{1, 2, 3, 4}, MaxNewTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	// The first token proves the faults-off prefill finished and decode is on.
	<-st.Tokens()
	inj.SetActive(true) // every subsequent decode step stalls for 30s
	time.Sleep(30 * time.Millisecond)
	cancel() // abandon the only request the stalled step serves

	closed := make(chan struct{})
	go func() {
		sched.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind a stalled step no request is waiting for")
	}
	if _, err := st.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned request finished with %v, want context.Canceled", err)
	}
}

// TestTPOTExcludesPrefillGaps pins the deliver-side TPOT fix with a
// deterministic clock: prefill (admit) tokens restart the gap window without
// contributing, so neither the initial prefill nor an eviction resume's dead
// time skews the mean decode inter-token gap.
func TestTPOTExcludesPrefillGaps(t *testing.T) {
	base := time.Unix(1000, 0)
	p := &pending{}
	if got := p.tpot(); got != 0 {
		t.Fatalf("empty pending tpot = %v, want 0", got)
	}
	p.noteAdmitToken(base) // prefill token: no gap
	if got := p.tpot(); got != 0 {
		t.Fatalf("tpot after prefill only = %v, want 0", got)
	}
	p.noteDecodeToken(base.Add(10 * time.Millisecond)) // gap 10ms
	p.noteDecodeToken(base.Add(20 * time.Millisecond)) // gap 10ms
	// Eviction + resume: 500ms of queue dead time, then the re-prefill token.
	p.noteAdmitToken(base.Add(520 * time.Millisecond))  // no gap recorded
	p.noteDecodeToken(base.Add(530 * time.Millisecond)) // gap 10ms
	if got := p.tpot(); got != 10*time.Millisecond {
		t.Errorf("tpot = %v, want 10ms (prefill/resume gaps must not count)", got)
	}
	// The old formula — (last - first) / (produced - 1) — would have reported
	// (530-0)/3 ≈ 176ms here, poisoned by the resume dead time.
	if p.tpotGaps != 3 {
		t.Errorf("gap count = %d, want 3", p.tpotGaps)
	}
}
