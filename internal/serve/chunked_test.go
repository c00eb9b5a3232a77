package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// TestDifferentialChunkedTrace: chunked admission must be invisible in the
// tokens — a Poisson trace with prompts spanning well past the chunk size is
// token-exact against the sequential reference at every chunk size,
// including the degenerate one-token chunk.
func TestDifferentialChunkedTrace(t *testing.T) {
	for _, chunk := range []int{1, 16} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			cfg := DefaultConfig(model.Tiny().Vocab)
			cfg.Slots = 2
			cfg.ChunkTokens = chunk
			trace := poissonTrace(19, 10, model.Tiny().Vocab, 40, 8, 2*time.Millisecond)
			eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
			for i, o := range replayTrace(t, eng, cfg, trace) {
				if err := errors.Join(o.SubmitErr, o.Err); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				want := soloReference(t, trace[i].Prompt, trace[i].MaxNewTokens, cfg.EOS)
				assertTokensEqual(t, fmt.Sprintf("request %d", i), o.Tokens, want)
			}
		})
	}
}

// TestDifferentialChunkedPrefixReuse: chunked prefill composes with the
// shared-prefix cache — repeated prompts seed from committed blocks and
// resume chunking from the seeded boundary, still token-exact.
func TestDifferentialChunkedPrefixReuse(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.ChunkTokens = 8
	cfg.PrefixCacheBytes = 4 << 20
	cfg.PrefixBlockTokens = 8

	shared := make([]int, 30)
	for i := range shared {
		shared[i] = (i * 13) % model.Tiny().Vocab
	}
	var trace workload.Trace
	for i := 0; i < 6; i++ {
		prompt := append(append([]int{}, shared...), i%model.Tiny().Vocab)
		trace = append(trace, workload.Request{At: time.Duration(i) * time.Millisecond, Session: -1, Prompt: prompt, MaxNewTokens: 6})
	}
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	for i, a := range trace {
		time.Sleep(a.At)
		st, err := sched.Submit(context.Background(), serveRequest(a))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		out, err := st.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := soloReference(t, a.Prompt, a.MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, fmt.Sprintf("request %d", i), out, want)
	}
	if hits := sched.Metrics().Serve.PrefixHits; hits == 0 {
		t.Error("repeated shared-prefix prompts produced no prefix hits")
	}
}

// TestChunkedCancellationMidPrefill: cancelling a request while its prefill
// is mid-chunk releases the slot and leaves the scheduler healthy — the next
// request is token-exact.
func TestChunkedCancellationMidPrefill(t *testing.T) {
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 1
	cfg.ChunkTokens = 2
	cfg.MaxPromptLen = 512
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	long := make([]int, 400)
	for i := range long {
		long[i] = (i * 7) % model.Tiny().Vocab
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := sched.Submit(ctx, Request{Prompt: long, MaxNewTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 400 tokens at 2/chunk is 200 loop iterations: cancel lands mid-prefill.
	time.Sleep(2 * time.Millisecond)
	cancel()
	if _, err := st.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-prefill request returned %v, want context.Canceled", err)
	}

	next := Request{Prompt: []int{3, 1, 4, 1, 5, 9, 2, 6}, MaxNewTokens: 6}
	st2, err := sched.Submit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := soloReference(t, next.Prompt, next.MaxNewTokens, cfg.EOS)
	assertTokensEqual(t, "post-cancel request", out, want)
}

// TestChunkedSoak is the chunked-prefill chaos soak: a bursty trace of long
// prompts (every one spanning many chunks) with transfer/corruption/panic
// fault windows toggling mid-prefill. Faults may force chunk retries or fail
// a request, but every request must end in a terminal state, completed
// requests must be token-exact against the solo reference, and the drain
// must leak neither goroutines nor arena bytes.
func TestChunkedSoak(t *testing.T) {
	checkSlotInvariants(t)
	n := 24
	if testing.Short() {
		n = 12
	}
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.QueueDepth = n
	cfg.MaxPromptLen = 512
	cfg.MaxNewTokens = 16
	cfg.DefaultNewTokens = 8
	cfg.ChunkTokens = 8

	baselineGoroutines := goruntime.NumGoroutine()
	eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
	inj := faults.MustNew(31, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.04},
		faults.KVTransfer:     {Prob: 0.03},
		faults.KVCorruption:   {Prob: 0.03},
		faults.WorkerPanic:    {Prob: 0.03, Max: 3},
	})
	inj.SetActive(false)
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 4})
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fault windows: with 40+-token prompts at 8 tokens/chunk, every toggle
	// lands inside some request's multi-chunk prefill.
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
			case <-time.After(10 * time.Millisecond):
				on = !on
				inj.SetActive(on)
			}
		}
	}()

	rng := rand.New(rand.NewSource(77))
	type result struct {
		out []int
		err error
	}
	reqs := make([]Request, n)
	delays := make([]time.Duration, n)
	at := time.Duration(0)
	for i := range reqs {
		if (i/4)%2 == 1 { // bursty: alternating tight and relaxed arrivals
			at += time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		} else {
			at += time.Duration(rng.ExpFloat64() * float64(6*time.Millisecond))
		}
		plen := 40 + rng.Intn(180)
		prompt := make([]int, plen)
		for j := range prompt {
			prompt[j] = rng.Intn(cfg.Vocab)
		}
		reqs[i] = Request{Prompt: prompt, MaxNewTokens: 2 + rng.Intn(10)}
		delays[i] = at
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(delays[i])
			st, err := sched.Submit(context.Background(), reqs[i])
			if err != nil {
				results[i].err = err
				return
			}
			results[i].out, results[i].err = st.Wait()
		}(i)
	}
	wg.Wait()
	close(stopFaults)
	faultWG.Wait()

	completed := 0
	for i, r := range results {
		if r.err != nil {
			// Exhausted retries and overload sheds are legal terminal states;
			// anything else is a scheduler bug.
			if !errors.Is(r.err, ErrOverloaded) && !errors.Is(r.err, ErrQueueFull) && !faults.IsTransient(r.err) {
				t.Errorf("request %d failed with a non-fault, non-overload error: %v", i, r.err)
			}
			continue
		}
		completed++
		want := soloReference(t, reqs[i].Prompt, reqs[i].MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, fmt.Sprintf("soak request %d", i), r.out, want)
	}
	if completed == 0 {
		t.Fatal("chunked soak completed zero requests")
	}
	if len(inj.Counts()) == 0 {
		t.Error("no faults fired; the chaos soak is vacuous")
	}
	t.Logf("chunked soak: %d/%d completed, faults %v", completed, n, inj.Counts())

	sched.Close()
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak after soak drain: %d bytes", used)
	}
	deadline := time.Now().Add(5 * time.Second)
	g := goruntime.NumGoroutine()
	for g > baselineGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		g = goruntime.NumGoroutine()
	}
	if g > baselineGoroutines+2 {
		t.Errorf("goroutines grew from %d to %d across the soak", baselineGoroutines, g)
	}
}

// TestChunkedLongPromptDoesNotStallDecode is the TPOT-spike regression: a
// long-prompt arrival must not freeze concurrent decode streams. The check
// counts decode tokens delivered during the long request's prefill window —
// an event count fixed by the scheduler's interleaving (one chunk per loop
// iteration, decode stepping in between), not a wall-clock ratio, so it is
// stable under -race. Monolithic admission delivers (near) zero tokens in
// that window because the engine loop is inside the prefill for its whole
// duration; chunked admission keeps the stream flowing.
func TestChunkedLongPromptDoesNotStallDecode(t *testing.T) {
	const (
		longLen   = 1024
		chunk     = 32
		decodeLen = 120
	)
	run := func(t *testing.T, chunkTokens int) (during int) {
		t.Helper()
		cfg := DefaultConfig(model.Tiny().Vocab)
		cfg.Slots = 2
		cfg.ChunkTokens = chunkTokens
		cfg.MaxPromptLen = longLen
		cfg.MaxNewTokens = decodeLen
		eng := tinyEngine(t, runtime.Policy{IntraOp: 2, Prefetch: true}, 2)
		sched, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()

		decode, err := sched.Submit(context.Background(), Request{
			Prompt: []int{1, 2, 3, 4, 5, 6}, MaxNewTokens: decodeLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Let the decode stream produce a few tokens before the long arrival.
		got := 0
		for got < 5 {
			if _, ok := <-decode.Tokens(); !ok {
				t.Fatal("decode stream ended early")
			}
			got++
		}
		long := make([]int, longLen)
		for i := range long {
			long[i] = (i * 11) % model.Tiny().Vocab
		}
		lst, err := sched.Submit(context.Background(), Request{Prompt: long, MaxNewTokens: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Count decode tokens until the long request's first token arrives
		// (the end of its prefill).
		firstLong := lst.Tokens()
		counting := true
		for counting {
			select {
			case _, ok := <-firstLong:
				if !ok {
					t.Fatal("long stream ended before first token")
				}
				counting = false
			case _, ok := <-decode.Tokens():
				if !ok {
					counting = false // decode budget exhausted first
				} else {
					during++
				}
			}
		}
		if _, err := decode.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := lst.Wait(); err != nil {
			t.Fatal(err)
		}
		return during
	}

	chunked := run(t, chunk)
	mono := run(t, 0)
	// 1024 tokens at 32/chunk is 32 loop iterations with a decode step in
	// each; monolithic admission blocks the loop for the whole prefill.
	if chunked < 10 {
		t.Errorf("chunked: only %d decode tokens delivered during the long prefill, want >= 10", chunked)
	}
	if mono >= chunked {
		t.Errorf("monolithic admission delivered %d tokens during the prefill window, chunked %d — chunking should dominate", mono, chunked)
	}
}
