package runtime

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

// soloReference generates genLen tokens for one prompt with the plain model
// — the runtime-free sequential baseline every session sequence must match
// token-for-token. It shares no prefill or decode code with the engine.
func soloReference(t *testing.T, seed int64, prompt []int, genLen int) []int {
	t.Helper()
	out, err := tinyModel(t, seed).Generate(nil, 1, [][]int{prompt}, genLen)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// driveSession admits prompts[i] at decode-step arrivals[i] (measured in
// session steps since start), runs each for genLens[i] tokens, and returns
// the per-request outputs. It exercises the continuous-batching lifecycle:
// staggered joins, per-slot positions, retire-on-completion, slot reuse.
func driveSession(t *testing.T, s *Session, prompts [][]int, arrivals, genLens []int) [][]int {
	t.Helper()
	ctx := context.Background()
	out := make([][]int, len(prompts))
	slotOf := make(map[int]int) // slot -> request index
	next := 0                   // next request to admit
	for step := 0; ; step++ {
		// Admit every request whose arrival step has come, as slots allow.
		for next < len(prompts) && arrivals[next] <= step {
			slot := -1
			for c := 0; c < s.Slots(); c++ {
				if !s.IsActive(c) {
					slot = c
					break
				}
			}
			if slot < 0 {
				break // batch full; retry next step boundary
			}
			tok, err := s.Admit(ctx, slot, prompts[next])
			if err != nil {
				t.Fatalf("admit request %d: %v", next, err)
			}
			out[next] = append(out[next], tok)
			if genLens[next] == 1 {
				s.Retire(slot)
			} else {
				slotOf[slot] = next
			}
			next++
		}
		if s.NumActive() == 0 {
			if next >= len(prompts) {
				return out
			}
			continue // idle until the next arrival
		}
		toks, err := s.Step(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, st := range toks {
			r := slotOf[st.Slot]
			out[r] = append(out[r], st.Token)
			if len(out[r]) >= genLens[r] {
				s.Retire(st.Slot)
				delete(slotOf, st.Slot)
			}
		}
	}
}

// TestSessionMatchesSoloGenerate: ragged prompts admitted at staggered steps
// through a 2-slot session (forcing queuing and slot reuse) produce exactly
// the tokens each request would get from a dedicated offline run.
func TestSessionMatchesSoloGenerate(t *testing.T) {
	const seed = 42
	prompts := [][]int{
		{1, 2, 3, 4},
		{9, 8, 7, 6, 5},
		{20, 21, 22},
		{40, 41, 42, 43, 44, 45},
		{3, 1, 4, 1, 5},
	}
	arrivals := []int{0, 0, 1, 3, 4}
	genLens := []int{6, 4, 8, 3, 5}

	pool := threadpool.MustNew(2)
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	got := driveSession(t, sess, prompts, arrivals, genLens)
	for i := range prompts {
		want := soloReference(t, seed, prompts[i], genLens[i])
		assertTokens(t, [][]int{got[i]}, [][]int{want})
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak after session run: %d bytes", eng.gpu.Used())
	}
}

// TestSessionHostAttention: the same lifecycle under the AttnOnCPU policy
// (host-resident cache) stays exact.
func TestSessionHostAttention(t *testing.T) {
	const seed = 42
	prompts := [][]int{{1, 2, 3, 4}, {9, 8, 7, 6, 5}, {20, 21, 22}}
	arrivals := []int{0, 1, 2}
	genLens := []int{5, 4, 6}
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1, AttnOnCPU: true}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	got := driveSession(t, sess, prompts, arrivals, genLens)
	for i := range prompts {
		want := soloReference(t, seed, prompts[i], genLens[i])
		assertTokens(t, [][]int{got[i]}, [][]int{want})
	}
}

// TestSessionChaosStaysExact: continuous batching under injected transfer
// faults, KV corruption, memory pressure, and worker panics still matches the
// solo reference for every request — the serving counterpart of
// TestChaosGenerationStaysExact.
func TestSessionChaosStaysExact(t *testing.T) {
	const seed = 42
	prompts := [][]int{{1, 2, 3, 4}, {9, 8, 7, 6, 5}, {20, 21, 22}, {11, 12, 13, 14}}
	arrivals := []int{0, 0, 2, 3}
	genLens := []int{6, 5, 4, 6}

	pool := threadpool.MustNew(4)
	inj := faults.MustNew(7, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.1},
		faults.KVTransfer:     {Prob: 0.08},
		faults.KVCorruption:   {Prob: 0.08},
		faults.MemPressure:    {Prob: 0.04, Max: 4},
		faults.WorkerPanic:    {Prob: 0.05, Max: 2},
	})
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 4})
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	got := driveSession(t, sess, prompts, arrivals, genLens)
	for i := range prompts {
		want := soloReference(t, seed, prompts[i], genLens[i])
		assertTokens(t, [][]int{got[i]}, [][]int{want})
	}
	if len(inj.Counts()) == 0 {
		t.Error("no faults fired; chaos test is vacuous")
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak after faulted session: %d bytes", eng.gpu.Used())
	}
}

// TestSessionDegradationStaysExact: a worker-panic burst climbs the session
// ladder (prefetch-off, then migration to host attention) mid-stream without
// changing any request's tokens.
func TestSessionDegradationStaysExact(t *testing.T) {
	const seed = 42
	prompts := [][]int{{1, 2, 3, 4}, {9, 8, 7, 6, 5}}
	arrivals := []int{0, 1}
	genLens := []int{8, 6}

	pool := threadpool.MustNew(2)
	inj := faults.MustNew(13, map[faults.Site]faults.Rule{
		faults.WorkerPanic: {Prob: 1, Max: 4},
	})
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 2})
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	got := driveSession(t, sess, prompts, arrivals, genLens)
	for i := range prompts {
		want := soloReference(t, seed, prompts[i], genLens[i])
		assertTokens(t, [][]int{got[i]}, [][]int{want})
	}
	if len(eng.Stats().Degradations) == 0 {
		t.Error("panic burst did not climb the session degradation ladder")
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak after degraded session: %d bytes", eng.gpu.Used())
	}
}

// TestSessionSlotRecycling: a retired slot's KV is fully dropped, so a new
// sequence admitted into it is unaffected by the previous occupant.
func TestSessionSlotRecycling(t *testing.T) {
	const seed = 42
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first := []int{5, 6, 7, 8}
	if _, err := sess.Admit(ctx, 0, first); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(ctx); err != nil {
		t.Fatal(err)
	}
	sess.Retire(0)
	if sess.HostKVBytes() != 0 {
		t.Errorf("retired slot kept %d KV bytes", sess.HostKVBytes())
	}
	second := []int{1, 2, 3}
	tok, err := sess.Admit(ctx, 0, second)
	if err != nil {
		t.Fatal(err)
	}
	want := soloReference(t, seed, second, 3)
	got := []int{tok}
	for len(got) < 3 {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, toks[0].Token)
	}
	assertTokens(t, [][]int{got}, [][]int{want})
}

// TestSessionValidation covers the admission error paths and the empty-step
// no-op.
func TestSessionValidation(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewSession(0); err == nil {
		t.Error("zero-slot session accepted")
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Admit(ctx, -1, []int{1}); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := sess.Admit(ctx, 1, []int{1}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := sess.Admit(ctx, 0, nil); err == nil {
		t.Error("empty prompt accepted")
	}
	if toks, err := sess.Step(ctx); err != nil || toks != nil {
		t.Errorf("idle step = %v, %v; want nil, nil", toks, err)
	}
	if _, err := sess.Admit(ctx, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Admit(ctx, 0, []int{3}); err == nil {
		t.Error("double admission into an occupied slot accepted")
	}
	// Cancelled context surfaces at the boundary and leaves the slot usable.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.Step(cctx); err == nil {
		t.Error("cancelled step did not fail")
	}
	if _, err := sess.Step(ctx); err != nil {
		t.Errorf("step after cancelled attempt failed: %v", err)
	}
}

// TestSessionActOnCPUMatchesGenerate: a one-slot session pays the same
// host-activation traffic and load/store_activation tasks as solo Generate —
// both run the one session step, which honours Policy.ActOnCPU.
func TestSessionActOnCPUMatchesGenerate(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5, 6}
	const genLen = 4
	pol := Policy{IntraOp: 1, ActOnCPU: true}
	traced := func() (*Engine, *xtrace.Recorder) {
		eng, err := NewEngine(tinyModel(t, 42), pol, bigArena, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := xtrace.NewRecorder(0)
		eng.SetTracer(rec)
		return eng, rec
	}
	solo, soloRec := traced()
	want, err := solo.Generate(context.Background(), [][]int{prompt}, genLen)
	if err != nil {
		t.Fatal(err)
	}
	eng, rec := traced()
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	assertTokens(t, driveSession(t, sess, [][]int{prompt}, []int{0}, []int{genLen}), want)
	ws, hs := solo.Stats(), eng.Stats()
	if hs.ActUpBytes != ws.ActUpBytes || hs.ActDownBytes != ws.ActDownBytes {
		t.Errorf("session activation bytes up/down %d/%d, solo Generate %d/%d",
			hs.ActUpBytes, hs.ActDownBytes, ws.ActUpBytes, ws.ActDownBytes)
	}
	count := func(r *xtrace.Recorder, name string) int {
		n := 0
		for _, sp := range r.Spans() {
			if sp.Name == name {
				n++
			}
		}
		return n
	}
	for _, task := range []string{xtrace.TaskLoadAct, xtrace.TaskStoreAct} {
		if got, ref := count(rec, task), count(soloRec, task); got != ref || ref == 0 {
			t.Errorf("%s spans: session %d, solo Generate %d", task, got, ref)
		}
	}
}
