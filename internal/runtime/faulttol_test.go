package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

func refTokens(t *testing.T, seed int64, genLen int) [][]int {
	t.Helper()
	want, err := tinyModel(t, seed).Generate(nil, 1, testPrompts(), genLen)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertTokens(t *testing.T, got, want [][]int) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens diverged:\n got %v\nwant %v", got, want)
	}
}

func TestPolicyValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		pol     Policy
		wantErr string // empty = valid
	}{
		{"minimal valid", Policy{IntraOp: 1}, ""},
		{"full valid", Policy{IntraOp: 4, GPUBatch: 2, InterOp: 2, Prefetch: true,
			ResidentLayers: 1, StepTimeout: time.Second}, ""},
		{"quantized valid", Policy{IntraOp: 1, QuantKV: true, KVCfg: quant.Config{Bits: 4, GroupSize: 32},
			QuantWeights: true, WeightCfg: quant.Config{Bits: 8, GroupSize: 32}, CompressResident: true}, ""},
		{"zero intra-op", Policy{}, "intra-op"},
		{"negative gpu batch", Policy{IntraOp: 1, GPUBatch: -1}, "GPU batch"},
		{"negative inter-op", Policy{IntraOp: 1, InterOp: -2}, "inter-op"},
		{"negative resident layers", Policy{IntraOp: 1, ResidentLayers: -1}, "resident layers"},
		{"compress without quant", Policy{IntraOp: 1, CompressResident: true}, "CompressResident"},
		{"negative step timeout", Policy{IntraOp: 1, StepTimeout: -time.Second}, "step timeout"},
		{"cpu attention with kv quant", Policy{IntraOp: 1, AttnOnCPU: true, QuantKV: true,
			KVCfg: quant.Config{Bits: 4, GroupSize: 32}}, "pointless"},
		{"bad kv config", Policy{IntraOp: 1, QuantKV: true, KVCfg: quant.Config{Bits: 99, GroupSize: 32}}, "bits"},
		{"bad weight config", Policy{IntraOp: 1, QuantWeights: true, WeightCfg: quant.Config{Bits: 8}}, "group size"},
	}
	for _, tc := range cases {
		err := tc.pol.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid policy accepted", tc.name)
		} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantErr)) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestChaosGenerationStaysExact is the acceptance chaos test: generation under
// simultaneous injection of transfer failures, KV corruption, memory pressure,
// and worker panics must still produce exactly the reference tokens — every
// fault class is either retried or degraded around, never silently absorbed
// into wrong output.
func TestChaosGenerationStaysExact(t *testing.T) {
	const genLen = 10
	want := refTokens(t, 42, genLen)
	pool := threadpool.MustNew(4)
	inj := faults.MustNew(7, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.15},
		faults.KVTransfer:     {Prob: 0.1},
		faults.KVCorruption:   {Prob: 0.1},
		faults.MemPressure:    {Prob: 0.05, Max: 4},
		faults.WorkerPanic:    {Prob: 0.1, Max: 3},
	})
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 2, GPUBatch: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 4}) // no backoff sleeps in tests

	out, err := eng.Generate(context.Background(), testPrompts(), genLen)
	if err != nil {
		t.Fatalf("generation did not survive the chaos: %v\ninjector: %s", err, inj)
	}
	assertTokens(t, out, want)

	counts := inj.Counts()
	if len(counts) < 3 {
		t.Errorf("chaos run exercised only %d fault kinds (%v); want >= 3 — raise probabilities or genLen", len(counts), counts)
	}
	st := eng.Stats()
	if st.TotalRetries() == 0 && len(st.Degradations) == 0 {
		t.Errorf("faults fired (%v) but neither retries nor degradations were recorded", counts)
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak after faulted run: %d bytes still allocated", eng.gpu.Used())
	}
}

// TestChaosQuantizedRunCompletes: the same chaos under KV quantization cannot
// assert exact tokens (quantization is lossy) but must complete, detect every
// injected corruption via chunk checksums, and leak nothing.
func TestChaosQuantizedRunCompletes(t *testing.T) {
	pool := threadpool.MustNew(2)
	inj := faults.MustNew(11, map[faults.Site]faults.Rule{
		faults.KVTransfer:   {Prob: 0.15},
		faults.KVCorruption: {Prob: 0.2},
	})
	eng, err := NewEngine(tinyModel(t, 5), Policy{
		IntraOp: 2, QuantKV: true, KVCfg: quant.Config{Bits: 4, GroupSize: 32}, Prefetch: true,
	}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 4})
	out, err := eng.Generate(context.Background(), testPrompts(), 8)
	if err != nil {
		t.Fatalf("quantized chaos run failed: %v\ninjector: %s", err, inj)
	}
	for i, seq := range out {
		if len(seq) != 8 {
			t.Errorf("seq %d generated %d tokens, want 8", i, len(seq))
		}
	}
	if fired := inj.Fired(faults.KVCorruption); fired > 0 && eng.Stats().FaultsCleared == 0 {
		t.Errorf("%d corruptions injected but none cleared by retry", fired)
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak: %d bytes", eng.gpu.Used())
	}
}

func TestCancellationStopsAtStepBoundary(t *testing.T) {
	pool := threadpool.MustNew(2)
	before := goruntime.NumGoroutine()
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := eng.GenerateStream(ctx, testPrompts(), 16, func(step int, tokens []int) bool {
		if step == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Steps 0 and 1 completed before the cancellation was observed.
	for i, seq := range out {
		if len(seq) != 2 {
			t.Errorf("seq %d has %d tokens after cancel at step 1, want 2", i, len(seq))
		}
	}
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak after cancel: %d bytes", eng.gpu.Used())
	}
	// The prefetch pipelines must drain: no goroutine may outlive the call.
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf[:goruntime.Stack(buf, true)])
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Generate(ctx, testPrompts(), 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestStepTimeoutRetriesStalledStep: an injected stall longer than the step
// deadline forces a timeout; once the stall budget is exhausted the retried
// step succeeds and the output is still exact.
func TestStepTimeoutRetriesStalledStep(t *testing.T) {
	const genLen = 4
	want := refTokens(t, 42, genLen)
	inj := faults.MustNew(3, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 1, Max: 2, Stall: 300 * time.Millisecond},
	})
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, StepTimeout: 30 * time.Millisecond}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 2})
	out, err := eng.Generate(context.Background(), testPrompts(), genLen)
	if err != nil {
		t.Fatalf("stalled run failed: %v", err)
	}
	assertTokens(t, out, want)
	if inj.Fired(faults.WeightTransfer) != 2 {
		t.Errorf("stall fired %d times, want 2", inj.Fired(faults.WeightTransfer))
	}
	if eng.Stats().TotalRetries() == 0 {
		t.Error("timeout recovery recorded no retries")
	}
}

func TestWithRetryBudgetAndPermanentErrors(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 3})

	// Transient errors consume the whole budget, and the wrapped result still
	// reports transient for upstream step retry.
	calls := 0
	rerr := eng.withRetry(context.Background(), "op", func() error {
		calls++
		return &faults.Error{Site: faults.KVTransfer, Msg: "boom"}
	})
	if calls != 3 {
		t.Errorf("transient op attempted %d times, want 3", calls)
	}
	if rerr == nil || !faults.IsTransient(rerr) {
		t.Errorf("final error %v lost its transience", rerr)
	}

	// Permanent errors are not retried.
	calls = 0
	perm := errors.New("permanent")
	rerr = eng.withRetry(context.Background(), "op", func() error { calls++; return perm })
	if calls != 1 {
		t.Errorf("permanent op attempted %d times, want 1", calls)
	}
	if !errors.Is(rerr, perm) {
		t.Errorf("error chain lost the cause: %v", rerr)
	}

	// Success after failures clears the fault.
	calls = 0
	cleared := eng.Stats().FaultsCleared
	rerr = eng.withRetry(context.Background(), "op", func() error {
		calls++
		if calls < 3 {
			return &faults.Error{Site: faults.KVTransfer, Msg: "flaky"}
		}
		return nil
	})
	if rerr != nil || calls != 3 {
		t.Errorf("flaky op: err=%v calls=%d", rerr, calls)
	}
	if eng.Stats().FaultsCleared != cleared+1 {
		t.Error("cleared fault not counted")
	}

	// Cancellation preempts the backoff sleep.
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 10, BaseBackoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- eng.withRetry(ctx, "op", func() error {
			return &faults.Error{Site: faults.KVTransfer, Msg: "always"}
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case rerr = <-done:
		if !errors.Is(rerr, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withRetry slept through cancellation")
	}
}

// TestDegradationLadder climbs the ladder of a session built the way the
// Generate driver builds it (one slot per prompt, staged in GPU-batch groups).
func TestDegradationLadder(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, Prefetch: true}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.newSession(len(testPrompts()), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sess.degradeOnce(ctx)
	if eng.policy.Prefetch {
		t.Fatal("rung 1 did not disable prefetch")
	}
	sess.degradeOnce(ctx)
	if eng.policy.GPUBatch != 1 {
		t.Fatalf("rung 2: GPUBatch = %d, want 1", eng.policy.GPUBatch)
	}
	sess.degradeOnce(ctx)
	if !eng.policy.AttnOnCPU || sess.kv != nil || sess.host == nil {
		t.Fatalf("rung 3 did not migrate to host attention: %+v", eng.policy)
	}
	// The ladder is exhausted; another rung must be a no-op.
	before := len(eng.Stats().Degradations)
	sess.degradeOnce(ctx)
	got := eng.Stats().Degradations
	if len(got) != before {
		t.Errorf("exhausted ladder still degraded: %v", got)
	}
	want := []string{"prefetch-off", "gpu-batch=1", "attn-on-cpu"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degradations = %v, want %v", got, want)
	}
}

// TestServingSessionLadderSkipsGPUBatch: a session staging one slot at a
// time has no GPU batch to halve, so it climbs exactly prefetch-off then
// attn-on-cpu, and leaves Policy.GPUBatch alone.
func TestServingSessionLadderSkipsGPUBatch(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, Prefetch: true}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		sess.degradeOnce(ctx)
	}
	want := []string{"prefetch-off", "attn-on-cpu"}
	if got := eng.Stats().Degradations; !reflect.DeepEqual(got, want) {
		t.Errorf("degradations = %v, want %v", got, want)
	}
	if eng.policy.GPUBatch != 0 || !eng.policy.AttnOnCPU || sess.kv != nil {
		t.Errorf("serving ladder end state: %+v", eng.policy)
	}
}

// TestDegradationKeepsTokensExact: force the full ladder during a real run (a
// burst of non-transient step failures) and check the output is still exact —
// every rung is a lossless transformation for an unquantized policy.
func TestDegradationKeepsTokensExact(t *testing.T) {
	const genLen = 8
	want := refTokens(t, 42, genLen)
	pool := threadpool.MustNew(2)
	inj := faults.MustNew(13, map[faults.Site]faults.Rule{
		// Panics are not retried inside withRetry, so each fire burns a whole
		// step attempt and climbs the ladder fast.
		faults.WorkerPanic: {Prob: 1, Max: 3},
	})
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 2, Prefetch: true, GPUBatch: 2}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 2})
	out, err := eng.Generate(context.Background(), testPrompts(), genLen)
	if err != nil {
		t.Fatalf("run failed: %v (injector %s)", err, inj)
	}
	assertTokens(t, out, want)
	if len(eng.Stats().Degradations) == 0 {
		t.Error("panic burst did not climb the degradation ladder")
	}
	if inj.Fired(faults.WorkerPanic) != 3 {
		t.Errorf("worker panic fired %d times, want 3", inj.Fired(faults.WorkerPanic))
	}
}

func TestStoreMarkRollback(t *testing.T) {
	st, err := NewKVStore(2, 2, false, quant.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(0, 0, tensor.Full(1, 3, 4), tensor.Full(2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	m := st.Mark()
	if _, err := st.Append(0, 0, tensor.Full(3, 1, 4), tensor.Full(4, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(1, 1, tensor.Full(5, 2, 4), tensor.Full(6, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if st.SeqLen(0, 0) != 4 || st.SeqLen(1, 1) != 2 {
		t.Fatalf("pre-rollback lens %d/%d", st.SeqLen(0, 0), st.SeqLen(1, 1))
	}
	st.Rollback(m)
	if st.SeqLen(0, 0) != 3 || st.SeqLen(1, 1) != 0 {
		t.Errorf("post-rollback lens %d/%d, want 3/0", st.SeqLen(0, 0), st.SeqLen(1, 1))
	}
	k, _, _, err := st.Fetch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Dim(0) != 3 || k.At(0, 0) != 1 {
		t.Errorf("rolled-back fetch wrong: %d rows, first %g", k.Dim(0), k.At(0, 0))
	}
}

// TestStoreCorruptionDetection: injected in-flight corruption must surface as
// a transient checksum error (the host copy is intact), while real host-side
// corruption is permanent — retrying cannot help, so it must not be retried.
func TestStoreCorruptionDetection(t *testing.T) {
	for _, mode := range []struct {
		name     string
		quantize bool
		f16      bool
	}{
		{"raw", false, false},
		{"f16", false, true},
		{"quantized", true, false},
	} {
		st, err := NewKVStore(1, 1, mode.quantize, quant.Config{Bits: 4, GroupSize: 4}, mode.f16)
		if err != nil {
			t.Fatal(err)
		}
		k := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4)
		if _, err := st.Append(0, 0, k, k.Clone()); err != nil {
			t.Fatal(err)
		}
		st.UseFaults(faults.MustNew(1, map[faults.Site]faults.Rule{
			faults.KVCorruption: {Prob: 1, Max: 1},
		}))
		_, _, _, err = st.Fetch(0, 0)
		if err == nil {
			t.Fatalf("%s: injected corruption not detected", mode.name)
		}
		if !faults.IsTransient(err) {
			t.Errorf("%s: injected corruption not transient: %v", mode.name, err)
		}
		// The cap is spent, and the host copy was never touched.
		if _, _, _, err := st.Fetch(0, 0); err != nil {
			t.Errorf("%s: retry after injected corruption failed: %v", mode.name, err)
		}
	}

	// Genuine host-side damage (flip a stored byte) is permanent.
	st, err := NewKVStore(1, 1, false, quant.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(0, 0, tensor.Full(1, 2, 4), tensor.Full(2, 2, 4)); err != nil {
		t.Fatal(err)
	}
	st.chunks[0][0][0].k.Data()[0] = 42
	_, _, _, err = st.Fetch(0, 0)
	if err == nil {
		t.Fatal("host-side corruption not detected")
	}
	if faults.IsTransient(err) {
		t.Errorf("host-side corruption reported transient: %v", err)
	}
}

func TestCheckpointRoundTripAndResume(t *testing.T) {
	const genLen = 9
	want := refTokens(t, 42, genLen)

	// Interrupted run: stop after step 4; checkpointing every 2 steps leaves
	// the last snapshot at step 4 (5 tokens generated).
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, GPUBatch: 2}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableCheckpointing(2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GenerateStream(context.Background(), testPrompts(), genLen, func(step int, tokens []int) bool {
		return step < 4
	}); err != nil {
		t.Fatal(err)
	}
	ck := eng.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	if ck.Step != 4 {
		t.Fatalf("checkpoint at step %d, want 4", ck.Step)
	}
	if eng.Stats().Checkpoints == 0 {
		t.Error("checkpoint counter not advanced")
	}

	// Serialization round trip is lossless.
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != ck.Pos || got.Step != ck.Step || got.GenLen != ck.GenLen ||
		!reflect.DeepEqual(got.Prompts, ck.Prompts) || !reflect.DeepEqual(got.Tokens, ck.Tokens) {
		t.Fatalf("round trip mutated the checkpoint: %+v vs %+v", got, ck)
	}
	for l := range ck.Keys {
		for s := range ck.Keys[l] {
			if (ck.Keys[l][s] == nil) != (got.Keys[l][s] == nil) {
				t.Fatalf("slot (%d,%d) presence changed", l, s)
			}
			if ck.Keys[l][s] == nil {
				continue
			}
			if !reflect.DeepEqual(ck.Keys[l][s].Data(), got.Keys[l][s].Data()) ||
				!reflect.DeepEqual(ck.Values[l][s].Data(), got.Values[l][s].Data()) {
				t.Fatalf("slot (%d,%d) payload changed", l, s)
			}
		}
	}

	// Resuming on a fresh engine reproduces the uninterrupted run exactly
	// (unquantized KV restores bit-for-bit).
	eng2, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng2.Resume(context.Background(), got, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTokens(t, out, want)
}

func TestResumeUnderCPUAttentionPolicy(t *testing.T) {
	const genLen = 7
	want := refTokens(t, 42, genLen)
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableCheckpointing(3)
	if _, err := eng.GenerateStream(context.Background(), testPrompts(), genLen, func(step int, tokens []int) bool {
		return step < 3
	}); err != nil {
		t.Fatal(err)
	}
	ck := eng.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint")
	}
	// Resume on an engine whose policy keeps attention on the CPU: the
	// checkpoint is policy-agnostic (plain float32 KV), so this is lossless.
	eng2, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, AttnOnCPU: true}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng2.Resume(context.Background(), ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTokens(t, out, want)
}

func TestCheckpointValidation(t *testing.T) {
	var nilCk *Checkpoint
	if err := nilCk.Validate(); err == nil {
		t.Error("nil checkpoint accepted")
	}
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableCheckpointing(1)
	if _, err := eng.Generate(context.Background(), testPrompts(), 3); err != nil {
		t.Fatal(err)
	}
	ck := eng.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint")
	}
	if err := ck.Validate(); err != nil {
		t.Fatalf("healthy checkpoint rejected: %v", err)
	}
	// A geometry mismatch must be refused at resume time.
	bad := *ck
	bad.Hidden++
	if _, err := eng.Resume(context.Background(), &bad, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
	bad = *ck
	bad.Step = bad.GenLen + 1
	if err := bad.Validate(); err == nil {
		t.Error("step past genLen accepted")
	}
	bad = *ck
	bad.Keys = bad.Keys[:1]
	if err := bad.Validate(); err == nil {
		t.Error("truncated KV accepted")
	}
	if err := eng.EnableCheckpointing(-1); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader("NOPE-not-a-checkpoint")); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid magic, truncated body.
	if _, err := ReadCheckpoint(strings.NewReader("LMGC\x01\x00\x00")); err == nil {
		t.Error("truncated header accepted")
	}
	// Implausible geometry.
	var buf bytes.Buffer
	buf.WriteString("LMGC")
	for _, v := range []uint32{1, 4, 1, 8, 0xFFFFFFFF, 16, 1} {
		for i := 0; i < 4; i++ {
			buf.WriteByte(byte(v >> (8 * i)))
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("implausible layer count accepted")
	}
}

// TestFaultsDisabledIsFree: a nil injector must leave behavior and output
// exactly as before the fault-tolerance machinery existed.
func TestFaultsDisabledIsFree(t *testing.T) {
	const genLen = 6
	want := refTokens(t, 42, genLen)
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1, Prefetch: true}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Generate(context.Background(), testPrompts(), genLen)
	if err != nil {
		t.Fatal(err)
	}
	assertTokens(t, out, want)
	st := eng.Stats()
	if st.TotalRetries() != 0 || st.FaultsCleared != 0 || len(st.Degradations) != 0 {
		t.Errorf("clean run recorded recovery activity: %+v", st)
	}
}

// TestInjectorDeterminism: two injectors with the same seed drive two engines
// to identical fault sequences and identical stats — the replay property
// chaos debugging depends on.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (map[faults.Site]int, [][]int) {
		inj := faults.MustNew(99, map[faults.Site]faults.Rule{
			faults.WeightTransfer: {Prob: 0.2},
			faults.KVTransfer:     {Prob: 0.2},
		})
		eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetFaultInjector(inj)
		eng.SetRetryConfig(RetryConfig{MaxAttempts: 6})
		out, err := eng.Generate(context.Background(), testPrompts(), 6)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Counts(), out
	}
	c1, o1 := run()
	c2, o2 := run()
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("fire counts differ across identical runs: %v vs %v", c1, c2)
	}
	assertTokens(t, o1, o2)
	if len(c1) == 0 {
		t.Error("no faults fired; determinism test is vacuous")
	}
}

func TestGenerateInputValidation(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Generate(context.Background(), nil, 4); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := eng.Generate(context.Background(), testPrompts(), 0); err == nil {
		t.Error("zero genLen accepted")
	}
	if err := eng.SetRetryConfig(RetryConfig{MaxAttempts: 0}); err == nil {
		t.Error("zero retry attempts accepted")
	}
	if err := eng.SetRetryConfig(RetryConfig{MaxAttempts: 1, BaseBackoff: -time.Second}); err == nil {
		t.Error("negative backoff accepted")
	}
}

func ExampleEngine_Generate_faultTolerant() {
	// Sketch of the fault-tolerant generation loop: inject transient
	// transfer faults, retry through them, and verify nothing changed.
	fmt.Println("see TestChaosGenerationStaysExact")
	// Output: see TestChaosGenerationStaysExact
}
