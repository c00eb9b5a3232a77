package runtime

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/threadpool"
)

// chunkedPrefill drives a full chunked admission on slot: BeginPrefill, then
// PrefillChunk in chunk-sized increments until the final chunk activates the
// slot and yields the first token. Along the way it asserts the chunk budget
// (no call advances more than chunk tokens) and that the slot stays inactive
// until the last chunk.
func chunkedPrefill(t *testing.T, sess *Session, slot int, prompt []int, chunk int, quantKV bool) int {
	t.Helper()
	ctx := context.Background()
	if err := sess.BeginPrefill(slot, prompt, quantKV); err != nil {
		t.Fatalf("begin prefill: %v", err)
	}
	prev, total := sess.PrefillProgress(slot)
	if total != len(prompt) {
		t.Fatalf("prefill total = %d, want %d", total, len(prompt))
	}
	for {
		done, _, tok, err := sess.PrefillChunk(ctx, slot, chunk)
		if err != nil {
			t.Fatalf("prefill chunk at %d/%d: %v", prev, total, err)
		}
		if done-prev > chunk {
			t.Fatalf("chunk advanced %d tokens, budget %d", done-prev, chunk)
		}
		if done < total && sess.IsActive(slot) {
			t.Fatalf("slot active at %d/%d, before the final chunk", done, total)
		}
		prev = done
		if done == total {
			if !sess.IsActive(slot) {
				t.Fatal("slot inactive after final chunk")
			}
			return tok
		}
	}
}

// TestChunkedPrefillMatchesSoloGenerate: chunked admission is token-exact
// versus a solo Generate run across chunk sizes {1, odd, 16, full-prompt} in
// every KV storage mode {staged-raw, host-resident, quantized}.
func TestChunkedPrefillMatchesSoloGenerate(t *testing.T) {
	const seed = 42
	prompt := make([]int, 21)
	for i := range prompt {
		prompt[i] = (i*5 + 2) % model.Tiny().Vocab
	}
	const genLen = 5
	want := soloReference(t, seed, prompt, genLen)

	modes := []struct {
		name    string
		pol     Policy
		quantKV bool
	}{
		{"staged-raw", Policy{IntraOp: 1}, false},
		{"host-attn", Policy{IntraOp: 1, AttnOnCPU: true}, false},
		{"quantized", Policy{IntraOp: 1}, true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, chunk := range []int{1, 5, 16, len(prompt)} {
				eng, err := NewEngine(tinyModel(t, seed), mode.pol, bigArena, nil)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := eng.NewSession(1)
				if err != nil {
					t.Fatal(err)
				}
				if mode.quantKV {
					if err := sess.SetQuantizeNewSlots(true, quant.Config{Bits: 4, GroupSize: 32}); err != nil {
						t.Fatal(err)
					}
				}
				got := []int{chunkedPrefill(t, sess, 0, prompt, chunk, mode.quantKV)}
				ctx := context.Background()
				for len(got) < genLen {
					toks, err := sess.Step(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, toks[0].Token)
				}
				if sess.ChunkHostBytes() != 0 {
					t.Errorf("chunk=%d: %d live chunk bytes leaked after completion", chunk, sess.ChunkHostBytes())
				}
				assertTokens(t, [][]int{got}, [][]int{want})
				if eng.gpu.Used() != 0 {
					t.Errorf("chunk=%d: arena leak %d bytes", chunk, eng.gpu.Used())
				}
			}
		})
	}
}

// TestChunkedPrefillInterleavedWithDecode: a live decode stream keeps stepping
// while a second slot prefills chunk-by-chunk between its decode steps; both
// sequences match their solo references exactly — the core serving invariant
// chunking must preserve.
func TestChunkedPrefillInterleavedWithDecode(t *testing.T) {
	const seed = 42
	decPrompt := []int{9, 8, 7, 6, 5}
	prePrompt := make([]int, 24)
	for i := range prePrompt {
		prePrompt[i] = (i*3 + 1) % model.Tiny().Vocab
	}
	const decLen, preLen = 12, 4
	wantDec := soloReference(t, seed, decPrompt, decLen)
	wantPre := soloReference(t, seed, prePrompt, preLen)

	pool := threadpool.MustNew(2)
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 2, InterOp: 2, Prefetch: true}, bigArena, pool)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gotDec := []int{}
	tok, err := sess.Admit(ctx, 0, decPrompt)
	if err != nil {
		t.Fatal(err)
	}
	gotDec = append(gotDec, tok)
	if err := sess.BeginPrefill(1, prePrompt, false); err != nil {
		t.Fatal(err)
	}
	// Alternate one decode step and one 4-token chunk until the prefill
	// completes, then drain the decode stream.
	var gotPre []int
	const chunk = 4
	for len(gotPre) == 0 {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range toks {
			if st.Slot == 0 {
				gotDec = append(gotDec, st.Token)
			}
		}
		done, total, ptok, err := sess.PrefillChunk(ctx, 1, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if done == total {
			gotPre = append(gotPre, ptok)
		}
	}
	for len(gotDec) < decLen || len(gotPre) < preLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range toks {
			switch st.Slot {
			case 0:
				if len(gotDec) < decLen {
					gotDec = append(gotDec, st.Token)
				}
			case 1:
				if len(gotPre) < preLen {
					gotPre = append(gotPre, st.Token)
				}
			}
		}
	}
	assertTokens(t, [][]int{gotDec, gotPre}, [][]int{wantDec, wantPre})
	if eng.gpu.Used() != 0 {
		t.Errorf("arena leak: %d bytes", eng.gpu.Used())
	}
}

// TestChunkedPrefillPrefixHit: a warm prefix store seeds the first chunk, the
// remaining chunks run suffix-only, and output is token-identical to the cold
// run. Per-chunk block commits mean the second request's BeginPrefill starts
// with done > 0.
func TestChunkedPrefillPrefixHit(t *testing.T) {
	const seed = 42
	shared := make([]int, 24)
	for i := range shared {
		shared[i] = (i*7 + 3) % model.Tiny().Vocab
	}
	promptA := append(append([]int(nil), shared...), 7, 8, 9, 10)
	promptB := append(append([]int(nil), shared...), 11, 12, 13)
	const genLen = 5
	wantA := soloReference(t, seed, promptA, genLen)
	wantB := soloReference(t, seed, promptB, genLen)

	for _, quantKV := range []bool{false, true} {
		name := "raw"
		if quantKV {
			name = "quantized"
		}
		t.Run(name, func(t *testing.T) {
			ps, err := NewPrefixStore(4<<20, 8, model.Tiny().Layers, model.Tiny().Hidden)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(1)
			if err != nil {
				t.Fatal(err)
			}
			sess.UsePrefixStore(ps)
			if quantKV {
				if err := sess.SetQuantizeNewSlots(true, quant.Config{Bits: 4, GroupSize: 32}); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			run := func(prompt []int, want []int) {
				got := []int{chunkedPrefill(t, sess, 0, prompt, 6, quantKV)}
				for len(got) < genLen {
					toks, err := sess.Step(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, toks[0].Token)
				}
				sess.Retire(0)
				assertTokens(t, [][]int{got}, [][]int{want})
			}
			run(promptA, wantA)
			// B shares A's prefix: its chunked prefill must start from the
			// committed blocks rather than position zero.
			if err := sess.BeginPrefill(0, promptB, quantKV); err != nil {
				t.Fatal(err)
			}
			done, _ := sess.PrefillProgress(0)
			if done == 0 {
				t.Error("prefix hit did not seed the chunked prefill (done = 0)")
			}
			sess.CancelPrefill(0)
			run(promptB, wantB)
			st := ps.Stats()
			if st.Hits == 0 || st.ReusedTokens == 0 {
				t.Errorf("stats %+v: chunked prefill never hit the prefix store", st)
			}
			if n := ps.refsTotal(); n != 0 {
				t.Errorf("%d prefix refs leaked", n)
			}
		})
	}
}

// TestChunkedPrefillCancelAndResume: cancelling mid-prefill frees the slot and
// drops partial KV, and a subsequent chunked prefill of the same prompt
// resumes from the last committed chunk boundary (not position zero) while
// remaining token-exact.
func TestChunkedPrefillCancelAndResume(t *testing.T) {
	const seed = 42
	prompt := make([]int, 30)
	for i := range prompt {
		prompt[i] = (i*11 + 5) % model.Tiny().Vocab
	}
	const genLen = 4
	want := soloReference(t, seed, prompt, genLen)

	ps, err := NewPrefixStore(4<<20, 8, model.Tiny().Layers, model.Tiny().Hidden)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	sess.UsePrefixStore(ps)
	ctx := context.Background()

	// Run two 9-token chunks (18 tokens, 2 full 8-token blocks committed),
	// then cancel — the eviction path.
	if err := sess.BeginPrefill(0, prompt, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := sess.PrefillChunk(ctx, 0, 9); err != nil {
			t.Fatal(err)
		}
	}
	sess.CancelPrefill(0)
	if sess.PrefillPending(0) {
		t.Fatal("prefill still pending after cancel")
	}
	if sess.ChunkHostBytes() != 0 {
		t.Errorf("%d live chunk bytes leaked after cancel", sess.ChunkHostBytes())
	}
	for j := 0; j < model.Tiny().Layers; j++ {
		if n := sess.kv.SeqLen(j, 0); n != 0 {
			t.Fatalf("layer %d kept %d KV rows after cancel", j, n)
		}
	}

	// Resume: the committed blocks seed the restart at a chunk boundary.
	if err := sess.BeginPrefill(0, prompt, false); err != nil {
		t.Fatal(err)
	}
	done, _ := sess.PrefillProgress(0)
	if done < 16 {
		t.Errorf("resume started at %d tokens, want >= 16 (two committed blocks)", done)
	}
	got := []int{}
	for {
		d, total, tok, err := sess.PrefillChunk(ctx, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if d == total {
			got = append(got, tok)
			break
		}
	}
	for len(got) < genLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, toks[0].Token)
	}
	assertTokens(t, [][]int{got}, [][]int{want})
	sess.Retire(0)
	if n := ps.refsTotal(); n != 0 {
		t.Errorf("%d prefix refs leaked after retire", n)
	}
}

// TestChunkedPrefillSpillAfterAdmit: a chunk-prefilled slot subsequently
// spilled to host keeps decoding the exact solo token stream — chunking
// composes with the pressure ladder's spill rung.
func TestChunkedPrefillSpillAfterAdmit(t *testing.T) {
	const seed = 42
	prompt := make([]int, 18)
	for i := range prompt {
		prompt[i] = (i*13 + 2) % model.Tiny().Vocab
	}
	const genLen = 6
	want := soloReference(t, seed, prompt, genLen)

	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := []int{chunkedPrefill(t, sess, 0, prompt, 7, false)}
	toks, err := sess.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, toks[0].Token)
	if err := sess.SpillSlot(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for len(got) < genLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, toks[0].Token)
	}
	assertTokens(t, [][]int{got}, [][]int{want})
}

// TestChunkedPrefillChaosStaysExact: transfer faults, KV corruption, memory
// pressure, and worker panics landing mid-chunk retry/roll back (possibly
// climbing the degradation ladder, including the staged→host migration with a
// live chunk in flight) without changing a single token.
func TestChunkedPrefillChaosStaysExact(t *testing.T) {
	const seed = 42
	prompt := make([]int, 26)
	for i := range prompt {
		prompt[i] = (i*9 + 4) % model.Tiny().Vocab
	}
	const genLen = 6
	want := soloReference(t, seed, prompt, genLen)

	for _, injSeed := range []int64{7, 13, 29} {
		pool := threadpool.MustNew(4)
		inj := faults.MustNew(injSeed, map[faults.Site]faults.Rule{
			faults.WeightTransfer: {Prob: 0.1},
			faults.KVTransfer:     {Prob: 0.08},
			faults.KVCorruption:   {Prob: 0.08},
			faults.MemPressure:    {Prob: 0.04, Max: 4},
			faults.WorkerPanic:    {Prob: 0.08, Max: 3},
		})
		eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 2, Prefetch: true}, bigArena, pool)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetFaultInjector(inj)
		eng.SetRetryConfig(RetryConfig{MaxAttempts: 4})
		sess, err := eng.NewSession(1)
		if err != nil {
			t.Fatal(err)
		}
		got := []int{chunkedPrefill(t, sess, 0, prompt, 5, false)}
		ctx := context.Background()
		for len(got) < genLen {
			toks, err := sess.Step(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, toks[0].Token)
		}
		assertTokens(t, [][]int{got}, [][]int{want})
		if len(inj.Counts()) == 0 {
			t.Errorf("seed %d: no faults fired; chaos run is vacuous", injSeed)
		}
		if eng.gpu.Used() != 0 {
			t.Errorf("seed %d: arena leak %d bytes", injSeed, eng.gpu.Used())
		}
	}
}

// TestChunkedPrefillValidation covers the error paths of the chunked API.
func TestChunkedPrefillValidation(t *testing.T) {
	eng, err := NewEngine(tinyModel(t, 42), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sess.BeginPrefill(-1, []int{1}, false); err == nil {
		t.Error("negative slot accepted")
	}
	if err := sess.BeginPrefill(0, nil, false); err == nil {
		t.Error("empty prompt accepted")
	}
	if err := sess.BeginPrefill(0, []int{1}, true); err == nil {
		t.Error("quantized prefill without ladder config accepted")
	}
	if _, _, _, err := sess.PrefillChunk(ctx, 0, 4); err == nil {
		t.Error("chunk with no prefill in flight accepted")
	}
	if err := sess.BeginPrefill(0, []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if err := sess.BeginPrefill(0, []int{4}, false); err == nil {
		t.Error("double prefill into one slot accepted")
	}
	if _, _, _, err := sess.PrefillChunk(ctx, 0, 0); err == nil {
		t.Error("zero chunk size accepted")
	}
	// A monolithic admit must refuse a slot with a prefill in flight.
	if _, err := sess.Admit(ctx, 0, []int{9}); err == nil {
		t.Error("admit into a chunk-prefilling slot accepted")
	}
	sess.CancelPrefill(0)
	if _, err := sess.Admit(ctx, 0, []int{9}); err != nil {
		t.Errorf("admit after cancel failed: %v", err)
	}
}

// TestChunkedPrefillWholePromptMatchesAdmit pins the equivalence monolithic
// admission rests on: a PrefillChunk covering the whole prompt is the same
// prefill as AdmitKV — the same first token, the same bytes across every
// link, the same (de)quantization op counts, and the same prefix blocks —
// in every storage mode. Each session admits a cold prompt, retires it, then
// admits a second prompt sharing its first 16 tokens (a prefix hit where a
// store is attached). Afterwards neither side holds chunk state or arena
// bytes.
func TestChunkedPrefillWholePromptMatchesAdmit(t *testing.T) {
	const seed = 17
	vocab := model.Tiny().Vocab
	first, second := make([]int, 27), make([]int, 23)
	for i := range first {
		first[i] = (i*7 + 3) % vocab
	}
	copy(second, first[:16])
	for i := 16; i < len(second); i++ {
		second[i] = (i*11 + 5) % vocab
	}
	q4 := quant.Config{Bits: 4, GroupSize: 32}
	modes := []struct {
		name    string
		pol     Policy
		quantKV bool
		prefix  bool
	}{
		{"staged-raw", Policy{IntraOp: 1}, false, false},
		{"host-attn", Policy{IntraOp: 1, AttnOnCPU: true}, false, false},
		{"ladder-q4", Policy{IntraOp: 1}, true, false},
		{"policy-kv4", Policy{IntraOp: 1, QuantKV: true, KVCfg: q4}, false, false},
		{"w4-weights", Policy{IntraOp: 1, QuantWeights: true, WeightCfg: q4}, false, false},
		{"raw-prefix", Policy{IntraOp: 1}, false, true},
	}
	type outcome struct {
		toks   []int
		stats  [7]int64
		blocks int
	}
	run := func(t *testing.T, pol Policy, quantKV, prefix, chunked bool) outcome {
		t.Helper()
		eng, err := NewEngine(tinyModel(t, seed), pol, bigArena, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(1)
		if err != nil {
			t.Fatal(err)
		}
		if quantKV {
			if err := sess.SetQuantizeNewSlots(true, q4); err != nil {
				t.Fatal(err)
			}
		}
		var ps *PrefixStore
		if prefix {
			if ps, err = NewPrefixStore(4<<20, 8, model.Tiny().Layers, model.Tiny().Hidden); err != nil {
				t.Fatal(err)
			}
			sess.UsePrefixStore(ps)
		}
		var out outcome
		for _, prompt := range [][]int{first, second} {
			var tok int
			if chunked {
				if err := sess.BeginPrefill(0, prompt, quantKV); err != nil {
					t.Fatal(err)
				}
				if _, _, tok, err = sess.PrefillChunk(context.Background(), 0, len(prompt)); err != nil {
					t.Fatal(err)
				}
			} else if tok, err = sess.AdmitKV(context.Background(), 0, prompt, quantKV); err != nil {
				t.Fatal(err)
			}
			if !sess.IsActive(0) {
				t.Fatal("slot inactive after its whole prompt prefilled")
			}
			out.toks = append(out.toks, tok)
			sess.Retire(0)
		}
		if b := sess.ChunkHostBytes(); b != 0 {
			t.Errorf("chunk state still holds %d host bytes", b)
		}
		if used := eng.ArenaUsed(); used != 0 {
			t.Errorf("arena holds %d bytes after the prefills", used)
		}
		st := eng.Stats()
		out.stats = [7]int64{st.WeightUpBytes, st.KVUpBytes, st.KVDownBytes, st.ActUpBytes,
			st.ActDownBytes, st.QuantizeOps, st.DequantizeOps}
		if ps != nil {
			out.blocks = ps.Blocks()
		}
		return out
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			admit := run(t, mode.pol, mode.quantKV, mode.prefix, false)
			chunk := run(t, mode.pol, mode.quantKV, mode.prefix, true)
			for i := range admit.toks {
				if admit.toks[i] != chunk.toks[i] {
					t.Errorf("prompt %d: AdmitKV token %d, whole-prompt chunk token %d", i, admit.toks[i], chunk.toks[i])
				}
			}
			names := [7]string{"WeightUpBytes", "KVUpBytes", "KVDownBytes", "ActUpBytes", "ActDownBytes", "QuantizeOps", "DequantizeOps"}
			for i, name := range names {
				if admit.stats[i] != chunk.stats[i] {
					t.Errorf("%s: AdmitKV %d, whole-prompt chunk %d", name, admit.stats[i], chunk.stats[i])
				}
			}
			if admit.blocks != chunk.blocks {
				t.Errorf("prefix blocks: AdmitKV %d, whole-prompt chunk %d", admit.blocks, chunk.blocks)
			}
			if mode.prefix && admit.blocks == 0 {
				t.Error("the prefix store never received a block")
			}
		})
	}
}

// TestChunkedPrefillResumesAfterStepMigration: a decode step that exhausts
// its retries migrates the session to the host cache while another slot's
// chunked prefill is half done. The next chunk continues host-resident from
// the prefill's raw live rows on its first attempt, and both sequences stay
// token-exact.
func TestChunkedPrefillResumesAfterStepMigration(t *testing.T) {
	const seed, genLen = 42, 4
	short, long := []int{3, 1, 4, 1, 5}, make([]int, 20)
	for i := range long {
		long[i] = (i*13 + 7) % model.Tiny().Vocab
	}
	inj := faults.MustNew(1, map[faults.Site]faults.Rule{faults.KVTransfer: {Prob: 1}})
	inj.SetActive(false)
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFaultInjector(inj)
	if err := eng.SetRetryConfig(RetryConfig{MaxAttempts: 1}); err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tok, err := sess.Admit(ctx, 0, short)
	if err != nil {
		t.Fatal(err)
	}
	got := [][]int{{tok}, nil}
	if err := sess.BeginPrefill(1, long, false); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sess.PrefillChunk(ctx, 1, 8); err != nil {
		t.Fatal(err)
	}
	// Every KV transfer fails, so the step climbs the ladder to attn-on-cpu
	// and then succeeds host-resident.
	inj.SetActive(true)
	toks, err := sess.Step(ctx)
	inj.SetActive(false)
	if err != nil {
		t.Fatal(err)
	}
	if d := eng.Stats().Degradations; len(d) == 0 || d[len(d)-1] != "attn-on-cpu" {
		t.Fatalf("degradations %v: the step did not migrate the session", d)
	}
	got[0] = append(got[0], toks[0].Token)
	for done, total := 8, len(long); done < total; {
		if done, total, tok, err = sess.PrefillChunk(ctx, 1, 8); err != nil {
			t.Fatal(err)
		}
	}
	got[1] = []int{tok}
	if n := eng.Stats().Retries["prefill_chunk"]; n != 0 {
		t.Errorf("the chunks after the migration took %d retries", n)
	}
	for len(got[0]) < genLen || len(got[1]) < genLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range toks {
			if got[st.Slot] = append(got[st.Slot], st.Token); len(got[st.Slot]) == genLen {
				sess.Retire(st.Slot)
			}
		}
	}
	assertTokens(t, got, [][]int{soloReference(t, seed, short, genLen), soloReference(t, seed, long, genLen)})
}
