package runtime

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/quant"
)

// monolithicReference runs the prompt through a fresh session's all-at-once
// AdmitKV path with the same quantization settings — the engine's own
// monolithic behavior, which chunked admission must reproduce exactly.
func monolithicReference(t *testing.T, seed int64, prompt []int, genLen int, quantKV bool) []int {
	t.Helper()
	eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if quantKV {
		if err := sess.SetQuantizeNewSlots(true, quant.Config{Bits: 4, GroupSize: 32}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tok, err := sess.AdmitKV(ctx, 0, prompt, quantKV)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{tok}
	for len(got) < genLen {
		toks, err := sess.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, toks[0].Token)
	}
	return got
}

// FuzzChunkedAdmission fuzzes the chunked-admission state machine over
// prompt length × chunk size × prefix-hit length × arena pressure × KV
// quantization, and asserts the invariants the serving layer relies on:
//
//   - chunk budget: no PrefillChunk call advances more than the requested
//     chunk of prompt positions, and progress is monotone with a constant
//     total — position conservation;
//   - the live chunk-state footprint never exceeds the admission model's
//     ChunkStateBytes bound, and drops to zero once the slot activates or
//     the prefill is cancelled — KV-byte conservation;
//   - the admission model's peak-arena estimate upper-bounds the observed
//     arena peak of a completed chunked admission;
//   - completion is token-exact against the monolithic AdmitKV reference
//     with identical quantization settings (4-bit KV legitimately drifts
//     from the *raw* solo run on adversarial prompts, so the oracle is the
//     engine's own all-at-once path, which chunking must reproduce bit for
//     bit), or, under arena pressure, failure cleans up completely (no
//     chunk bytes, no arena bytes, slot admissible again).
func FuzzChunkedAdmission(f *testing.F) {
	f.Add(21, 4, 8, uint8(0), false)
	f.Add(33, 1, 16, uint8(1), true)
	f.Add(48, 16, 0, uint8(2), false)
	f.Add(9, 9, 8, uint8(0), true)
	f.Add(30, 7, 24, uint8(1), true)
	f.Fuzz(func(t *testing.T, plen, chunk, prefixLen int, pressure uint8, quantKV bool) {
		const seed = 42
		cfg := model.Tiny()
		if plen < 1 || plen > 48 || chunk < 1 || chunk > plen+4 || prefixLen < 0 || prefixLen > plen {
			t.Skip()
		}
		arena := int64(1) << 30
		switch pressure % 3 {
		case 1:
			arena = 1 << 22
		case 2:
			arena = 1 << 21
		}
		prompt := make([]int, plen)
		for i := range prompt {
			prompt[i] = (i*5 + int(pressure)) % cfg.Vocab
		}
		const genLen = 3
		want := monolithicReference(t, seed, prompt, genLen, quantKV)

		ps, err := NewPrefixStore(4<<20, 8, cfg.Layers, cfg.Hidden)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(tinyModel(t, seed), Policy{IntraOp: 1}, arena, nil)
		if err != nil {
			t.Skip() // arena too small for the model's resident set
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

		// Warm the prefix store with the prompt's first prefixLen tokens so
		// the fuzzed admission sees a real partial hit (block-aligned commits
		// mean short warm prefixes legitimately contribute nothing).
		if prefixLen >= 8 {
			if err := sess.BeginPrefill(0, prompt[:prefixLen], quantKV); err != nil {
				t.Fatalf("warm begin: %v", err)
			}
			for {
				done, total, _, err := sess.PrefillChunk(ctx, 0, chunk)
				if err != nil {
					sess.CancelPrefill(0)
					t.Skip() // pressure killed the warm run; nothing to fuzz
				}
				if done == total {
					break
				}
			}
			sess.Retire(0)
		}

		am := perfmodel.AdmissionModel{
			HiddenDim:     cfg.Hidden,
			BytesPerElem:  4, // staged KV working copies are float32
			ResidentBase:  eng.ResidentBaseBytes(),
			LayerBytes:    eng.MaxStreamLayerBytes(),
			WeightBuffers: 1,
			Slack:         1.15,
		}
		stateBound := am.ChunkStateBytes(plen, cfg.Layers)

		if err := sess.BeginPrefill(0, prompt, quantKV); err != nil {
			t.Fatalf("begin prefill: %v", err)
		}
		prev, total := sess.PrefillProgress(0)
		if total != plen {
			t.Fatalf("prefill total = %d, want %d", total, plen)
		}
		var statePeak int64
		failed := false
		for {
			if hb := sess.ChunkHostBytes(); hb > statePeak {
				statePeak = hb
			}
			done, tot, tok, err := sess.PrefillChunk(ctx, 0, chunk)
			if err != nil {
				sess.CancelPrefill(0)
				failed = true
				break
			}
			if tot != plen {
				t.Fatalf("total drifted: %d -> %d", plen, tot)
			}
			if done < prev || done-prev > chunk {
				t.Fatalf("chunk advanced %d -> %d, budget %d", prev, done, chunk)
			}
			prev = done
			if done == tot {
				got := []int{tok}
				for len(got) < genLen {
					toks, err := sess.Step(ctx)
					if err != nil {
						failed = true
						break
					}
					got = append(got, toks[0].Token)
				}
				if !failed {
					assertTokens(t, [][]int{got}, [][]int{want})
				}
				break
			}
		}
		if statePeak > stateBound {
			t.Fatalf("live chunk state peaked at %d bytes, admission bound %d", statePeak, stateBound)
		}
		if hb := sess.ChunkHostBytes(); hb != 0 {
			t.Fatalf("%d live chunk bytes after completion/cancel", hb)
		}
		if !failed {
			estimate := am.PeakBytes(am.SlotKVBytes(plen, genLen))
			if peak := eng.ArenaPeak(); peak > estimate {
				t.Fatalf("arena peak %d exceeded admission estimate %d", peak, estimate)
			}
			if sess.kv != nil {
				for j := 0; j < cfg.Layers; j++ {
					if n := sess.kv.SeqLen(j, 0); n != plen+genLen-1 {
						t.Fatalf("layer %d holds %d KV rows, want %d", j, n, plen+genLen-1)
					}
				}
			}
			sess.Retire(0)
		}
		// The slot must be admissible again either way.
		if err := sess.BeginPrefill(0, prompt, quantKV); err != nil {
			t.Fatalf("slot not reusable after run: %v", err)
		}
		sess.CancelPrefill(0)
		if used := eng.gpu.Used(); used != 0 {
			t.Fatalf("arena leak: %d bytes", used)
		}
	})
}
