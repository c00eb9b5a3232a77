package runtime

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/xtrace"
)

// Chunked prefill: a prompt is admitted incrementally, ChunkTokens positions
// at a time, so a long prefill never monopolizes a serving step — the
// scheduler interleaves one bounded chunk between decode steps and the live
// batch's TPOT spike is capped by construction (the APEX/HeteGen split).
//
// Exactness. Chunk-by-chunk prefill is bit-identical to the monolithic
// prefill because the model is strictly causal and strictly per-row:
// AttentionAt appends the chunk's K/V rows to the slot's cache and masks each
// new row to attend only to positions ≤ its own, and every other per-row
// operation (layer norms, projections, per-row softmax, MLP) never mixes
// rows. Splitting the prompt therefore changes neither any row's inputs nor
// the order of its floating-point operations.
//
// Quantized slots need one extra invariant: a monolithic prefill computes ALL
// prompt attention against raw float32 K/V (quantization happens only when
// the finished rows are appended to the slot's store). So while a chunked
// prefill is in flight, the session retains the raw rows of every processed
// chunk in a live host-side cache and later chunks attend against those —
// never against the store's quantized copies. The per-chunk store appends are
// still exact because quantization groups align to rows (the ladder config's
// group size divides the hidden dimension), so chunk boundaries never split a
// quantization group.
type chunkState struct {
	prompt []int
	match  *PrefixMatch // pinned prefix chain seeding the first chunk (may be nil)
	reused int          // prompt tokens seeded from the prefix store
	done   int          // prompt tokens processed so far (including reused)

	// live holds the raw float32 K/V rows of prompt[:done] for every layer
	// while the prefill is in flight (staged-store mode only; host-resident
	// mode accumulates into the slot's host cache directly, which is already
	// raw). It is released when the prefill completes or cancels.
	live *model.KVCache

	// committed tracks how many prompt tokens are already durable in the
	// prefix store (block-aligned). Completed chunks commit their full blocks
	// immediately, so a cancelled or evicted prefill resumes from the last
	// committed chunk boundary instead of redoing the whole prompt.
	committed int
}

// PrefillPending reports whether slot has a chunked prefill in flight.
func (s *Session) PrefillPending(slot int) bool {
	return slot >= 0 && slot < s.slots && s.chunk[slot] != nil
}

// PrefillProgress returns the processed and total prompt token counts of the
// slot's in-flight chunked prefill (0, 0 when none is pending).
func (s *Session) PrefillProgress(slot int) (done, total int) {
	if !s.PrefillPending(slot) {
		return 0, 0
	}
	st := s.chunk[slot]
	return st.done, len(st.prompt)
}

// ChunkHostBytes returns the host bytes retained by in-flight chunked
// prefills: the raw live K/V rows held until each prefill completes. The
// admission model's ChunkStateBytes term predicts this peak per slot.
func (s *Session) ChunkHostBytes() int64 {
	var total int64
	for _, st := range s.chunk {
		if st != nil && st.live != nil {
			total += st.live.Bytes()
		}
	}
	return total
}

// BeginPrefill opens a chunked prefill of prompt into a free slot: the slot's
// KV storage mode is pinned exactly as AdmitKV pins it, the longest cached
// prefix is acquired and counts as already done, and subsequent PrefillChunk
// calls advance through the remaining tokens. The slot stays inactive (Step
// skips it) until the final chunk completes.
func (s *Session) BeginPrefill(slot int, prompt []int, quantKV bool) error {
	if err := s.checkFree(slot, prompt); err != nil {
		return err
	}
	if err := s.pinSlot(slot, quantKV); err != nil {
		return err
	}
	st := &chunkState{prompt: append([]int(nil), prompt...)}
	if m := s.acquirePrefix(slot, prompt); m != nil {
		st.match = m
		st.reused, st.done, st.committed = m.Tokens(), m.Tokens(), m.Tokens()
	}
	if s.kv != nil {
		cfg := s.e.mod.Cfg
		st.live = model.NewKVCache(cfg.Layers, 1, cfg.Hidden)
	}
	s.chunk[slot] = st
	return nil
}

// CancelPrefill abandons a slot's in-flight chunked prefill: the prefix pins
// are released, the slot's partial store appends are dropped, and the slot
// becomes admissible again. Blocks already committed to the prefix store stay
// — that is what lets an evicted or cancelled prefill resume from its last
// completed chunk boundary. Cancelling a slot with no pending prefill is a
// no-op.
func (s *Session) CancelPrefill(slot int) {
	if !s.PrefillPending(slot) {
		return
	}
	st := s.chunk[slot]
	s.chunk[slot] = nil
	st.match.Release()
	s.quantKV[slot] = false
	s.dropSlotKV(slot)
}

// PrefillChunk advances the slot's chunked prefill by up to maxTokens prompt
// tokens, with the same per-attempt mark/rollback/degradation discipline as a
// monolithic admit. It returns the new progress; when done == total the final
// chunk just ran, the slot is active, and tok is the first generated token
// (the same token AdmitKV would have returned).
func (s *Session) PrefillChunk(ctx context.Context, slot, maxTokens int) (done, total int, tok int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.PrefillPending(slot) {
		return 0, 0, 0, fmt.Errorf("runtime: no prefill in flight on slot %d", slot)
	}
	if maxTokens <= 0 {
		return 0, 0, 0, fmt.Errorf("runtime: chunk size must be positive, got %d", maxTokens)
	}
	st := s.chunk[slot]
	total = len(st.prompt)
	n := min(total-st.done, maxTokens)
	final := st.done+n == total
	var took time.Duration
	err = s.attempt(ctx, "prefill_chunk", func(ctx context.Context) (err error) {
		var liveLens [][]int
		if st.live != nil {
			liveLens = st.live.SeqLens()
		}
		t0 := time.Now()
		tok, err = s.chunkOnce(ctx, slot, st, n, final)
		took = time.Since(t0)
		// The chunk span carries its token count in the Step label so the
		// conformance harness can assert structurally that no chunk exceeded
		// the configured bound.
		s.e.task(xtrace.TaskPrefillChunk, xtrace.LaneEngine, t0, xtrace.At(n, -1, slot))
		if err != nil && liveLens != nil {
			st.live.TruncateTo(liveLens)
		}
		return err
	}, func() {
		if s.kv == nil && st.live != nil {
			// The store migrated to host mid-prefill. The live cache holds the
			// raw rows of every completed chunk — install those as the slot's
			// host rows (the values prefill attention reads in every mode) and
			// continue host-resident; per-slot quantization no longer applies.
			for j := range s.host.Layers() {
				s.host.SetKV(j, slot, st.live.Keys(j, 0), st.live.Values(j, 0))
			}
			st.live = nil
			s.quantKV[slot] = false
		}
	})
	if err != nil {
		return st.done, total, 0, err
	}
	st.done += n
	s.commitChunkBlocks(slot, st)
	if final {
		s.activate(slot, total, tok)
		s.prefixRefs[slot] = st.match
		s.reused[slot] = st.reused
		s.chunk[slot] = nil
		s.e.stats.addTokens(1)
	}
	s.e.driftStall(ctx, took)
	return st.done, total, tok, nil
}

// chunkOnce is one attempt at one prefill chunk: embed the chunk's tokens at
// their absolute positions, stream every layer once, append the chunk's K/V
// rows to the live raw cache, and persist them to the slot's store. The final
// chunk additionally projects the last row's logits into the first generated
// token.
func (s *Session) chunkOnce(ctx context.Context, slot int, st *chunkState, n int, final bool) (tok int, err error) {
	defer recoverAsError(&err)
	e := s.e
	cfg := e.mod.Cfg
	base := st.done
	x := e.mod.Embed(st.prompt[base:base+n], base)
	xs := []*tensor.Tensor{x}
	e.stats.addBytes(&e.stats.ActUpBytes, int64(n*cfg.Hidden)*4)
	// The first computed chunk of a prefix-seeded slot persists the seeded
	// rows along with its own, so the store ends up holding the full prompt
	// exactly as a monolithic admit leaves it.
	storeFull := st.reused > 0 && st.done == st.reused
	// Prefill attention reads raw rows: the live cache in staged mode, the
	// slot's host rows otherwise.
	cache, seq := s.host, slot
	if st.live != nil {
		cache, seq = st.live, 0
	}
	var out model.AttentionOutput
	var store func(j int) error
	if st.live != nil {
		store = func(j int) error {
			k, v := out.NewK[0], out.NewV[0]
			if storeFull {
				k, v = st.live.Keys(j, 0), st.live.Values(j, 0)
			}
			return e.storeChunk(ctx, s.kv, j, slot, k, v)
		}
	}
	err = e.forEachLayer(ctx, func(j int, lw *model.LayerWeights) error {
		if st.match != nil && cache.SeqLen(j, seq) == 0 {
			pk, pv := st.match.SeedLayer(j)
			cache.SetKV(j, seq, pk, pv)
		}
		t0 := time.Now()
		out = model.AttentionAt(e.pool, e.policy.IntraOp, cfg, lw, cache, j, seq, xs)
		model.MLP(e.pool, e.policy.IntraOp, cfg, lw, x)
		e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.At(-1, j, slot))
		return nil
	}, store)
	if err != nil || !final {
		return 0, err
	}
	hidden := tensor.New(1, cfg.Hidden)
	copy(hidden.Row(0), x.Row(n-1))
	return tensor.ArgmaxRows(e.mod.Logits(e.pool, e.policy.IntraOp, hidden))[0], nil
}

// commitChunkBlocks makes the completed chunks' full prefix blocks durable in
// the prefix store. Committing per chunk (rather than once at admit success,
// as the monolithic path does) is what lets a later cancellation or eviction
// resume from the last completed chunk: the committed blocks match a resume
// prompt's prefix and seed its restart.
func (s *Session) commitChunkBlocks(slot int, st *chunkState) {
	if s.prefix == nil {
		return
	}
	bt := s.prefix.BlockTokens()
	target := st.done - st.done%bt
	if target <= st.committed {
		return
	}
	cand := s.prefix.NewCandidate(st.prompt[:target], st.committed)
	if cand != nil {
		cfg := s.e.mod.Cfg
		for j := 0; j < cfg.Layers; j++ {
			if st.live != nil {
				cand.CaptureLayer(j, st.live.Keys(j, 0), st.live.Values(j, 0))
			} else {
				cand.CaptureLayer(j, s.host.Keys(j, slot), s.host.Values(j, slot))
			}
		}
		s.commitPrefix(slot, cand)
	}
	st.committed = target
}
