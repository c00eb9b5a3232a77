package runtime

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/xtrace"
)

// Prefill has one implementation: a prefill advances a group of slots by
// one chunk of prompt positions at a time. A monolithic admission (Admit,
// AdmitKV, and the Generate driver's batched admission) is the chunk that
// covers the whole remaining prompt of every slot in its group; a chunked
// prefill (BeginPrefill/PrefillChunk) advances one slot ChunkTokens positions
// at a time, so a long prefill never monopolizes a serving step — the
// scheduler interleaves one bounded chunk between decode steps and the live
// batch's TPOT spike is capped by construction (the APEX/HeteGen split).
//
// Exactness. Chunk-by-chunk prefill is bit-identical to a whole-prompt chunk
// because the model is strictly causal and strictly per-row: AttentionAt
// appends the chunk's K/V rows to the slot's cache and masks each new row to
// attend only to positions ≤ its own, and every other per-row operation
// (layer norms, projections, per-row softmax, MLP) never mixes rows.
// Splitting the prompt therefore changes neither any row's inputs nor the
// order of its floating-point operations.
//
// Quantized slots need one extra invariant: all prompt attention reads raw
// float32 K/V (quantization happens only when finished rows are appended to
// the slot's store). So while a prefill is in flight, the session retains the
// raw rows of every processed chunk in a live host-side cache and later
// chunks attend against those — never against the store's quantized copies.
// The per-chunk store appends are still exact because quantization groups
// align to rows (the ladder config's group size divides the hidden
// dimension), so chunk boundaries never split a quantization group.
type prefill struct {
	slots   []int   // consecutive slot indices
	prompts [][]int // one per slot, all the same length
	match   *PrefixMatch
	reused  int // prompt tokens seeded from the prefix store (one-slot groups only)
	done    int // prompt tokens processed so far per slot (including reused)

	// live holds the raw float32 K/V rows of prompts[i][:done] as its
	// sequence i for every layer (staged-store mode only; host-resident mode
	// accumulates into the slots' host rows directly, which are already raw).
	live *model.KVCache

	// committed tracks how many prompt tokens are already durable in the
	// prefix store (block-aligned). Each completed chunk commits its full
	// blocks, so a cancelled or evicted prefill resumes from the last
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
	p := s.chunk[slot]
	return p.done, len(p.prompts[0])
}

// ChunkHostBytes returns the host bytes retained by in-flight chunked
// prefills: the raw live K/V rows held until each prefill completes. The
// admission model's ChunkStateBytes term predicts this peak per slot.
func (s *Session) ChunkHostBytes() int64 {
	var total int64
	for _, p := range s.chunk {
		if p != nil && p.live != nil {
			total += p.live.Bytes()
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
	p, err := s.openPrefill([]int{slot}, [][]int{append([]int(nil), prompt...)}, quantKV)
	if err != nil {
		return err
	}
	s.chunk[slot] = p
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
	p := s.chunk[slot]
	s.chunk[slot] = nil
	s.closePrefill(p)
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
	p := s.chunk[slot]
	total = len(p.prompts[0])
	toks, err := s.runPrefill(ctx, p, min(total-p.done, maxTokens), xtrace.TaskPrefillChunk)
	if err != nil {
		return p.done, total, 0, err
	}
	if p.done == total {
		s.chunk[slot] = nil
		tok = toks[0]
	}
	return p.done, total, tok, nil
}

// openPrefill validates and pins free slots for a prefill of prompts: each
// slot's KV storage mode is pinned for its next occupant, a one-slot group
// acquires the longest cached prefix (which counts as already done), and a
// staged-store session gets the live cache that prefill attention reads.
func (s *Session) openPrefill(slots []int, prompts [][]int, quantKV bool) (*prefill, error) {
	for i, slot := range slots {
		if err := s.checkFree(slot, prompts[i]); err != nil {
			return nil, err
		}
		if len(prompts[i]) != len(prompts[0]) {
			return nil, fmt.Errorf("runtime: ragged prompt lengths %d and %d", len(prompts[0]), len(prompts[i]))
		}
	}
	p := &prefill{slots: slots, prompts: prompts}
	for _, slot := range slots {
		if err := s.pinSlot(slot, quantKV); err != nil {
			s.closePrefill(p)
			return nil, err
		}
	}
	if len(slots) == 1 {
		if m := s.acquirePrefix(slots[0], prompts[0]); m != nil {
			p.match, p.reused, p.done, p.committed = m, m.Tokens(), m.Tokens(), m.Tokens()
		}
	}
	if s.kv != nil {
		cfg := s.e.mod.Cfg
		p.live = model.NewKVCache(cfg.Layers, len(slots), cfg.Hidden)
	}
	return p, nil
}

// closePrefill abandons an unfinished prefill: its prefix pin is released and
// each slot's partial KV and storage mode are dropped.
func (s *Session) closePrefill(p *prefill) {
	p.match.Release()
	for _, slot := range p.slots {
		s.unpinSlot(slot)
		s.dropSlotKV(slot)
	}
}

// runPrefill advances every slot of p by one chunk of n prompt tokens. Each
// try is marked, traced as one op span, and rolled back on failure (the live
// rows included); a failed try is retried as op and, past the second, takes
// a degradation rung. After success the chunk's full prefix blocks are
// committed — never from a rolled-back attempt, so a fault cannot seed the
// shared cache — and the final chunk activates every slot and returns their
// first generated tokens.
func (s *Session) runPrefill(ctx context.Context, p *prefill, n int, op string) ([]int, error) {
	total := len(p.prompts[0])
	final := p.done+n == total
	// The chunk span carries its token count in the Step label so the
	// conformance harness can assert structurally that no chunk exceeded the
	// configured bound.
	labels := xtrace.At(-1, -1, p.slots[0])
	if op == xtrace.TaskPrefillChunk {
		labels = xtrace.At(n, -1, p.slots[0])
	}
	var cand *PrefixCandidate
	target := p.done + n
	if s.prefix != nil {
		target -= target % s.prefix.BlockTokens()
		cand = s.prefix.NewCandidate(p.prompts[0][:target], p.committed)
	}
	var toks []int
	var took time.Duration
	err := s.attempt(ctx, op, func(ctx context.Context) (err error) {
		s.hostPrefill(p)
		var liveLens [][]int
		if p.live != nil {
			liveLens = p.live.SeqLens()
		}
		t0 := time.Now()
		toks, err = s.prefillOnce(ctx, p, n, final, cand)
		took = time.Since(t0)
		s.e.task(op, xtrace.LaneEngine, t0, labels)
		if err != nil && liveLens != nil {
			p.live.TruncateTo(liveLens)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p.done += n
	if cand != nil {
		s.commitPrefix(p.slots[0], cand)
		p.committed = target
	}
	if final {
		for i, slot := range p.slots {
			s.activate(slot, total, toks[i])
		}
		s.e.stats.addTokens(len(p.slots))
		if p.match != nil {
			s.prefixRefs[p.slots[0]], s.reused[p.slots[0]] = p.match, p.reused
		}
	}
	// Prefill is compute too: a drifted machine stretches it the same way
	// Step is stretched.
	s.e.driftStall(ctx, took)
	return toks, nil
}

// hostPrefill moves p to the host cache once a degradation rung has migrated
// the session there (during this prefill or any other operation). The live
// cache holds the raw rows of every completed chunk — the values prefill
// attention reads in every mode — so they become the slots' host rows;
// per-slot quantization no longer applies.
func (s *Session) hostPrefill(p *prefill) {
	if s.kv != nil || p.live == nil {
		return
	}
	for i, slot := range p.slots {
		for j := range s.host.Layers() {
			s.host.SetKV(j, slot, p.live.Keys(j, i), p.live.Values(j, i))
		}
		s.quantKV[slot] = false
	}
	p.live = nil
}

// prefillOnce is one attempt at one chunk of p (FlexGen steps 1.1–1.3):
// embed each slot's next n prompt tokens at their absolute positions, stream
// every layer's weights once while the group's stacked rows run attention and
// MLP, and move each slot's new rows to its store (store_cache) as the layer
// finishes, capturing the first slot's rows for the prefix candidate.
//
// With a prefix match, the first chunk's attention runs against the stored
// prefix K/V seeded into each layer. Causal attention makes this
// bit-identical to a cold prefill — a prefix token's K/V depends only on
// prefix tokens — and the first computed chunk stores the seeded rows along
// with its own, so the slot's store ends up holding exactly the chunks a cold
// prefill leaves. The final chunk projects each slot's last row into its
// first generated token.
func (s *Session) prefillOnce(ctx context.Context, p *prefill, n int, final bool, cand *PrefixCandidate) (toks []int, err error) {
	defer recoverAsError(&err)
	e := s.e
	cfg := e.mod.Cfg
	base := p.done
	x := make([]*tensor.Tensor, len(p.slots))
	for i, prompt := range p.prompts {
		x[i] = e.mod.Embed(prompt[base:base+n], base)
	}
	e.stats.addBytes(&e.stats.ActUpBytes, int64(len(x)*n*cfg.Hidden)*4)
	// Prefill attention reads raw rows: the live cache in staged mode, the
	// slots' host rows otherwise.
	cache, seq := s.host, p.slots[0]
	if p.live != nil {
		cache, seq = p.live, 0
	}
	// A chunk that starts the live cache from scratch (a whole-prompt chunk)
	// drops each layer's rows once stored: nothing reads them afterwards and a
	// retry rebuilds them. A final chunk after earlier ones keeps them until
	// the prefill completes, because a retry still needs those chunks' rows.
	drop := final && base == p.reused
	var out model.AttentionOutput
	err = e.forEachLayer(ctx, func(j int, lw *model.LayerWeights) error {
		if p.match != nil && cache.SeqLen(j, seq) == 0 {
			pk, pv := p.match.SeedLayer(j)
			cache.SetKV(j, seq, pk, pv)
		}
		t0 := time.Now()
		out = model.AttentionAt(e.pool, e.policy.IntraOp, cfg, lw, cache, j, seq, x)
		model.MLPSeq(e.pool, e.policy.IntraOp, cfg, lw, x)
		e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.At(-1, j, p.slots[0]))
		return nil
	}, func(j int) error {
		for i, slot := range p.slots {
			k, v := cache.Keys(j, seq+i), cache.Values(j, seq+i)
			if cand != nil && i == 0 {
				cand.CaptureLayer(j, k, v)
			}
			if p.live == nil {
				continue // host rows are already in place
			}
			if drop {
				p.live.SetKV(j, i, nil, nil)
			}
			if base > p.reused {
				k, v = out.NewK[i], out.NewV[i]
			}
			if err := e.storeChunk(ctx, s.kv, j, slot, k, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || !final {
		return nil, err
	}
	hidden := tensor.New(len(x), cfg.Hidden)
	for i, xi := range x {
		copy(hidden.Row(i), xi.Row(n-1))
	}
	return tensor.ArgmaxRows(e.mod.Logits(e.pool, e.policy.IntraOp, hidden)), nil
}
