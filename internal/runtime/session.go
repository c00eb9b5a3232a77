package runtime

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

// Session is the engine's one implementation of a generation step: a fixed
// number of KV slots that independent sequences join and leave at
// decode-step boundaries. Admit prefills a prompt into a free slot, Step
// advances every active slot by one token (each at its own position), and
// Retire recycles a slot's KV storage for the next request. Generate,
// GenerateStream and Resume are drivers over a session with one slot per
// prompt. The model stacks a group's rows through each weight matrix, but
// every row's arithmetic — attention, MLP, and logits — is independent of
// the other rows, so a sequence's tokens are bit-identical to what a solo
// Engine.Generate run would produce, regardless of which other sequences
// share the batch — the property the serving layer's differential tests pin
// down.
//
// A Session owns the engine's arena and stats while it is live: do not run
// Generate on the same engine concurrently, and drive the session from one
// goroutine (the serving scheduler's loop). Transient faults retry inside each
// operation, failed steps roll back every slot's partial KV appends before
// retrying, and repeated failures take the degradation ladder (degradeOnce).
//
// Under memory pressure, the serving scheduler can additionally move
// individual slots down the KV-pressure ladder: SetQuantizeNewSlots makes
// newly admitted slots store their KV quantized, and SpillSlot migrates one
// slot's KV to the host cache so it stops staging into the GPU arena (its
// attention runs on the CPU from then on). Both transitions preserve the
// slot's token stream exactly against the matching solo Generate run: a
// quantized slot produces the tokens a QuantKV engine would, and a spilled
// slot keeps producing the tokens its storage mode dictates, because the
// host copy round-trips through the same (de)quantization the staged path
// performs.
type Session struct {
	e     *Engine
	slots int

	// grouped sessions (the Generate driver's) stage GPU-path slots in groups
	// of Policy.GPUBatch and, under Prefetch, overlap the next group's
	// load_cache with the current group's compute. Other sessions stage one
	// slot at a time, which is what StagedKVBytes reports per slot.
	grouped bool

	// kv is the GPU-staged store (nil once the degradation ladder migrates
	// everything to host). host is the host-resident cache: it holds spilled
	// slots while kv is live, and every slot after full migration.
	kv   *KVStore
	host *model.KVCache

	active []bool
	pos    []int // per-slot next token position (tokens cached so far)
	last   []int // per-slot last generated token

	spilled   []bool         // slot's KV is host-resident (CPU attention)
	quantKV   []bool         // slot's KV is stored quantized
	slotCfgs  []quant.Config // quant config per quantized slot (for sealing)
	quantNew  bool           // ladder rung 1: quantize newly admitted slots
	ladderCfg quant.Config

	// prefix is the optional shared-prefix KV cache (UsePrefixStore). Each
	// admitted slot that seeded from it holds its match pinned until Retire;
	// reused records the seeded token count per slot.
	prefix     *PrefixStore
	prefixRefs []*PrefixMatch
	reused     []int

	// chunk holds per-slot in-flight chunked prefills (BeginPrefill /
	// PrefillChunk); a slot with a pending chunk state is not active yet.
	chunk []*prefill
}

// SlotToken is one decode-step result: the token generated for a slot.
type SlotToken struct {
	Slot  int
	Token int
}

// NewSession creates a continuous-batching session with the given number of
// sequence slots. The engine's fault injector must be wired (SetFaultInjector)
// before the session is created for KV corruption probes to reach the store.
func (e *Engine) NewSession(slots int) (*Session, error) { return e.newSession(slots, false) }

func (e *Engine) newSession(slots int, grouped bool) (*Session, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("runtime: session needs at least one slot, got %d", slots)
	}
	cfg := e.mod.Cfg
	s := &Session{
		e:          e,
		slots:      slots,
		grouped:    grouped,
		active:     make([]bool, slots),
		pos:        make([]int, slots),
		last:       make([]int, slots),
		spilled:    make([]bool, slots),
		quantKV:    make([]bool, slots),
		slotCfgs:   make([]quant.Config, slots),
		prefixRefs: make([]*PrefixMatch, slots),
		reused:     make([]int, slots),
		chunk:      make([]*prefill, slots),
	}
	if e.policy.AttnOnCPU {
		s.host = model.NewKVCache(cfg.Layers, slots, cfg.Hidden)
		return s, nil
	}
	kv, err := NewKVStore(cfg.Layers, slots, e.policy.QuantKV, e.policy.KVCfg, e.policy.HostF16)
	if err != nil {
		return nil, err
	}
	kv.UsePool(e.pool, e.policy.IntraOp)
	kv.UseFaults(e.faults)
	s.kv = kv
	return s, nil
}

// Slots returns the session's slot count.
func (s *Session) Slots() int { return s.slots }

// IsActive reports whether slot holds a live sequence.
func (s *Session) IsActive(slot int) bool {
	return slot >= 0 && slot < s.slots && s.active[slot]
}

// ActiveSlots returns the live slot indices in slot order.
func (s *Session) ActiveSlots() []int {
	var out []int
	for i, a := range s.active {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// NumActive returns the live sequence count.
func (s *Session) NumActive() int {
	n := 0
	for _, a := range s.active {
		if a {
			n++
		}
	}
	return n
}

// Pos returns the next token position of a slot (its cached token count).
func (s *Session) Pos(slot int) int { return s.pos[slot] }

// slotOnHost reports whether the slot's KV lives in the host cache (either
// individually spilled or because the whole session migrated).
func (s *Session) slotOnHost(slot int) bool { return s.kv == nil || s.spilled[slot] }

// SlotQuantizedKV reports whether the slot stores its KV quantized (by
// policy or by the pressure ladder's quantize-new-slots rung).
func (s *Session) SlotQuantizedKV(slot int) bool {
	return slot >= 0 && slot < s.slots && s.quantKV[slot]
}

// StagedKVBytes returns the GPU-arena bytes the slot stages per decode step
// (the dequantized K+V working copy). Host-resident slots stage nothing.
func (s *Session) StagedKVBytes(slot int) int64 {
	if slot < 0 || slot >= s.slots || !s.active[slot] || s.slotOnHost(slot) {
		return 0
	}
	return 2 * int64(s.pos[slot]) * int64(s.e.mod.Cfg.Hidden) * 4
}

// HostKVBytes returns the host-side KV footprint of the session's storage
// (the staged store plus any spilled slots).
func (s *Session) HostKVBytes() int64 {
	var total int64
	if s.kv != nil {
		total += s.kv.HostBytes()
	}
	if s.host != nil {
		total += s.host.Bytes()
	}
	return total
}

// SetQuantizeNewSlots toggles the pressure ladder's first rung: when on,
// slots admitted from now on store their KV quantized with cfg. Existing
// slots are unaffected (their storage mode is fixed at admission so their
// token streams stay exact). The config's group size must divide the model's
// hidden dimension so quantization groups align to rows — the property that
// makes prefill-chunk and per-token-chunk quantization bit-identical.
func (s *Session) SetQuantizeNewSlots(on bool, cfg quant.Config) error {
	if !on {
		s.quantNew = false
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.e.mod.Cfg.Hidden%cfg.GroupSize != 0 {
		return fmt.Errorf("runtime: ladder KV group size %d must divide hidden %d",
			cfg.GroupSize, s.e.mod.Cfg.Hidden)
	}
	s.quantNew, s.ladderCfg = true, cfg
	return nil
}

// QuantizeNewSlots reports whether ladder rung 1 is engaged.
func (s *Session) QuantizeNewSlots() bool { return s.quantNew }

// UsePrefixStore attaches a shared-prefix KV cache: subsequent admissions
// seed their slot from the longest cached prefix (prefilling only the
// suffix) and insert their own full blocks on success. Seeding is exact in
// every storage mode — the store holds the raw float32 prefill values, which
// is what live prefill attention reads before any per-slot quantization —
// so the slot's token stream stays bit-identical to a cold prefill. Call
// before the first Admit; passing nil disables reuse.
func (s *Session) UsePrefixStore(ps *PrefixStore) { s.prefix = ps }

// PrefixStore returns the attached shared-prefix cache (nil when disabled).
func (s *Session) PrefixStore() *PrefixStore { return s.prefix }

// SlotReusedTokens reports how many prompt tokens the slot seeded from the
// prefix cache at admission (0 for cold prefills and inactive slots).
func (s *Session) SlotReusedTokens(slot int) int {
	if slot < 0 || slot >= s.slots || !s.active[slot] {
		return 0
	}
	return s.reused[slot]
}

// prefixEvent records an instantaneous prefix-cache marker on the serve lane.
func (s *Session) prefixEvent(name string, slot int) {
	if rec := s.e.Tracer(); rec != nil {
		rec.Event(name, xtrace.LaneServe, time.Now(), xtrace.At(-1, -1, slot))
	}
}

// commitPrefix inserts a candidate's blocks into the prefix store, counting
// and tracing the inserts and evictions.
func (s *Session) commitPrefix(slot int, cand *PrefixCandidate) {
	inserted, evicted := s.prefix.Commit(cand)
	if inserted > 0 {
		s.e.stats.RecordPrefixInserts(int64(inserted))
		s.prefixEvent(xtrace.TaskPrefixInsert, slot)
	}
	if evicted > 0 {
		s.e.stats.RecordPrefixEvictions(int64(evicted))
		s.prefixEvent(xtrace.TaskPrefixEvict, slot)
	}
}

// acquirePrefix pins the longest cached prefix of prompt, leaving at least
// one token to prefill (the last token's forward pass produces the first
// generated token). It returns nil without a prefix store or on a miss.
func (s *Session) acquirePrefix(slot int, prompt []int) *PrefixMatch {
	if s.prefix == nil {
		return nil
	}
	t0 := time.Now()
	m := s.prefix.Acquire(prompt, len(prompt)-1)
	if m == nil {
		s.e.stats.RecordPrefixMiss()
		return nil
	}
	s.e.stats.RecordPrefixHit(m.Tokens())
	s.e.task(xtrace.TaskPrefixHit, xtrace.LaneServe, t0, xtrace.At(-1, -1, slot))
	return m
}

// ensureHost lazily creates the host-side cache used by spilled slots.
func (s *Session) ensureHost() {
	if s.host == nil {
		cfg := s.e.mod.Cfg
		s.host = model.NewKVCache(cfg.Layers, s.slots, cfg.Hidden)
	}
}

// fetchSlot reads every layer of a staged slot back to float32 (dequantized
// for quantized slots), retrying transient faults as op. It installs
// nothing, so on failure the staged copy stays authoritative.
func (s *Session) fetchSlot(ctx context.Context, op string, slot int) (ks, vs []*tensor.Tensor, err error) {
	layers := s.e.mod.Cfg.Layers
	ks, vs = make([]*tensor.Tensor, layers), make([]*tensor.Tensor, layers)
	for l := range layers {
		err := s.e.withRetry(ctx, op, func() error {
			var ferr error
			ks[l], vs[l], _, ferr = s.kv.Fetch(l, slot)
			return ferr
		})
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: fetching slot %d layer %d: %w", slot, l, err)
		}
	}
	return ks, vs, nil
}

// setHostSlot installs one slot's per-layer rows into the host cache.
func (s *Session) setHostSlot(slot int, ks, vs []*tensor.Tensor) {
	for l := range ks {
		s.host.SetKV(l, slot, ks[l], vs[l])
	}
}

// dropSlotKV discards a slot's rows from both stores.
func (s *Session) dropSlotKV(slot int) {
	if s.kv != nil {
		s.kv.ResetSlot(slot)
	}
	if s.host != nil {
		for l := range s.host.Layers() {
			s.host.SetKV(l, slot, nil, nil)
		}
	}
}

// SpillSlot migrates one active slot's KV from the staged store to the host
// cache (ladder rung 2). The slot's attention runs on the CPU afterwards and
// it stops consuming GPU-arena staging space. The migration is exact: Fetch
// reconstructs precisely the float32 values the staged path would have seen
// (dequantized for quantized slots), and quantized slots keep sealing their
// new rows through the same quantization round-trip. On failure the staged
// copy is intact and the slot keeps running unspilled.
func (s *Session) SpillSlot(ctx context.Context, slot int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if slot < 0 || slot >= s.slots || !s.active[slot] {
		return fmt.Errorf("runtime: spill of inactive slot %d", slot)
	}
	if s.slotOnHost(slot) {
		return nil
	}
	t0 := time.Now()
	ks, vs, err := s.fetchSlot(ctx, "kv_spill", slot)
	if err != nil {
		return err
	}
	s.ensureHost()
	s.setHostSlot(slot, ks, vs)
	s.kv.ResetSlot(slot)
	s.spilled[slot] = true
	s.e.stats.RecordSpill()
	s.e.task(xtrace.TaskKVSpill, xtrace.LaneKVDown, t0, xtrace.At(-1, -1, slot))
	return nil
}

// sealHostRows round-trips the last rows of a host-resident quantized slot
// through its quantization config, so the values later attention reads match
// what a staged fetch would have dequantized. The current step's attention
// has already consumed the raw rows — the same order of operations as the
// staged path, where store_cache quantizes after compute.
func (s *Session) sealHostRows(layer, slot, rows int) error {
	cfg := s.e.mod.Cfg
	qc := s.slotCfgs[slot]
	for _, t := range []*tensor.Tensor{s.host.Keys(layer, slot), s.host.Values(layer, slot)} {
		n := t.Dim(0)
		if rows > n {
			return fmt.Errorf("runtime: sealing %d rows of %d (layer %d, slot %d)", rows, n, layer, slot)
		}
		sub := tensor.New(rows, cfg.Hidden)
		for r := 0; r < rows; r++ {
			copy(sub.Row(r), t.Row(n-rows+r))
		}
		q, err := quant.QuantizeParallel(s.e.pool, s.e.policy.IntraOp, sub, qc)
		if err != nil {
			return err
		}
		dq := quant.DequantizeParallel(s.e.pool, s.e.policy.IntraOp, q)
		for r := 0; r < rows; r++ {
			copy(t.Row(n-rows+r), dq.Row(r))
		}
	}
	return nil
}

// sessionMark is a rollback point over the session's KV storage, taken
// before a mutating operation so a failed attempt can be undone without
// touching the slots the operation never reached.
type sessionMark struct {
	kv   [][]int
	host [][]int
}

func (s *Session) mark() sessionMark {
	var m sessionMark
	if s.kv != nil {
		m.kv = s.kv.Mark()
	}
	if s.host != nil {
		m.host = s.host.SeqLens()
	}
	return m
}

// rollback undoes appends since the mark on both stores. When the store
// migrated to host between mark and rollback (a degradation rung), per-slot
// lengths carry over 1:1, so the host truncation covers the kv mark too.
func (s *Session) rollback(m sessionMark) {
	if s.kv != nil && m.kv != nil {
		s.kv.Rollback(m.kv)
	}
	if s.host != nil && m.host != nil {
		s.host.TruncateTo(m.host)
	}
}

// attempt runs one atomic session operation: each try is marked and runs
// under the step deadline; a failed try is rolled back, counted as a retry of
// op, and tried again, and every try past the second first takes one rung of
// the degradation ladder. Cancellation surfaces between tries as ctx.Err().
func (s *Session) attempt(ctx context.Context, op string, try func(context.Context) error) error {
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := s.mark()
		stepCtx, cancel := s.e.stepContext(ctx)
		err := try(stepCtx)
		cancel()
		if err == nil {
			return nil
		}
		s.rollback(m)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if n >= maxStepAttempts {
			return fmt.Errorf("runtime: %s failed after %d attempts: %w", op, n, err)
		}
		s.e.stats.addRetry(op)
		if n >= 2 {
			s.degradeOnce(ctx)
		}
	}
}

// checkFree validates a slot and prompt for admission.
func (s *Session) checkFree(slot int, prompt []int) error {
	switch {
	case slot < 0 || slot >= s.slots:
		return fmt.Errorf("runtime: slot %d outside [0, %d)", slot, s.slots)
	case s.active[slot]:
		return fmt.Errorf("runtime: admit into occupied slot %d", slot)
	case s.chunk[slot] != nil:
		return fmt.Errorf("runtime: slot %d has a chunked prefill in flight", slot)
	case len(prompt) == 0:
		return fmt.Errorf("runtime: admit with empty prompt")
	}
	return nil
}

// pinSlot fixes a free slot's KV storage mode for its next occupant:
// quantized with the policy config when the store quantizes, with the ladder
// config when quantKV asks for it, raw otherwise.
func (s *Session) pinSlot(slot int, quantKV bool) error {
	s.spilled[slot] = false
	s.quantKV[slot] = false
	switch {
	case s.kv != nil && s.kv.Quantized():
		s.slotCfgs[slot] = s.e.policy.KVCfg
	case quantKV && s.kv != nil:
		if s.ladderCfg.Bits == 0 {
			return fmt.Errorf("runtime: quantized admit without a ladder config (call SetQuantizeNewSlots first)")
		}
		if err := s.kv.SetSlotQuant(slot, &s.ladderCfg); err != nil {
			return err
		}
		s.slotCfgs[slot] = s.ladderCfg
	default:
		return nil
	}
	s.quantKV[slot] = true
	return nil
}

// unpinSlot undoes pinSlot after a failed admission.
func (s *Session) unpinSlot(slot int) {
	if s.kv != nil {
		s.kv.SetSlotQuant(slot, nil)
	}
	s.quantKV[slot] = false
}

// activate makes a prefilled slot live at position pos with last token tok.
func (s *Session) activate(slot, pos, tok int) {
	s.active[slot], s.pos[slot], s.last[slot] = true, pos, tok
}

// Admit prefills prompt into a free slot and returns the first generated
// token, quantizing the slot's KV when the pressure ladder says so. The slot
// becomes active; subsequent Step calls extend it. Transient failures retry
// with full rollback of the partial prefill, taking the degradation ladder
// past the second attempt.
func (s *Session) Admit(ctx context.Context, slot int, prompt []int) (int, error) {
	return s.AdmitKV(ctx, slot, prompt, s.quantNew)
}

// AdmitKV is Admit with the slot's KV storage mode pinned by the caller:
// quantKV stores the slot's KV quantized with the ladder config regardless
// of the ladder's current rung. The scheduler uses this to keep a request's
// storage mode sticky across evict/resume, so its token stream stays exact
// against one solo reference.
func (s *Session) AdmitKV(ctx context.Context, slot int, prompt []int, quantKV bool) (int, error) {
	toks, err := s.admit(ctx, []int{slot}, [][]int{prompt}, quantKV)
	if err != nil {
		return 0, err
	}
	return toks[0], nil
}

// admit prefills equal-length prompts into consecutive free slots as one
// whole-prompt chunk — one load_weight per layer and one prefill span per
// attempt for the whole group — and returns each slot's first generated
// token. A single slot seeds from the prefix store when one is attached.
func (s *Session) admit(ctx context.Context, slots []int, prompts [][]int, quantKV bool) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := s.openPrefill(slots, prompts, quantKV)
	if err != nil {
		return nil, err
	}
	toks, err := s.runPrefill(ctx, p, len(prompts[0])-p.done, xtrace.TaskPrefill)
	if err != nil {
		s.closePrefill(p)
		return nil, err
	}
	return toks, nil
}

// Step advances every active slot by one token and returns the new token per
// slot (in slot order). It returns (nil, nil) when no slot is active. A
// failed step rolls every slot back to the pre-step mark before retrying, so
// a fault in one sequence never corrupts its neighbours.
func (s *Session) Step(ctx context.Context) ([]SlotToken, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	act := s.ActiveSlots()
	if len(act) == 0 {
		return nil, nil
	}
	var next []int
	var took time.Duration
	err := s.attempt(ctx, "decode_step", func(ctx context.Context) (err error) {
		t0 := time.Now()
		next, err = s.stepOnce(ctx, act)
		took = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]SlotToken, len(act))
	for i, slot := range act {
		s.pos[slot]++
		s.last[slot] = next[i]
		out[i] = SlotToken{Slot: slot, Token: next[i]}
	}
	s.e.stats.addTokens(len(act))
	// Under an installed drift schedule the machine is `factor` slower:
	// stretch the completed step accordingly so serving latency, the
	// step-cost fit, and the adapt loop all observe the drifted regime.
	s.e.driftStall(ctx, took)
	return out, nil
}

// stepOnce is one decode-step attempt over the active slots, with the six
// tasks of Algorithm 1 overlapped when Prefetch is on. Each sequence embeds
// its token at its own absolute position, then every layer streams its
// weights once and the slots compute group by group against their own KV.
func (s *Session) stepOnce(ctx context.Context, act []int) (next []int, err error) {
	defer recoverAsError(&err)
	e := s.e
	cfg := e.mod.Cfg
	x := make([]*tensor.Tensor, len(act))
	for i, slot := range act {
		x[i] = e.mod.Embed([]int{s.last[slot]}, s.pos[slot])
	}
	actBytes := int64(len(act)) * int64(cfg.Hidden) * 4
	e.stats.addBytes(&e.stats.ActUpBytes, actBytes)
	host, gpu := s.stageGroups(act)
	err = e.forEachLayer(ctx, func(j int, lw *model.LayerWeights) error {
		e.loadActivations(x)
		if err := s.stepLayer(ctx, j, lw, host, gpu, x); err != nil {
			return err
		}
		e.storeActivations(x)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	next = tensor.ArgmaxRows(e.mod.Logits(e.pool, e.policy.IntraOp, rowsOf(x, cfg.Hidden)))
	// Layer -1 marks the logits projection so per-layer aggregation can
	// separate it from transformer-block compute.
	e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.NoLabels)
	e.stats.addBytes(&e.stats.ActDownBytes, actBytes)
	return next, nil
}

// stageGroup is a run of active slots with consecutive indices and the same
// KV placement that computes one layer together (Algorithm 1's GPU batch):
// x[lo:hi] are their hidden states and first is the lowest slot.
type stageGroup struct{ lo, hi, first int }

// stageWidth is how many slots one group holds: Policy.GPUBatch (0 = every
// slot) in a grouped session, one otherwise.
func (s *Session) stageWidth() int {
	if !s.grouped {
		return 1
	}
	g := s.e.policy.GPUBatch
	if g <= 0 || g > s.slots {
		g = s.slots
	}
	return g
}

// stageGroups splits the active slots into host-resident and GPU-path
// compute groups of at most stageWidth slots each.
func (s *Session) stageGroups(act []int) (host, gpu []stageGroup) {
	width := s.stageWidth()
	var last *[]stageGroup
	for i, slot := range act {
		gs := &gpu
		if s.slotOnHost(slot) {
			gs = &host
		}
		if n := len(*gs); n > 0 && gs == last && (*gs)[n-1].hi-(*gs)[n-1].lo < width && act[i-1] == slot-1 {
			(*gs)[n-1].hi++
			continue
		}
		*gs = append(*gs, stageGroup{lo: i, hi: i + 1, first: slot})
		last = gs
	}
	return host, gpu
}

// stepLayer runs one layer over every group.
//
// When inter-op parallelism is enabled and the batch mixes host-resident and
// GPU-path slots, the host groups' CPU attention co-runs with the GPU groups'
// stage/compute/store chain — the Eq. 2 overlap extended with the CPU as a
// concurrent compute resource (APEX/HeteGen's heterogeneous split) instead of
// a serialization point. The two partitions own disjoint slots, caches, and
// hidden tensors, so overlapped execution is bit-identical to serial
// execution regardless of scheduling order (the same argument as
// Engine.runAttention).
func (s *Session) stepLayer(ctx context.Context, j int, lw *model.LayerWeights, host, gpu []stageGroup, x []*tensor.Tensor) error {
	e := s.e
	runHost := func(pool *threadpool.Pool, width int) error {
		for _, g := range host {
			if err := s.computeGroup(ctx, j, lw, g, x[g.lo:g.hi], nil, pool, width); err != nil {
				return err
			}
		}
		return nil
	}
	if len(host) > 0 && len(gpu) > 0 && e.policy.InterOp > 1 && e.pool != nil {
		if sched, err := threadpool.NewInterOp(e.pool, 2); err == nil {
			var hostErr error
			sched.Submit(threadpool.Op{
				Name:  fmt.Sprintf("cpu_attn[layer %d]", j),
				Width: e.policy.IntraOp,
				Run:   func(pool *threadpool.Pool, width int) { hostErr = runHost(pool, width) },
			})
			gpuErr := s.gpuGroups(ctx, j, lw, gpu, x)
			if werr := sched.Wait(); werr != nil && gpuErr == nil {
				gpuErr = werr
			}
			if gpuErr != nil {
				return gpuErr
			}
			return hostErr
		}
	}
	if len(host) > 0 {
		if err := runHost(e.pool, e.policy.IntraOp); err != nil {
			return err
		}
	}
	return s.gpuGroups(ctx, j, lw, gpu, x)
}

// gpuGroups runs one layer over the GPU-path groups in order: load_cache
// stages a group's KV into the arena, the group computes and persists its new
// rows, and the staging is released. In a grouped session under Prefetch the
// next group's load_cache runs while the current group computes (Algorithm 1
// lines 11–13); an abandoned in-flight load is drained before returning so
// its arena reservation cannot leak.
func (s *Session) gpuGroups(ctx context.Context, j int, lw *model.LayerWeights, groups []stageGroup, x []*tensor.Tensor) error {
	e := s.e
	overlap := s.grouped && e.policy.Prefetch
	var ahead chan fetchedKV // the next group's in-flight load_cache
	if overlap && len(groups) > 0 {
		ahead = s.loadAhead(ctx, j, groups[0])
	}
	defer func() {
		if ahead != nil {
			e.freeGPU((<-ahead).fetched)
		}
	}()
	for i, g := range groups {
		var kv fetchedKV
		if ahead != nil {
			kv, ahead = <-ahead, nil
		} else {
			kv = e.loadCacheBatch(ctx, s.kv, j, g.first, g.hi-g.lo)
		}
		if overlap && i+1 < len(groups) {
			ahead = s.loadAhead(ctx, j, groups[i+1])
		}
		if kv.err != nil {
			return kv.err
		}
		if err := func() error {
			defer e.freeGPU(kv.fetched)
			return s.computeGroup(ctx, j, lw, g, x[g.lo:g.hi], kv.cache, e.pool, e.policy.IntraOp)
		}(); err != nil {
			return err
		}
	}
	return nil
}

// loadAhead starts a group's load_cache in the background.
func (s *Session) loadAhead(ctx context.Context, j int, g stageGroup) chan fetchedKV {
	ch := make(chan fetchedKV, 1)
	go func() { ch <- s.e.loadCacheBatch(ctx, s.kv, j, g.first, g.hi-g.lo) }()
	return ch
}

// computeGroup is one (layer, group) iteration: attention and MLP against
// staged, then store_cache of the new rows — or, for a host-resident group
// (nil staged), attention against the host cache, sealing the new row of
// each quantized slot for the steps that follow (attention consumed it raw,
// matching the staged path, which quantizes only at store_cache time).
func (s *Session) computeGroup(ctx context.Context, j int, lw *model.LayerWeights, g stageGroup, x []*tensor.Tensor, staged *model.KVCache, pool *threadpool.Pool, width int) error {
	e := s.e
	if err := e.probeWorkerPanic(); err != nil {
		return err
	}
	cache := staged
	if staged == nil {
		cache = s.host
	}
	t0 := time.Now()
	out, err := e.runAttention(pool, width, lw, cache, j, g.first, x)
	if err != nil {
		return err
	}
	model.MLPSeq(pool, width, e.mod.Cfg, lw, x)
	e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.At(-1, j, g.first))
	for i := range x {
		slot := g.first + i
		switch {
		case staged != nil:
			err = e.storeChunk(ctx, s.kv, j, slot, out.NewK[i], out.NewV[i])
		case s.quantKV[slot]:
			err = s.sealHostRows(j, slot, 1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Retire frees a slot: its KV storage is dropped and the slot becomes
// admissible again. Retiring an inactive slot is a no-op.
func (s *Session) Retire(slot int) {
	if slot < 0 || slot >= s.slots || !s.active[slot] {
		return
	}
	s.active[slot] = false
	s.pos[slot] = 0
	s.last[slot] = 0
	s.spilled[slot] = false
	s.quantKV[slot] = false
	s.reused[slot] = 0
	if m := s.prefixRefs[slot]; m != nil {
		m.Release()
		s.prefixRefs[slot] = nil
	}
	s.dropSlotKV(slot)
}

// degradeOnce takes the next rung of the degradation ladder, trading
// throughput for survivability after repeated step failures: first drop the
// prefetch overlap (the most fault-exposed machinery); then, while the
// session stages more than one slot per group, halve the GPU batch (halving
// the peak staged KV under memory pressure); finally migrate every unspilled
// slot to the host cache and keep attention there, after which no KV bytes
// cross the faulty interconnect. A session staging one slot at a time climbs
// prefetch-off then attn-on-cpu.
func (s *Session) degradeOnce(ctx context.Context) {
	e := s.e
	switch {
	case e.policy.Prefetch:
		e.policy.Prefetch = false
		e.stats.addDegradation("prefetch-off")
	case s.kv != nil && s.stageWidth() > 1:
		e.policy.GPUBatch = s.stageWidth() / 2
		e.stats.addDegradation(fmt.Sprintf("gpu-batch=%d", e.policy.GPUBatch))
	case s.kv != nil:
		if err := s.migrateUnspilled(ctx); err != nil {
			e.stats.addDegradation("attn-on-cpu(migration failed)")
			return
		}
		s.kv = nil
		e.policy.AttnOnCPU = true
		e.policy.QuantKV = false
		e.stats.addDegradation("attn-on-cpu")
	}
}

// migrateUnspilled moves every slot the pressure ladder has not already
// spilled from the staged store into the host cache. Spilled slots keep
// their host rows — rebuilding them from the (now empty) staged store would
// lose them. Every slot is fetched before any is installed, so on failure the
// host cache is untouched and the staged store remains authoritative.
func (s *Session) migrateUnspilled(ctx context.Context) error {
	ks, vs := make([][]*tensor.Tensor, s.slots), make([][]*tensor.Tensor, s.slots)
	for slot := range s.slots {
		if s.spilled[slot] {
			continue
		}
		var err error
		if ks[slot], vs[slot], err = s.fetchSlot(ctx, "kv_migrate", slot); err != nil {
			return err
		}
	}
	s.ensureHost()
	for slot := range s.slots {
		if !s.spilled[slot] {
			s.setHostSlot(slot, ks[slot], vs[slot])
		}
	}
	return nil
}
