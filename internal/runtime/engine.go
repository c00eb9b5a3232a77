package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

// Policy selects the engine's offloading behaviour — the executable subset
// of perfmodel.Strategy.
type Policy struct {
	// AttnOnCPU keeps the KV cache host-resident and computes attention
	// there: no KV traffic, no KV quantization (§3.1 Observation 1).
	AttnOnCPU bool
	// QuantWeights streams layer weights in quantized form, dequantizing on
	// load (Eqs. 3–4).
	QuantWeights bool
	WeightCfg    quant.Config
	// QuantKV stores offloaded KV chunks in quantized form (Eqs. 5–7).
	QuantKV bool
	KVCfg   quant.Config
	// HostF16 stores unquantized host-side tensors (streamed weights, KV
	// chunks) as IEEE half-precision words — the paper's FP16 deployment
	// precision, halving transfer bytes at the cost of FP16 rounding.
	HostF16 bool
	// GPUBatch splits the block into GPU batches of this many sequences,
	// processed one at a time per layer — Algorithm 1's k loop. Zero means
	// the whole block is one batch.
	GPUBatch int
	// ResidentLayers pins the weights of the first N layers in the GPU
	// arena permanently — the functional counterpart of the wg fraction
	// (layer-granular, as real systems place whole matrices).
	ResidentLayers int
	// CompressResident stores the pinned layers in their quantized form
	// (requires QuantWeights), trading a dequantization per use for arena
	// capacity — the functional counterpart of CompressGPUWeights, which is
	// how LM-Offload fits wg=75% of OPT-30B into 40 GB (§5.2).
	CompressResident bool
	// IntraOp is the worker width for tensor operators.
	IntraOp int
	// InterOp co-runs this many independent attention chunks (sequence
	// slices) concurrently within a GPU batch — the engine-level
	// counterpart of §4's inter-op parallelism. Zero or one runs serially.
	InterOp int
	// ActOnCPU keeps hidden activations host-resident between layers
	// (hg = 0): every layer pays the load_activation/store_activation pair
	// of Algorithm 1, with FP16 storage when HostF16 is on.
	ActOnCPU bool
	// Prefetch enables asynchronous task execution: the next layer's
	// weights load while the current layer computes, and KV stores complete
	// in the background (Algorithm 1's overlap).
	Prefetch bool
	// StepTimeout bounds each generation step (prefill or one decode step).
	// A step exceeding it is cancelled, rolled back, and retried — possibly
	// under a degraded policy. Zero disables the deadline.
	StepTimeout time.Duration
}

// Validate reports inconsistent policies.
func (p Policy) Validate() error {
	if p.AttnOnCPU && p.QuantKV {
		return fmt.Errorf("runtime: KV quantization is pointless with attention on CPU (the cache never moves)")
	}
	if p.QuantWeights {
		if err := p.WeightCfg.Validate(); err != nil {
			return err
		}
	}
	if p.QuantKV {
		if err := p.KVCfg.Validate(); err != nil {
			return err
		}
	}
	if p.IntraOp < 1 {
		return fmt.Errorf("runtime: intra-op width must be >= 1, got %d", p.IntraOp)
	}
	if p.GPUBatch < 0 {
		return fmt.Errorf("runtime: GPU batch must be >= 0, got %d", p.GPUBatch)
	}
	if p.InterOp < 0 {
		return fmt.Errorf("runtime: inter-op parallelism must be >= 0, got %d", p.InterOp)
	}
	if p.ResidentLayers < 0 {
		return fmt.Errorf("runtime: resident layers must be >= 0, got %d", p.ResidentLayers)
	}
	if p.CompressResident && !p.QuantWeights {
		return fmt.Errorf("runtime: CompressResident requires QuantWeights")
	}
	if p.StepTimeout < 0 {
		return fmt.Errorf("runtime: step timeout must be >= 0, got %v", p.StepTimeout)
	}
	return nil
}

// maxStepAttempts bounds how many times one generation step (prefill or a
// decode step) is attempted before the run fails. Attempts past the second
// each take one rung of the degradation ladder first.
const maxStepAttempts = 6

// Engine executes generation for one model under an offloading policy.
type Engine struct {
	mod      *model.Model
	weights  *WeightStore
	gpu      *Arena
	pool     *threadpool.Pool
	policy   Policy
	stats    *Stats
	resident []*model.LayerWeights // pinned layers (wg's functional analogue)

	// residentBase is the pinned layers' permanent arena footprint;
	// maxStreamBytes is the largest transient per-layer staging buffer any
	// load can claim. Together they parameterize the admission controller's
	// peak-footprint estimate (internal/perfmodel's memory equations).
	residentBase   int64
	maxStreamBytes int64

	faults    *faults.Injector
	retry     RetryConfig
	ckptEvery int // snapshot every N decode steps (0 = off)
	ckptMu    sync.Mutex
	lastCkpt  *Checkpoint

	// tracer is the optional execution-span recorder. It is an atomic
	// pointer so tracing can be enabled or disabled mid-run (including
	// mid-serve) without synchronizing with in-flight steps; a nil pointer
	// (the default) makes every trace site a single atomic load.
	tracer atomic.Pointer[xtrace.Recorder]
}

// NewEngine builds an engine. gpuArenaBytes bounds the simulated device
// memory; pool supplies the compute workers (nil for serial execution).
func NewEngine(m *model.Model, policy Policy, gpuArenaBytes int64, pool *threadpool.Pool) (*Engine, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	arena, err := NewArena("gpu", gpuArenaBytes)
	if err != nil {
		return nil, err
	}
	if policy.ResidentLayers > m.Cfg.Layers {
		return nil, fmt.Errorf("runtime: %d resident layers exceed the model's %d", policy.ResidentLayers, m.Cfg.Layers)
	}
	// NewWeightStore performs the Eq. 3 one-time weight quantization.
	ws, err := NewWeightStore(m.Layers, policy.QuantWeights, policy.WeightCfg, policy.HostF16)
	if err != nil {
		return nil, err
	}
	ws.UsePool(pool, policy.IntraOp)
	e := &Engine{mod: m, weights: ws, gpu: arena, pool: pool, policy: policy, stats: newStats(), retry: DefaultRetryConfig()}
	// Pin the resident layers: the one-time upload claims arena space for
	// the rest of the run. Compressed residency charges only the packed
	// size but leaves the per-use dequantization to loadLayer.
	e.resident = make([]*model.LayerWeights, policy.ResidentLayers)
	for j := 0; j < policy.ResidentLayers; j++ {
		footprint := ws.ResidentBytes(j)
		if policy.CompressResident {
			footprint = ws.TransferBytes(j)
		}
		if err := arena.Alloc(footprint); err != nil {
			return nil, fmt.Errorf("runtime: pinning layer %d: %w", j, err)
		}
		e.residentBase += footprint
		e.stats.addBytes(&e.stats.WeightUpBytes, ws.TransferBytes(j))
		if !policy.CompressResident {
			e.resident[j] = ws.Load(j)
		}
	}
	// The largest transient staging buffer a layer load can claim: streamed
	// layers stage their dequantized resident copy; compressed-resident
	// layers stage the same scratch per use; uncompressed residents never
	// stage.
	for j := 0; j < m.Cfg.Layers; j++ {
		if j < policy.ResidentLayers && !policy.CompressResident {
			continue
		}
		if b := ws.ResidentBytes(j); b > e.maxStreamBytes {
			e.maxStreamBytes = b
		}
	}
	return e, nil
}

// freeGPU releases arena bytes, downgrading an accounting underflow (a
// rollback racing a pipeline drain) to a counted error instead of a crash.
func (e *Engine) freeGPU(n int64) {
	if err := e.gpu.Free(n); err != nil {
		e.stats.addArenaFreeError()
	}
}

// Stats returns the accumulated accounting.
func (e *Engine) Stats() *Stats { return e.stats }

// ArenaUsed returns the GPU arena bytes currently allocated. Outside an
// in-flight step it must be the pinned resident layers' footprint plus any
// live session staging — zero extra, which the serving layer's leak checks
// assert after drain.
func (e *Engine) ArenaUsed() int64 { return e.gpu.Used() }

// ArenaCapacity returns the simulated device pool's byte capacity.
func (e *Engine) ArenaCapacity() int64 { return e.gpu.Capacity() }

// ArenaPeak returns the arena's high-water mark — the actual peak footprint
// the admission controller's estimate is validated against.
func (e *Engine) ArenaPeak() int64 { return e.gpu.Peak() }

// ResidentBaseBytes returns the pinned layers' permanent arena footprint.
func (e *Engine) ResidentBaseBytes() int64 { return e.residentBase }

// MaxStreamLayerBytes returns the largest transient per-layer weight staging
// buffer (dequantized resident size of the biggest streamed layer).
func (e *Engine) MaxStreamLayerBytes() int64 { return e.maxStreamBytes }

// ModelConfig returns the geometry of the model the engine executes.
func (e *Engine) ModelConfig() model.Config { return e.mod.Cfg }

// Policy returns the engine's current policy. Degradation mutates it
// mid-run, so this reflects the policy generation is actually running under.
func (e *Engine) Policy() Policy { return e.policy }

// SetFaultInjector wires a fault injector into every probe site. A nil
// injector (the default) disables injection.
func (e *Engine) SetFaultInjector(inj *faults.Injector) { e.faults = inj }

// SetTracer installs (or, with nil, removes) the execution-span recorder.
// Safe to call while generation or serving is in flight: in-flight tasks
// finish recording into whichever recorder they loaded at task start.
func (e *Engine) SetTracer(r *xtrace.Recorder) { e.tracer.Store(r) }

// Tracer returns the currently installed recorder, or nil.
func (e *Engine) Tracer() *xtrace.Recorder { return e.tracer.Load() }

// task closes out one timed task: it feeds the Stats accounting (always) and
// the span recorder (when installed) with the same task name, so trace
// aggregates and Stats.TaskTime line up key-for-key. With tracing disabled
// the only cost over the bare stats update is one atomic load.
func (e *Engine) task(name, lane string, t0 time.Time, l xtrace.Labels) {
	d := time.Since(t0)
	e.stats.addTask(name, d)
	e.tracer.Load().Record(name, lane, t0, d, l)
}

// trace records a span without touching Stats — for lifecycle intervals
// (decode_step) that are not part of the task-time accounting.
func (e *Engine) trace(name, lane string, t0 time.Time, l xtrace.Labels) {
	if r := e.tracer.Load(); r != nil {
		r.Record(name, lane, t0, time.Since(t0), l)
	}
}

// SetRetryConfig replaces the transient-fault retry policy.
func (e *Engine) SetRetryConfig(rc RetryConfig) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	e.retry = rc
	return nil
}

// EnableCheckpointing snapshots the generation state after prefill and then
// every `every` decode steps; LastCheckpoint returns the most recent
// snapshot. Zero disables checkpointing.
func (e *Engine) EnableCheckpointing(every int) error {
	if every < 0 {
		return fmt.Errorf("runtime: checkpoint interval must be >= 0, got %d", every)
	}
	e.ckptEvery = every
	return nil
}

// LastCheckpoint returns the most recent generation snapshot, or nil.
func (e *Engine) LastCheckpoint() *Checkpoint {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.lastCkpt
}

// genRun is the mutable state of one generation (or resumed generation).
type genRun struct {
	prompts [][]int
	out     [][]int
	current []int // last generated token per sequence
	pos     int   // next token position
	step    int   // next decode step index, in [1, genLen)
	genLen  int
	onStep  func(step int, tokens []int) bool

	// Exactly one of these is non-nil: the host-resident cache when
	// attention runs on CPU, the chunked store when it runs on GPU.
	hostCache *model.KVCache
	kvStore   *KVStore

	start time.Time
}

// runMark is a rollback point: enough state to undo a partially completed
// step's KV appends.
type runMark struct {
	kv   [][]int
	host [][]int
}

func (r *genRun) mark() runMark {
	var m runMark
	if r.kvStore != nil {
		m.kv = r.kvStore.Mark()
	}
	if r.hostCache != nil {
		m.host = r.hostCache.SeqLens()
	}
	return m
}

func (r *genRun) rollback(m runMark) {
	if r.kvStore != nil && m.kv != nil {
		r.kvStore.Rollback(m.kv)
	}
	if r.hostCache != nil && m.host != nil {
		r.hostCache.TruncateTo(m.host)
	}
}

// resetStores installs fresh (empty) KV storage for the run under the
// current policy.
func (e *Engine) resetStores(run *genRun) error {
	cfg := e.mod.Cfg
	batch := len(run.prompts)
	if e.policy.AttnOnCPU {
		run.hostCache = model.NewKVCache(cfg.Layers, batch, cfg.Hidden)
		run.kvStore = nil
		return nil
	}
	st, err := NewKVStore(cfg.Layers, batch, e.policy.QuantKV, e.policy.KVCfg, e.policy.HostF16)
	if err != nil {
		return err
	}
	st.UsePool(e.pool, e.policy.IntraOp)
	st.UseFaults(e.faults)
	run.hostCache, run.kvStore = nil, st
	return nil
}

// Generate runs prefill plus genLen greedy decode steps over the prompt
// batch, returning the generated token IDs per sequence. Cancelling ctx
// stops generation at the next step boundary; the error is ctx.Err() and
// the tokens generated so far are returned.
func (e *Engine) Generate(ctx context.Context, prompts [][]int, genLen int) ([][]int, error) {
	return e.GenerateStream(ctx, prompts, genLen, nil)
}

// GenerateStream is Generate with a per-step callback: after each decode
// step, onStep receives the step index (0-based) and the freshly generated
// token per sequence. Returning false stops generation early; the tokens
// produced so far are returned. A nil callback streams nothing.
func (e *Engine) GenerateStream(ctx context.Context, prompts [][]int, genLen int, onStep func(step int, tokens []int) bool) ([][]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(prompts) == 0 {
		return nil, fmt.Errorf("runtime: empty prompt batch")
	}
	if genLen <= 0 {
		return nil, fmt.Errorf("runtime: generation length must be positive, got %d", genLen)
	}
	run := &genRun{prompts: prompts, genLen: genLen, onStep: onStep, start: time.Now()}
	batch := len(prompts)

	// --- Prefill (FlexGen steps 1.1-1.3), retried from scratch on transient
	// failure: each attempt rebuilds the KV stores, so a partial prefill
	// never leaks into the next try.
	var hidden *tensor.Tensor
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.resetStores(run); err != nil {
			return nil, err
		}
		stepCtx, cancel := e.stepContext(ctx)
		t0 := time.Now()
		h, err := e.prefill(stepCtx, run)
		cancel()
		e.task(xtrace.TaskPrefill, xtrace.LaneEngine, t0, xtrace.NoLabels)
		if err == nil {
			hidden = h
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if attempt >= maxStepAttempts {
			return nil, fmt.Errorf("runtime: prefill failed after %d attempts: %w", attempt, err)
		}
		e.stats.addRetry("prefill")
		if attempt >= 2 {
			e.degradeOnce(ctx, run)
		}
	}

	run.out = make([][]int, batch)
	run.current = tensor.ArgmaxRows(e.mod.Logits(e.pool, e.policy.IntraOp, hidden))
	for i := range run.out {
		run.out[i] = append(run.out[i], run.current[i])
	}
	e.stats.mu.Lock()
	e.stats.TokensGenerated += int64(batch)
	e.stats.mu.Unlock()
	run.pos = len(prompts[0])
	run.step = 1
	if e.ckptEvery > 0 {
		e.snapshot(ctx, run)
	}
	if onStep != nil && !onStep(0, run.current) {
		e.stats.WallTime = time.Since(run.start)
		return run.out, nil
	}
	return e.decodeLoop(ctx, run)
}

// decodeLoop advances the run to completion, one decode step at a time.
// Each step is atomic: a failed attempt rolls the KV state back before the
// retry, and retries past the second first take one rung of the degradation
// ladder. Cancellation is honoured at step boundaries.
func (e *Engine) decodeLoop(ctx context.Context, run *genRun) ([][]int, error) {
	stepAttempts := 0
	for run.step < run.genLen {
		if err := ctx.Err(); err != nil {
			e.stats.WallTime = time.Since(run.start)
			return run.out, err
		}
		m := run.mark()
		stepCtx, cancel := e.stepContext(ctx)
		t0 := time.Now()
		next, err := e.decodeStep(stepCtx, run)
		cancel()
		e.trace(xtrace.TaskDecodeStep, xtrace.LaneEngine, t0, xtrace.At(run.step, -1, -1))
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				e.stats.WallTime = time.Since(run.start)
				return run.out, cerr
			}
			run.rollback(m)
			stepAttempts++
			if stepAttempts >= maxStepAttempts {
				e.stats.WallTime = time.Since(run.start)
				return nil, fmt.Errorf("runtime: decode step %d failed after %d attempts: %w", run.step, stepAttempts, err)
			}
			e.stats.addRetry("decode_step")
			if stepAttempts >= 2 {
				e.degradeOnce(ctx, run)
			}
			continue
		}
		stepAttempts = 0
		run.current = next
		run.pos++
		for i := range run.out {
			run.out[i] = append(run.out[i], next[i])
		}
		e.stats.mu.Lock()
		e.stats.TokensGenerated += int64(len(next))
		e.stats.mu.Unlock()
		step := run.step
		run.step++
		if e.ckptEvery > 0 && run.step%e.ckptEvery == 0 {
			e.snapshot(ctx, run)
		}
		if run.onStep != nil && !run.onStep(step, next) {
			break
		}
	}
	e.stats.WallTime = time.Since(run.start)
	return run.out, nil
}

// stepContext derives the per-step deadline context.
func (e *Engine) stepContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.policy.StepTimeout > 0 {
		return context.WithTimeout(ctx, e.policy.StepTimeout)
	}
	return ctx, func() {}
}

// degradeOnce takes the next rung of the degradation ladder, trading
// throughput for survivability after repeated step failures: first drop the
// overlap (prefetch pipelines are the most fault-exposed machinery), then
// shrink the GPU batch (halving the peak arena footprint under memory
// pressure), and finally migrate the KV cache to the host and keep attention
// there — after which no KV bytes cross the faulty interconnect at all.
func (e *Engine) degradeOnce(ctx context.Context, run *genRun) {
	switch {
	case e.policy.Prefetch:
		e.policy.Prefetch = false
		e.stats.addDegradation("prefetch-off")
	case run.kvStore != nil && len(run.prompts) > 1 && e.policy.GPUBatch != 1:
		nb := e.policy.GPUBatch
		if nb <= 0 || nb > len(run.prompts) {
			nb = len(run.prompts)
		}
		nb /= 2
		if nb < 1 {
			nb = 1
		}
		e.policy.GPUBatch = nb
		e.stats.addDegradation(fmt.Sprintf("gpu-batch=%d", nb))
	case run.kvStore != nil:
		if err := e.migrateToHost(ctx, run); err != nil {
			e.stats.addDegradation("attn-on-cpu(migration failed)")
			return
		}
		e.policy.AttnOnCPU = true
		e.policy.QuantKV = false
		e.stats.addDegradation("attn-on-cpu")
	}
}

// migrateToHost converts the chunked KV store into a host-resident cache so
// subsequent steps compute attention on the CPU (the AttnOnCPU fallback).
func (e *Engine) migrateToHost(ctx context.Context, run *genRun) error {
	hc, err := e.fetchAllToHost(ctx, run.kvStore, len(run.prompts))
	if err != nil {
		return err
	}
	run.hostCache, run.kvStore = hc, nil
	return nil
}

// fetchAllToHost drains a chunked KV store into a host-resident cache,
// fetching (and dequantizing) every slot with transient-fault retry — the
// bulk move behind the attn-on-cpu degradation rung, shared by the offline
// run and the serving session.
func (e *Engine) fetchAllToHost(ctx context.Context, kvStore *KVStore, batch int) (*model.KVCache, error) {
	cfg := e.mod.Cfg
	hc := model.NewKVCache(cfg.Layers, batch, cfg.Hidden)
	for l := 0; l < cfg.Layers; l++ {
		for s := 0; s < batch; s++ {
			var k, v *tensor.Tensor
			err := e.withRetry(ctx, "kv_migrate", func() error {
				var ferr error
				k, v, _, ferr = kvStore.Fetch(l, s)
				return ferr
			})
			if err != nil {
				return nil, err
			}
			if k != nil {
				hc.SetKV(l, s, k, v)
			}
		}
	}
	return hc, nil
}

// prefill runs the prompt through every layer with the same streamed-weight
// machinery the decode loop uses: load layer j's weights (1.1), compute
// attention and MLP on the "GPU" (1.2), and offload the layer's KV cache to
// host storage (1.3). It returns the last-position hidden state per
// sequence.
func (e *Engine) prefill(ctx context.Context, run *genRun) (hidden *tensor.Tensor, err error) {
	defer recoverAsError(&err)
	cfg := e.mod.Cfg
	prompts := run.prompts
	batch := len(prompts)
	s := len(prompts[0])
	x := make([]*tensor.Tensor, batch)
	for i, p := range prompts {
		if len(p) != s {
			return nil, fmt.Errorf("runtime: ragged prompt lengths %d and %d", s, len(p))
		}
		x[i] = e.mod.Embed(p, 0)
	}
	e.stats.addBytes(&e.stats.ActUpBytes, int64(batch*s*cfg.Hidden)*4)

	// Prefill computes into a live cache; with GPU attention the layer's KV
	// is offloaded (and the live copy dropped) as soon as the layer is done.
	live := run.hostCache
	if live == nil {
		live = model.NewKVCache(cfg.Layers, batch, cfg.Hidden)
	}

	pipe := e.newLoadPipeline(ctx)
	defer pipe.drain()
	if e.policy.Prefetch {
		pipe.start(0)
	}
	for j := 0; j < cfg.Layers; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ll loadedLayer
		if e.policy.Prefetch {
			ll = pipe.take()
			if j+1 < cfg.Layers {
				pipe.start(j + 1)
			}
		} else {
			ll = e.loadLayer(ctx, j)
		}
		if ll.err != nil {
			return nil, fmt.Errorf("runtime: prefill layer %d: %w", j, ll.err)
		}

		t0 := time.Now()
		model.AttentionAt(e.pool, e.policy.IntraOp, cfg, ll.weights, live, j, 0, x)
		for i := range x {
			model.MLP(e.pool, e.policy.IntraOp, cfg, ll.weights, x[i])
		}
		e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.At(-1, j, -1))
		e.freeGPU(ll.resident)

		if run.kvStore != nil {
			// Step 1.3: offload this layer's KV, quantized when enabled
			// (Eq. 5), and release the live copy. storeChunk times each
			// chunk's store_cache (and quant_kv) itself.
			for seq := 0; seq < batch; seq++ {
				if err := e.storeChunk(ctx, run.kvStore, j, seq, live.Keys(j, seq), live.Values(j, seq)); err != nil {
					return nil, err
				}
				live.SetKV(j, seq, nil, nil)
			}
		}
	}

	hidden = tensor.New(batch, cfg.Hidden)
	for i, xs := range x {
		copy(hidden.Row(i), xs.Row(s-1))
	}
	return hidden, nil
}

// storeChunk performs one store_cache transfer with fault probes and retry.
// Each attempt is timed individually (so retry backoff never inflates the
// task time), with a nested quant_kv span over the Eq. 20–23 quantize+pack
// when KV quantization is on.
func (e *Engine) storeChunk(ctx context.Context, kvStore *KVStore, layer, seq int, k, v *tensor.Tensor) error {
	return e.withRetry(ctx, "store_cache", func() error {
		t0 := time.Now()
		defer func() { e.task(xtrace.TaskStoreKV, xtrace.LaneKVDown, t0, xtrace.At(-1, layer, seq)) }()
		if err := e.stallOrFail(ctx, faults.KVTransfer); err != nil {
			return err
		}
		rec := e.tracer.Load()
		var tq time.Time
		if rec != nil && e.policy.QuantKV {
			tq = time.Now()
		}
		n, err := kvStore.Append(layer, seq, k, v)
		if err != nil {
			return err
		}
		if e.policy.QuantKV {
			if rec != nil {
				rec.Record(xtrace.TaskQuantKV, xtrace.LaneKVDown, tq, time.Since(tq), xtrace.At(-1, layer, seq))
			}
			e.stats.addOps(2, 0)
		}
		e.stats.addBytes(&e.stats.KVDownBytes, n)
		return nil
	})
}

// loadedLayer is a weight buffer staged into the GPU arena.
type loadedLayer struct {
	weights  *model.LayerWeights
	resident int64
	err      error
}

// loadPipeline overlaps the next layer's load_weight with the current
// layer's compute. At most one load is outstanding; drain must run before
// the owner returns so an abandoned in-flight load cannot leak its arena
// reservation (or its goroutine).
type loadPipeline struct {
	e       *Engine
	ctx     context.Context
	ch      chan loadedLayer
	pending bool
}

func (e *Engine) newLoadPipeline(ctx context.Context) *loadPipeline {
	return &loadPipeline{e: e, ctx: ctx, ch: make(chan loadedLayer, 1)}
}

func (p *loadPipeline) start(j int) {
	p.pending = true
	go func() { p.ch <- p.e.loadLayer(p.ctx, j) }()
}

func (p *loadPipeline) take() loadedLayer {
	ll := <-p.ch
	p.pending = false
	return ll
}

func (p *loadPipeline) drain() {
	if p.pending {
		ll := <-p.ch
		p.e.freeGPU(ll.resident)
		p.pending = false
	}
}

// loadLayer performs the load_weight task with transient-fault retry:
// charge the transfer, allocate the resident (dequantized) buffer, and
// materialize the tensors.
func (e *Engine) loadLayer(ctx context.Context, j int) loadedLayer {
	var out loadedLayer
	err := e.withRetry(ctx, "load_weight", func() error {
		out = e.loadLayerOnce(ctx, j)
		return out.err
	})
	if err != nil {
		return loadedLayer{err: err}
	}
	return out
}

// loadLayerOnce is one load_weight attempt, with the weight-transfer and
// memory-pressure fault probes. A panic during dequantization (e.g. an
// injected worker panic) is recovered into the returned error.
func (e *Engine) loadLayerOnce(ctx context.Context, j int) (out loadedLayer) {
	defer func() {
		if r := recover(); r != nil {
			e.freeGPU(out.resident)
			out = loadedLayer{err: panicAsError(r)}
		}
	}()
	// Pinned layers never move: no transfer. Compressed residents still pay
	// a dequantization per use (into transient arena space); uncompressed
	// residents are served directly.
	if j < len(e.resident) {
		if !e.policy.CompressResident {
			return loadedLayer{weights: e.resident[j]}
		}
		t0 := time.Now()
		defer func() { e.task(xtrace.TaskLoadWgt, xtrace.LaneWeights, t0, xtrace.At(-1, j, -1)) }()
		scratch := e.weights.ResidentBytes(j)
		if err := e.allocGPU(scratch); err != nil {
			return loadedLayer{err: err}
		}
		lw := e.loadWeightsTraced(j)
		e.stats.addOps(0, 6)
		return loadedLayer{weights: lw, resident: scratch}
	}
	t0 := time.Now()
	defer func() { e.task(xtrace.TaskLoadWgt, xtrace.LaneWeights, t0, xtrace.At(-1, j, -1)) }()
	if err := e.stallOrFail(ctx, faults.WeightTransfer); err != nil {
		return loadedLayer{err: err}
	}
	resident := e.weights.ResidentBytes(j)
	if err := e.allocGPU(resident); err != nil {
		return loadedLayer{err: err}
	}
	e.stats.addBytes(&e.stats.WeightUpBytes, e.weights.TransferBytes(j))
	lw := e.loadWeightsTraced(j)
	if e.weights.Quantized() {
		e.stats.addOps(0, 6) // six matrices dequantized
	}
	return loadedLayer{weights: lw, resident: resident}
}

// loadWeightsTraced materializes layer j's weights, recording the Eq. 12–16
// dequantization as a dequant_weight span (nested in the enclosing
// load_weight span) when the store is quantized and tracing is on.
func (e *Engine) loadWeightsTraced(j int) *model.LayerWeights {
	rec := e.tracer.Load()
	if rec == nil || !e.weights.Quantized() {
		return e.weights.Load(j)
	}
	t0 := time.Now()
	lw := e.weights.Load(j)
	rec.Record(xtrace.TaskDequantWgt, xtrace.LaneWeights, t0, time.Since(t0), xtrace.At(-1, j, -1))
	return lw
}

// allocGPU claims arena space, first probing the memory-pressure fault site
// (a transient allocation failure under co-tenant pressure).
func (e *Engine) allocGPU(n int64) error {
	if err := e.faults.Fail(faults.MemPressure); err != nil {
		return err
	}
	return e.gpu.Alloc(n)
}

// decodeStep advances every sequence by one token through all layers, with
// the six tasks of Algorithm 1 overlapped when Prefetch is on. Any panic
// escaping the compute path (including recovered worker panics rethrown by
// the pool) is converted into the returned error so the caller can roll the
// step back and retry.
func (e *Engine) decodeStep(ctx context.Context, run *genRun) (next []int, err error) {
	defer recoverAsError(&err)
	cfg := e.mod.Cfg
	tokens := run.current
	batch := len(tokens)

	// Embed the current tokens (the load_activation task's payload).
	x := make([]*tensor.Tensor, batch)
	actBytes := int64(batch) * int64(cfg.Hidden) * 4
	e.stats.addBytes(&e.stats.ActUpBytes, actBytes)
	for i, tok := range tokens {
		x[i] = e.mod.Embed([]int{tok}, run.pos)
	}

	// Weight prefetch pipeline (asynchronous load_weight of layer j+1).
	pipe := e.newLoadPipeline(ctx)
	defer pipe.drain()
	if e.policy.Prefetch {
		pipe.start(0)
	}

	for j := 0; j < cfg.Layers; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ll loadedLayer
		if e.policy.Prefetch {
			ll = pipe.take()
			if j+1 < cfg.Layers {
				pipe.start(j + 1)
			}
		} else {
			ll = e.loadLayer(ctx, j)
		}
		if ll.err != nil {
			return nil, fmt.Errorf("runtime: layer %d: %w", j, ll.err)
		}

		e.loadActivations(x)
		if err := e.computeLayer(ctx, run, j, ll.weights, x); err != nil {
			e.freeGPU(ll.resident)
			return nil, err
		}
		e.storeActivations(x)
		e.freeGPU(ll.resident)
		// synchronize() — Algorithm 1 line 18 — is implicit: computeLayer
		// waits for its background stores before returning.
	}

	t0 := time.Now()
	logits := e.mod.Logits(e.pool, e.policy.IntraOp, rowsOf(x, cfg.Hidden))
	next = tensor.ArgmaxRows(logits)
	// Layer -1 marks the logits projection so per-layer aggregation can
	// separate it from transformer-block compute.
	e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.NoLabels)
	e.stats.addBytes(&e.stats.ActDownBytes, actBytes)
	return next, nil
}

// fetchedKV is one GPU batch's reconstructed KV slice, staged into the
// arena by the load_cache task.
type fetchedKV struct {
	cache   *model.KVCache
	fetched int64
	err     error
}

// kvPipeline overlaps the next GPU batch's load_cache with the current
// batch's compute, with the same drain discipline as loadPipeline.
type kvPipeline struct {
	e       *Engine
	ch      chan fetchedKV
	pending bool
}

func (p *kvPipeline) take() fetchedKV {
	kv := <-p.ch
	p.pending = false
	return kv
}

func (p *kvPipeline) drain() {
	if p.pending {
		kv := <-p.ch
		p.e.freeGPU(kv.fetched)
		p.pending = false
	}
}

// loadCacheBatch performs the load_cache task for the sequences
// [seqBase, seqBase+batch) with transient-fault retry: fetch (and
// dequantize) every chunk, verify checksums, charge the arena, and return
// the staged cache slice.
func (e *Engine) loadCacheBatch(ctx context.Context, kvStore *KVStore, j, seqBase, batch int) fetchedKV {
	var out fetchedKV
	rerr := e.withRetry(ctx, "load_cache", func() error {
		out = e.loadCacheOnce(ctx, kvStore, j, seqBase, batch)
		if out.err != nil {
			e.freeGPU(out.fetched)
			ferr := out.err
			out = fetchedKV{}
			return ferr
		}
		return nil
	})
	if rerr != nil {
		return fetchedKV{err: rerr}
	}
	return out
}

// loadCacheOnce is one load_cache attempt, probing the KV-transfer fault
// site and verifying chunk checksums via the store.
func (e *Engine) loadCacheOnce(ctx context.Context, kvStore *KVStore, j, seqBase, batch int) (out fetchedKV) {
	defer func() {
		if r := recover(); r != nil {
			e.freeGPU(out.fetched)
			out = fetchedKV{err: panicAsError(r)}
		}
	}()
	t0 := time.Now()
	defer func() { e.task(xtrace.TaskLoadKV, xtrace.LaneKVUp, t0, xtrace.At(-1, j, seqBase)) }()
	cfg := e.mod.Cfg
	out = fetchedKV{cache: model.NewKVCache(cfg.Layers, seqBase+batch, cfg.Hidden)}
	if err := e.stallOrFail(ctx, faults.KVTransfer); err != nil {
		out.err = err
		return out
	}
	// The dequant_kv span (Eqs. 12–16 applied to the old cache) carries only
	// the time spent inside the dequantization kernels, as reported by
	// FetchTimed — transfer accounting, checksum verification, and arena
	// staging stay outside it so trace attribution cannot over-credit
	// dequantization.
	rec := e.tracer.Load()
	var td time.Time
	var dequant time.Duration
	if rec != nil && e.policy.QuantKV {
		td = time.Now()
	}
	for s := 0; s < batch; s++ {
		k, v, bytes, d, err := kvStore.FetchTimed(j, seqBase+s)
		dequant += d
		e.stats.addBytes(&e.stats.KVUpBytes, bytes)
		if err != nil {
			out.err = err
			return out
		}
		if e.policy.QuantKV {
			e.stats.addOps(0, 2*int64(kvStore.ChunkCount(j, seqBase+s)))
		}
		if k != nil {
			kb := k.Bytes() + v.Bytes()
			if err := e.allocGPU(kb); err != nil {
				out.err = err
				return out
			}
			out.fetched += kb
			out.cache.SetKV(j, seqBase+s, k, v)
		}
	}
	if rec != nil && e.policy.QuantKV {
		rec.Record(xtrace.TaskDequantKV, xtrace.LaneKVUp, td, dequant, xtrace.At(-1, j, seqBase))
	}
	return out
}

// computeLayer runs one layer's attention and MLP using the staged weights
// lw, iterating the block's GPU batches one at a time (Algorithm 1's k
// loop). Under Prefetch, batch k+1's load_cache runs while batch k computes
// (Algorithm 1 lines 11-13).
func (e *Engine) computeLayer(ctx context.Context, run *genRun, j int, lw *model.LayerWeights, x []*tensor.Tensor) error {
	kvStore := run.kvStore
	blockSize := len(x)
	gpuBatch := e.policy.GPUBatch
	if gpuBatch <= 0 || gpuBatch > blockSize {
		gpuBatch = blockSize
	}

	// Batch boundaries.
	type span struct{ lo, hi int }
	var spans []span
	for base := 0; base < blockSize; base += gpuBatch {
		hi := base + gpuBatch
		if hi > blockSize {
			hi = blockSize
		}
		spans = append(spans, span{base, hi})
	}

	async := e.policy.Prefetch && kvStore != nil
	var pipe *kvPipeline
	if async {
		pipe = &kvPipeline{e: e, ch: make(chan fetchedKV, 1)}
		defer pipe.drain()
		sp := spans[0]
		pipe.pending = true
		go func() { pipe.ch <- e.loadCacheBatch(ctx, kvStore, j, sp.lo, sp.hi-sp.lo) }()
	}
	for i, sp := range spans {
		var kv fetchedKV
		switch {
		case async:
			kv = pipe.take()
			if i+1 < len(spans) {
				nsp := spans[i+1]
				pipe.pending = true
				go func() { pipe.ch <- e.loadCacheBatch(ctx, kvStore, j, nsp.lo, nsp.hi-nsp.lo) }()
			}
		case kvStore != nil:
			kv = e.loadCacheBatch(ctx, kvStore, j, sp.lo, sp.hi-sp.lo)
		}
		if kv.err != nil {
			return kv.err
		}
		if err := e.computeBatch(ctx, run, j, sp.lo, lw, x[sp.lo:sp.hi], kv); err != nil {
			return err
		}
	}
	return nil
}

// computeBatch runs one (layer, GPU batch) iteration: compute and
// store_cache for the sequences [seqBase, seqBase+len(x)), using the staged
// KV slice kv when attention runs on the GPU.
func (e *Engine) computeBatch(ctx context.Context, run *genRun, j, seqBase int, lw *model.LayerWeights, x []*tensor.Tensor, kv fetchedKV) error {
	cfg := e.mod.Cfg
	batch := len(x)
	kvStore := run.kvStore

	cache := run.hostCache
	fetched := kv.fetched
	if kvStore != nil {
		cache = kv.cache
	}

	if err := e.probeWorkerPanic(); err != nil {
		e.freeGPU(fetched)
		return err
	}
	t0 := time.Now()
	outAttn, err := e.runAttention(cfg, lw, cache, j, seqBase, x)
	if err != nil {
		e.freeGPU(fetched)
		return err
	}
	for i := range x {
		model.MLP(e.pool, e.policy.IntraOp, cfg, lw, x[i])
	}
	e.task(xtrace.TaskCompute, xtrace.LaneGPU, t0, xtrace.At(-1, j, seqBase))

	if kvStore != nil {
		// store_cache: persist the new rows (quantized when enabled). Stores
		// complete before the layer's synchronize() (Algorithm 1 line 18);
		// storeChunk times each chunk itself.
		for s := 0; s < batch; s++ {
			if err := e.storeChunk(ctx, kvStore, j, seqBase+s, outAttn.NewK[s], outAttn.NewV[s]); err != nil {
				e.freeGPU(fetched)
				return err
			}
		}
		e.freeGPU(fetched)
	}
	return nil
}

// probeWorkerPanic fires the worker-panic fault site inside a pool worker so
// the whole recovery chain runs: the pool recovers the panic, rethrows it on
// the submitting goroutine, and this probe converts it into an error the
// step retry handles.
func (e *Engine) probeWorkerPanic() (err error) {
	if !e.faults.Enabled(faults.WorkerPanic) {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicAsError(r)
		}
	}()
	if e.pool != nil && e.pool.Size() >= 2 {
		e.pool.ParallelFor(2, 2, func(i int) {
			if i == 0 {
				e.faults.MaybePanic(faults.WorkerPanic)
			}
		})
	} else {
		e.faults.MaybePanic(faults.WorkerPanic)
	}
	return nil
}

// recoverAsError converts a panic into the caller's returned error. Worker
// panics arrive as *threadpool.PanicError and keep their identity for
// errors.As; anything else is wrapped.
func recoverAsError(err *error) {
	if r := recover(); r != nil {
		*err = panicAsError(r)
	}
}

func panicAsError(r any) error {
	if pe, ok := r.(*threadpool.PanicError); ok {
		return pe
	}
	return fmt.Errorf("runtime: recovered panic: %v", r)
}

// loadActivations performs the load_activation task when activations live
// on the host: the hidden states cross to the "GPU" (through FP16 rounding
// when HostF16 is on) before the layer computes.
func (e *Engine) loadActivations(x []*tensor.Tensor) {
	if !e.policy.ActOnCPU {
		return
	}
	t0 := time.Now()
	var bytes int64
	for _, xs := range x {
		if e.policy.HostF16 {
			h := tensor.ToF16(xs)
			bytes += h.Bytes()
			copy(xs.Data(), h.ToFloat32().Data())
		} else {
			bytes += xs.Bytes()
		}
	}
	e.stats.addBytes(&e.stats.ActUpBytes, bytes)
	e.task(xtrace.TaskLoadAct, xtrace.LaneActUp, t0, xtrace.NoLabels)
}

// storeActivations performs the store_activation task: the layer's output
// hidden states return to host memory.
func (e *Engine) storeActivations(x []*tensor.Tensor) {
	if !e.policy.ActOnCPU {
		return
	}
	t0 := time.Now()
	var bytes int64
	for _, xs := range x {
		if e.policy.HostF16 {
			bytes += int64(xs.Numel()) * 2
		} else {
			bytes += xs.Bytes()
		}
	}
	e.stats.addBytes(&e.stats.ActDownBytes, bytes)
	e.task(xtrace.TaskStoreAct, xtrace.LaneActDown, t0, xtrace.NoLabels)
}

// runAttention executes one layer's attention over the batch, co-running
// independent sequence chunks when inter-op parallelism is enabled.
// Sequences own disjoint cache slots and hidden tensors, so chunked
// execution is bit-identical to serial execution regardless of scheduling
// order.
func (e *Engine) runAttention(cfg model.Config, lw *model.LayerWeights, cache *model.KVCache, j, seqBase int, x []*tensor.Tensor) (model.AttentionOutput, error) {
	interOp := e.policy.InterOp
	if interOp <= 1 || e.pool == nil || len(x) < 2 {
		return model.AttentionAt(e.pool, e.policy.IntraOp, cfg, lw, cache, j, seqBase, x), nil
	}
	if interOp > len(x) {
		interOp = len(x)
	}
	out := model.AttentionOutput{
		Hidden: tensor.New(len(x), cfg.Hidden),
		NewK:   make([]*tensor.Tensor, len(x)),
		NewV:   make([]*tensor.Tensor, len(x)),
	}
	sched, err := threadpool.NewInterOp(e.pool, interOp)
	if err != nil {
		return out, err
	}
	chunk := (len(x) + interOp - 1) / interOp
	for lo := 0; lo < len(x); lo += chunk {
		hi := lo + chunk
		if hi > len(x) {
			hi = len(x)
		}
		lo, hi := lo, hi
		sched.Submit(threadpool.Op{
			Name:  fmt.Sprintf("attn[%d:%d]", lo, hi),
			Width: e.policy.IntraOp,
			Run: func(pool *threadpool.Pool, width int) {
				part := model.AttentionAt(pool, width, cfg, lw, cache, j, seqBase+lo, x[lo:hi])
				copy(out.NewK[lo:hi], part.NewK)
				copy(out.NewV[lo:hi], part.NewV)
				for i := 0; i < hi-lo; i++ {
					copy(out.Hidden.Row(lo+i), part.Hidden.Row(i))
				}
			},
		})
	}
	if err := sched.Wait(); err != nil {
		return out, err
	}
	return out, nil
}

// rowsOf stacks per-sequence [1, hidden] tensors into one [batch, hidden]
// tensor for the logits projection.
func rowsOf(x []*tensor.Tensor, hidden int) *tensor.Tensor {
	out := tensor.New(len(x), hidden)
	for i, xi := range x {
		copy(out.Row(i), xi.Row(0))
	}
	return out
}

func len64[T any](s []T) int64 { return int64(len(s)) }
