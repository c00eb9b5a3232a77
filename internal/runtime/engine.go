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
	// the whole block is one batch. It applies to Generate, GenerateStream
	// and Resume; serving sessions (NewSession) stage one slot at a time.
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
//
// It drives a session with one slot per prompt: every prompt is admitted in
// one batched prefill, then Step runs until genLen tokens per prompt.
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
	start := time.Now()
	s, err := e.newSession(len(prompts), true)
	if err != nil {
		return nil, err
	}
	slots := make([]int, len(prompts))
	for i := range slots {
		slots[i] = i
	}
	first, err := s.admit(ctx, slots, prompts, false)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(prompts))
	for i, tok := range first {
		out[i] = []int{tok}
	}
	if e.ckptEvery > 0 {
		e.snapshot(ctx, s, prompts, out, 1, genLen)
	}
	if onStep != nil && !onStep(0, first) {
		e.stats.WallTime = time.Since(start)
		return out, nil
	}
	return e.decode(ctx, s, prompts, out, 1, genLen, onStep, start)
}

// decode advances a driver session from decode step `step` to genLen, one
// Step (traced as a decode_step span) at a time, appending each step's
// tokens to out in prompt order, snapshotting every ckptEvery steps, and
// setting Stats.WallTime on return.
func (e *Engine) decode(ctx context.Context, s *Session, prompts, out [][]int, step, genLen int, onStep func(int, []int) bool, start time.Time) ([][]int, error) {
	defer func() { e.stats.WallTime = time.Since(start) }()
	for ; step < genLen; step++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		t0 := time.Now()
		toks, err := s.Step(ctx)
		e.trace(xtrace.TaskDecodeStep, xtrace.LaneEngine, t0, xtrace.At(step, -1, -1))
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr
			}
			return nil, fmt.Errorf("runtime: decode step %d: %w", step, err)
		}
		next := make([]int, len(toks))
		for i, st := range toks {
			next[i] = st.Token
			out[i] = append(out[i], st.Token)
		}
		if e.ckptEvery > 0 && (step+1)%e.ckptEvery == 0 {
			e.snapshot(ctx, s, prompts, out, step+1, genLen)
		}
		if onStep != nil && !onStep(step, next) {
			break
		}
	}
	return out, nil
}

// stepContext derives the per-step deadline context.
func (e *Engine) stepContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.policy.StepTimeout > 0 {
		return context.WithTimeout(ctx, e.policy.StepTimeout)
	}
	return ctx, func() {}
}

// forEachLayer streams every layer's weights once, in order. compute runs
// while layer j's weights are staged — with Prefetch on, layer j+1's
// load_weight overlaps it (Algorithm 1's weight overlap) — then the weights
// are released and store, when non-nil, runs the layer's remaining
// store_cache work, which needs no weights. An in-flight prefetch is drained
// on every exit path.
func (e *Engine) forEachLayer(ctx context.Context, compute func(j int, lw *model.LayerWeights) error, store func(j int) error) error {
	layers := e.mod.Cfg.Layers
	prefetch := e.policy.Prefetch
	pipe := e.newLoadPipeline(ctx)
	defer pipe.drain()
	if prefetch {
		pipe.start(0)
	}
	for j := 0; j < layers; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var ll loadedLayer
		if prefetch {
			ll = pipe.take()
			if j+1 < layers {
				pipe.start(j + 1)
			}
		} else {
			ll = e.loadLayer(ctx, j)
		}
		if ll.err != nil {
			return fmt.Errorf("runtime: layer %d: %w", j, ll.err)
		}
		err := func() error {
			defer e.freeGPU(ll.resident)
			return compute(j, ll.weights)
		}()
		if err == nil && store != nil {
			err = store(j)
		}
		if err != nil {
			return err
		}
	}
	return nil
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

// loadWeightsTraced materializes layer j's weights into the store's
// staging buffer for j's parity, recording the Eq. 12–16 dequantization as
// a dequant_weight span (nested in the enclosing load_weight span) when the
// store is quantized and tracing is on. The buffers are safe to reuse
// because forEachLayer holds at most layer j (computing) and j+1 (loading),
// whose parities differ; a retried load rewrites only its own buffer; and
// the pipeline drains before forEachLayer returns, so no load writes after.
func (e *Engine) loadWeightsTraced(j int) *model.LayerWeights {
	rec := e.tracer.Load()
	if rec == nil || !e.weights.Quantized() {
		return e.weights.Stage(j)
	}
	t0 := time.Now()
	lw := e.weights.Stage(j)
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

// fetchedKV is one GPU batch's reconstructed KV slice, staged into the
// arena by the load_cache task.
type fetchedKV struct {
	cache   *model.KVCache
	fetched int64
	err     error
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
func (e *Engine) runAttention(pool *threadpool.Pool, width int, lw *model.LayerWeights, cache *model.KVCache, j, seqBase int, x []*tensor.Tensor) (model.AttentionOutput, error) {
	cfg := e.mod.Cfg
	interOp := e.policy.InterOp
	if interOp <= 1 || pool == nil || len(x) < 2 {
		return model.AttentionAt(pool, width, cfg, lw, cache, j, seqBase, x), nil
	}
	if interOp > len(x) {
		interOp = len(x)
	}
	out := model.AttentionOutput{
		Hidden: tensor.New(len(x), cfg.Hidden),
		NewK:   make([]*tensor.Tensor, len(x)),
		NewV:   make([]*tensor.Tensor, len(x)),
	}
	sched, err := threadpool.NewInterOp(pool, interOp)
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
			Width: width,
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
