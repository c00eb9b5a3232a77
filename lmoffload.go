// Package lmoffload is the public facade of the LM-Offload reproduction: a
// performance-model-guided offloading framework for generative LLM inference
// with parallelism control, after Wu et al., "LM-Offload: Performance
// Model-Guided Generative Inference of Large Language Models with
// Parallelism Control" (IPPS 2025).
//
// The package re-exports the pieces a downstream user composes:
//
//   - hardware platforms (the paper's A100 and 4xV100 machines, or custom),
//   - model configurations (OPT and LLaMA families, plus tiny runnable ones),
//   - the quantization-aware policy search (§3),
//   - thread-level parallelism control (§4),
//   - the analytical performance model, the discrete-event simulator, and
//     the functional offloading engine that runs real tiny models.
//
// See examples/ for runnable walkthroughs and cmd/lmo-bench for the full
// reproduction of the paper's tables and figures.
package lmoffload

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/parallelism"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// Core re-exported types.
type (
	// Platform describes the hardware (GPUs, CPU complex, interconnect).
	Platform = hw.Platform
	// ModelConfig is a transformer geometry.
	ModelConfig = model.Config
	// Workload is a batch-inference job (prompt/generation lengths, block).
	Workload = workload.Job
	// Strategy is an offloading + quantization decision.
	Strategy = perfmodel.Strategy
	// ExecProfile captures a runtime's execution quality.
	ExecProfile = perfmodel.ExecProfile
	// PolicyOptions tunes the search space.
	PolicyOptions = policy.Options
	// PolicyResult is a chosen strategy with modeled performance.
	PolicyResult = policy.Result
	// ParallelismSetting is a tuned thread configuration (Algorithm 3).
	ParallelismSetting = parallelism.Setting
	// QuantConfig selects group-wise quantization parameters.
	QuantConfig = quant.Config
	// EnginePolicy is the functional engine's executable policy subset.
	EnginePolicy = runtime.Policy
	// EngineStats is the functional engine's accounting.
	EngineStats = runtime.Stats
	// SimResult is a discrete-event simulation outcome.
	SimResult = sim.OffloadResult
	// System is a fully configured framework under comparison.
	System = baselines.System
	// FaultInjector is the deterministic fault source shared by the engine
	// and the simulator.
	FaultInjector = faults.Injector
	// FaultRule configures one injection site.
	FaultRule = faults.Rule
	// FaultSite names an injection point.
	FaultSite = faults.Site
	// RetryConfig bounds the engine's transient-fault retry loop.
	RetryConfig = runtime.RetryConfig
	// GenerationCheckpoint is a resumable snapshot of an in-flight
	// generation.
	GenerationCheckpoint = runtime.Checkpoint
	// SimFaultEvent is a resource outage or slowdown window in the
	// discrete-event simulator.
	SimFaultEvent = sim.FaultEvent
)

// ParseFaultRules parses the flag syntax shared by the cmd tools, e.g.
// "weight-transfer:p=0.2:stall=2ms,worker-panic:p=0.05:n=2".
func ParseFaultRules(spec string) (map[FaultSite]FaultRule, error) { return faults.ParseRules(spec) }

// NewFaultInjector builds a deterministic injector over the given rules.
func NewFaultInjector(seed int64, rules map[FaultSite]FaultRule) (*FaultInjector, error) {
	return faults.New(seed, rules)
}

// Built-in platforms (Table 4).
var (
	SingleGPUA100 = hw.SingleGPUA100
	SingleGPUH100 = hw.SingleGPUH100
	MultiGPUV100  = hw.MultiGPUV100
)

// Built-in model configurations.
var (
	OPT13B   = model.OPT13B
	OPT30B   = model.OPT30B
	OPT66B   = model.OPT66B
	LLaMA13B = model.LLaMA13B
	LLaMA30B = model.LLaMA30B
	LLaMA65B = model.LLaMA65B
	// TinyModel is a configuration small enough to execute for real.
	TinyModel = model.Tiny
)

// Execution profiles.
var (
	FlexGenProfile    = perfmodel.FlexGenProfile
	ZeROProfile       = perfmodel.ZeROProfile
	LMOffloadProfile  = perfmodel.LMOffloadProfile
	DefaultPolicyOpts = policy.DefaultOptions
)

// LoadPlatform reads a custom platform description from JSON (see
// internal/hw's schema: capacities in GiB, bandwidths in GB/s).
func LoadPlatform(r io.Reader) (*Platform, error) { return hw.LoadPlatform(r) }

// LoadModelConfig reads a custom model configuration from JSON.
func LoadModelConfig(r io.Reader) (ModelConfig, error) { return model.LoadConfig(r) }

// NewWorkload builds and validates a workload.
func NewWorkload(promptLen, genLen, gpuBatch, numBatches int) (Workload, error) {
	w := workload.Job{PromptLen: promptLen, GenLen: genLen, GPUBatch: gpuBatch, NumBatches: numBatches}
	return w, w.Validate()
}

// Plan runs LM-Offload's quantization-aware policy search (§3.2): it picks
// attention placement, wg/cg/hg, and the quantization configuration that
// maximizes modeled throughput within the platform's memory capacities.
func Plan(plat *Platform, mod ModelConfig, work Workload) (PolicyResult, error) {
	return policy.Plan(plat, mod, work, perfmodel.LMOffloadProfile(), policy.DefaultOptions())
}

// PlanWith exposes the full knobs: a custom execution profile and options.
func PlanWith(plat *Platform, mod ModelConfig, work Workload, exec ExecProfile, opts PolicyOptions) (PolicyResult, error) {
	return policy.Plan(plat, mod, work, exec, opts)
}

// EstimateThroughput evaluates one explicit strategy with the analytical
// performance model (Eqs. 1–24), returning tokens/s.
func EstimateThroughput(plat *Platform, mod ModelConfig, work Workload, s Strategy, exec ExecProfile) (float64, error) {
	e, err := perfmodel.New(plat, mod, work, s, exec)
	if err != nil {
		return 0, err
	}
	return e.Throughput(), nil
}

// Simulate runs the discrete-event simulator over a decode window,
// deriving the task overlap from first principles instead of the analytical
// β composition.
func Simulate(plat *Platform, mod ModelConfig, work Workload, s Strategy, exec ExecProfile, steps int) (*SimResult, error) {
	e, err := perfmodel.New(plat, mod, work, s, exec)
	if err != nil {
		return nil, err
	}
	return sim.SimulateDecode(e, steps)
}

// TuneParallelism runs Algorithm 3 for a model/workload on the platform's
// CPU: it derives the operator graph of the offloaded attention, picks
// intra-op and inter-op parallelism, and assigns the leftover threads to the
// load/store tasks.
func TuneParallelism(plat *Platform, mod ModelConfig, work Workload) (ParallelismSetting, error) {
	machine, err := parallelism.NewMachineModel(plat.CPU)
	if err != nil {
		return ParallelismSetting{}, err
	}
	ctrl, err := parallelism.NewController(machine, plat.Link.BandwidthPerDir*0.5)
	if err != nil {
		return ParallelismSetting{}, err
	}
	seq := work.PromptLen + work.GenLen/2
	groups := parallelism.DefaultHeadGroups
	if groups > mod.Heads {
		groups = mod.Heads
	}
	og, err := parallelism.BuildAttentionGraph(mod, work, seq, groups)
	if err != nil {
		return ParallelismSetting{}, err
	}
	transfers := []parallelism.TransferTask{
		{Name: "load_weight", Bytes: float64(mod.LayerWeightBytes()) * 0.5},
		{Name: "load_cache", Bytes: 0},
		{Name: "store_cache", Bytes: 0},
		{Name: "load_activation", Bytes: float64(mod.ActivationBytes(work))},
		{Name: "store_activation", Bytes: float64(mod.ActivationBytes(work))},
	}
	return ctrl.Optimize(og, transfers)
}

// CompareSystems evaluates FlexGen, ZeRO-Inference, and LM-Offload on the
// same (model, workload axis), as Table 3 does, returning the three systems
// in that order.
func CompareSystems(plat *Platform, mod ModelConfig, gpuBatch, promptLen, genLen int) (flexgen, zero, lmoffload *System, err error) {
	if flexgen, err = baselines.FlexGen(plat, mod, gpuBatch, promptLen, genLen); err != nil {
		return nil, nil, nil, err
	}
	if zero, err = baselines.ZeRO(plat, mod, promptLen, genLen); err != nil {
		return nil, nil, nil, err
	}
	if lmoffload, err = baselines.LMOffload(plat, mod, gpuBatch, promptLen, genLen); err != nil {
		return nil, nil, nil, err
	}
	return flexgen, zero, lmoffload, nil
}

// InferenceResult is the output of a functional engine run.
type InferenceResult struct {
	// Tokens holds the generated token IDs per sequence.
	Tokens [][]int
	// Stats is the engine's I/O and task accounting.
	Stats *EngineStats
	// Checkpoint is the last generation snapshot, when checkpointing was
	// enabled via InferenceOptions.
	Checkpoint *GenerationCheckpoint
	// FinalPolicy is the policy the run ended under — it differs from the
	// requested policy when graceful degradation kicked in.
	FinalPolicy EnginePolicy
}

// InferenceOptions extends RunTinyInference with the fault-tolerance knobs.
type InferenceOptions struct {
	// Faults injects deterministic faults at the engine's probe sites.
	Faults *FaultInjector
	// Retry overrides the transient-fault retry policy.
	Retry *RetryConfig
	// CheckpointEvery snapshots the generation every N decode steps (0 =
	// off); the last snapshot is returned in InferenceResult.Checkpoint.
	CheckpointEvery int
}

// RunTinyInference executes a real (tiny) model end to end through the
// offloading engine: real tensors, real group-wise quantization, real
// zig-zag scheduling with asynchronous weight prefetch, and a
// capacity-enforced GPU arena. seed makes the weights and prompts
// deterministic; workers sets the compute pool width.
func RunTinyInference(cfg ModelConfig, pol EnginePolicy, prompts [][]int, genLen int, gpuArenaBytes int64, seed int64, workers int) (*InferenceResult, error) {
	return RunTinyInferenceContext(context.Background(), cfg, pol, prompts, genLen, gpuArenaBytes, seed, workers, nil)
}

// RunTinyInferenceContext is RunTinyInference with cancellation and
// fault-tolerance controls: ctx cancels generation at the next step
// boundary, and opts (optional) wires in fault injection, retry tuning, and
// checkpointing.
func RunTinyInferenceContext(ctx context.Context, cfg ModelConfig, pol EnginePolicy, prompts [][]int, genLen int, gpuArenaBytes int64, seed int64, workers int, opts *InferenceOptions) (*InferenceResult, error) {
	m, err := model.NewModel(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	var pool *threadpool.Pool
	if workers > 1 {
		if pool, err = threadpool.New(workers); err != nil {
			return nil, err
		}
	}
	eng, err := runtime.NewEngine(m, pol, gpuArenaBytes, pool)
	if err != nil {
		return nil, err
	}
	if opts != nil {
		eng.SetFaultInjector(opts.Faults)
		if opts.Retry != nil {
			if err := eng.SetRetryConfig(*opts.Retry); err != nil {
				return nil, err
			}
		}
		if err := eng.EnableCheckpointing(opts.CheckpointEvery); err != nil {
			return nil, err
		}
	}
	tokens, err := eng.Generate(ctx, prompts, genLen)
	if err != nil {
		return nil, err
	}
	return &InferenceResult{
		Tokens:      tokens,
		Stats:       eng.Stats(),
		Checkpoint:  eng.LastCheckpoint(),
		FinalPolicy: eng.Policy(),
	}, nil
}

// Explain walks through the §3.2 decision procedures behind a planned
// policy: the load_weight comparison for weight quantization, the
// load+store comparison for KV quantization, and the attention-placement
// arms, plus the six-task decomposition and its bottleneck.
func Explain(res PolicyResult) (*policy.Explanation, error) {
	return policy.Explain(res)
}

// LatencyCurve returns the per-token, per-layer decode step time for a
// strategy — the growth the KV cache causes across the generation.
func LatencyCurve(plat *Platform, mod ModelConfig, work Workload, s Strategy, exec ExecProfile) ([]float64, error) {
	e, err := perfmodel.New(plat, mod, work, s, exec)
	if err != nil {
		return nil, err
	}
	return e.LatencyCurve(), nil
}

// AnalyzeQuantization quantizes a reference tensor and reports the
// reconstruction error — the accuracy side of the bit-width decision.
func AnalyzeQuantization(t *tensor.Tensor, cfg QuantConfig) (quant.ErrorStats, error) {
	return quant.Analyze(t, cfg)
}

// Describe renders a one-line summary of a planned policy.
func Describe(res PolicyResult) string {
	return fmt.Sprintf("%v -> %.1f tok/s (GPU %.1f GB, CPU %.1f GB)",
		res.Strategy, res.Throughput,
		float64(res.Memory.GPU)/(1<<30), float64(res.Memory.CPU)/(1<<30))
}
