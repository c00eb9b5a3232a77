// Package pipeline models multi-GPU inference with pipeline parallelism for
// the weak-scaling study of §5.5: the transformer's layers are split into
// contiguous stages, one per GPU, and zig-zag batches flow through the
// stages as micro-batches. LM-Offload keeps many micro-batches in flight and
// overlaps the inter-stage activation transfers; FlexGen's per-token
// synchronization keeps its pipeline mostly drained, which is why the gap
// grows with the GPU count.
package pipeline

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Config selects the pipeline run.
type Config struct {
	// GPUs is the stage count (1–len(platform GPUs)).
	GPUs int
	// PromptLen and GenLen define the workload (§5.5: 256 and 64).
	PromptLen, GenLen int
	// BaseBatch is the per-GPU batch at one GPU; weak scaling multiplies it
	// by the GPU count.
	BaseBatch int
	// InFlight is the number of micro-batches the runtime keeps in the
	// pipeline. LM-Offload sustains its full zig-zag block; FlexGen's
	// per-token layer synchronization limits it to ~2.
	InFlight int
	// Exec is the runtime's execution profile.
	Exec perfmodel.ExecProfile
	// Opts drives the per-stage policy search.
	Opts policy.Options
}

// Result is one weak-scaling measurement.
type Result struct {
	GPUs int
	// Throughput is tokens/s across the whole pipeline.
	Throughput float64
	// StageTime is the bottleneck stage's per-token time.
	StageTime float64
	// BubbleFraction is the share of time lost to pipeline fill/drain and
	// synchronization.
	BubbleFraction float64
	// Strategy is the per-stage offloading policy chosen.
	Strategy perfmodel.Strategy
}

// FlexGenConfig returns the §5.5 FlexGen setup for the given GPU count.
func FlexGenConfig(gpus int) Config {
	opts := policy.DefaultOptions()
	opts.QuantAware = false
	opts.AllowGPUAttention = false
	opts.Bits = nil
	return Config{
		GPUs: gpus, PromptLen: 256, GenLen: 64, BaseBatch: 32,
		// FlexGen's per-layer synchronize() drains the pipeline every step,
		// so effectively one micro-batch is in flight.
		InFlight: 1, Exec: perfmodel.FlexGenProfile(), Opts: opts,
	}
}

// LMOffloadConfig returns the §5.5 LM-Offload setup.
func LMOffloadConfig(gpus int) Config {
	return Config{
		GPUs: gpus, PromptLen: 256, GenLen: 64, BaseBatch: 32,
		InFlight: 8, Exec: perfmodel.LMOffloadProfile(), Opts: policy.DefaultOptions(),
	}
}

// Simulate runs the weak-scaling pipeline on the multi-GPU platform.
func Simulate(plat *hw.Platform, mod model.Config, cfg Config) (Result, error) {
	if cfg.GPUs < 1 || cfg.GPUs > plat.NumGPUs() {
		return Result{}, fmt.Errorf("pipeline: %d GPUs outside [1, %d]", cfg.GPUs, plat.NumGPUs())
	}
	if cfg.InFlight < 1 {
		return Result{}, fmt.Errorf("pipeline: in-flight micro-batches must be >= 1, got %d", cfg.InFlight)
	}
	if mod.Layers%cfg.GPUs != 0 && mod.Layers < cfg.GPUs {
		return Result{}, fmt.Errorf("pipeline: cannot split %d layers over %d GPUs", mod.Layers, cfg.GPUs)
	}

	// Weak scaling: the batch grows with the GPU count.
	work := workload.Job{
		PromptLen:  cfg.PromptLen,
		GenLen:     cfg.GenLen,
		GPUBatch:   cfg.BaseBatch * cfg.GPUs,
		NumBatches: maxInt(cfg.InFlight, 1),
	}
	if err := work.Validate(); err != nil {
		return Result{}, err
	}

	// Each stage owns layers/GPUs layers and one GPU; the host memory and
	// disk are shared, so each stage sees a platform slice with its share.
	stagePlat := plat.WithGPUCount(1)
	stagePlat.CPU.MemBytes = plat.CPU.MemBytes / int64(cfg.GPUs)
	stageLayers := (mod.Layers + cfg.GPUs - 1) / cfg.GPUs
	stageMod := mod
	stageMod.Name = fmt.Sprintf("%s/stage", mod.Name)
	stageMod.Layers = stageLayers

	res, err := policy.Plan(stagePlat, stageMod, work, cfg.Exec, cfg.Opts)
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: stage policy: %w", err)
	}
	est := res.Estimator

	// Per-token, per-stage time: the stage's layers plus the inter-stage
	// activation hop. LM-Offload overlaps the hop with compute (it only
	// shows when it exceeds the stage work); FlexGen serializes it.
	stageCompute := est.TGen() * float64(stageLayers)
	hop := 0.0
	if cfg.GPUs > 1 {
		actBytes := float64(mod.ActivationBytes(work))
		hop = actBytes / (plat.Link.BandwidthPerDir * cfg.Exec.LinkEff)
	}
	var stageTime float64
	if cfg.Exec.OverlapBeta <= 0.9 {
		stageTime = stageCompute
		if hop > stageTime {
			stageTime = hop
		}
	} else {
		stageTime = stageCompute + hop
	}

	// Pipeline efficiency: with M micro-batches in flight over S stages, the
	// steady-state utilization is M/(M+S-1); per-token synchronization keeps
	// FlexGen near the fill/drain regime every step.
	m := float64(cfg.InFlight)
	sStages := float64(cfg.GPUs)
	efficiency := m / (m + sStages - 1)
	bubble := 1 - efficiency

	perTokenTime := stageTime / efficiency
	n := float64(work.GenLen)
	l := float64(stageLayers)
	prefill := est.TPrefill() * l * sStages
	total := prefill + perTokenTime*(n-1)
	return Result{
		GPUs:           cfg.GPUs,
		Throughput:     float64(work.TotalTokens()) / total,
		StageTime:      stageTime,
		BubbleFraction: bubble,
		Strategy:       res.Strategy,
	}, nil
}

// WeakScaling sweeps 1..maxGPUs and returns one Result per point.
func WeakScaling(plat *hw.Platform, mod model.Config, mk func(gpus int) Config, maxGPUs int) ([]Result, error) {
	if maxGPUs < 1 || maxGPUs > plat.NumGPUs() {
		return nil, fmt.Errorf("pipeline: maxGPUs %d outside [1, %d]", maxGPUs, plat.NumGPUs())
	}
	out := make([]Result, 0, maxGPUs)
	for g := 1; g <= maxGPUs; g++ {
		r, err := Simulate(plat, mod, mk(g))
		if err != nil {
			return nil, fmt.Errorf("pipeline: %d GPUs: %w", g, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
