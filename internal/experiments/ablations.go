package experiments

import (
	"math/rand"

	"repro/internal/parallelism"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out,
// beyond the paper's own Figure 7 ablation.
type AblationResult struct {
	// OverlapBetaSweep: throughput of the LM-Offload policy as the overlap
	// quality degrades from ideal Eq. 2 (β=0) to fully serial (β=1).
	OverlapBeta []float64
	OverlapTput []float64
	// BundlingGain is the compute-task improvement from small-operator
	// bundling in Algorithm 3.
	BundledOps, UnbundledOps   int
	BundledTime, UnbundledTime float64
	// ThreadAssignment compares proportional vs uniform transfer-thread
	// assignment (step time, seconds).
	ProportionalStep, UniformStep float64
	// GroupSizeSweep: KV-quantized throughput across quantization group
	// sizes (metadata overhead vs accuracy granularity).
	GroupSizes []int
	GroupTput  []float64
	// BitsSweep: throughput across KV quantization widths, with the
	// reconstruction accuracy (SNR) of each width on a reference tensor.
	Bits     []int
	BitsTput []float64
	BitsSNR  []float64
	// BlockSweep: throughput versus zig-zag block size (why FlexGen-style
	// blocks beat ZeRO-style single batches).
	BlockSizes []int
	BlockTput  []float64
}

// Ablations runs all sweeps on the motivation workload.
func Ablations() (*AblationResult, error) {
	out := &AblationResult{}
	base := perfmodel.Strategy{WeightsGPUPct: 0.75, QuantWeights: true, WeightBits: 4,
		QuantKV: true, KVBits: 4, CompressGPUWeights: true, GroupSize: 64}

	// 1. Overlap quality sweep.
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 0.85, 0.95, 1} {
		exec := perfmodel.LMOffloadProfile()
		exec.OverlapBeta = beta
		out.OverlapBeta = append(out.OverlapBeta, beta)
		out.OverlapTput = append(out.OverlapTput, estimate(base, exec).Throughput())
	}

	// 2. Operator bundling.
	ctrl, og, transfers, err := figure5Setup()
	if err != nil {
		return nil, err
	}
	out.UnbundledOps = len(og.Ops)
	bundled := og.Bundle(ctrl.Profile, 8, ctrl.BundleThreshold)
	out.BundledOps = len(bundled.Ops)
	if out.UnbundledTime, err = ctrl.Profile.ComputeTaskTime(og, og.MaxConcurrency(), 8); err != nil {
		return nil, err
	}
	if out.BundledTime, err = ctrl.Profile.ComputeTaskTime(bundled, bundled.MaxConcurrency(), 8); err != nil {
		return nil, err
	}

	// 3. Proportional vs uniform transfer-thread assignment.
	tuned, err := ctrl.Optimize(og, transfers)
	if err != nil {
		return nil, err
	}
	out.ProportionalStep = tuned.StepTime
	out.UniformStep = uniformAssignmentStep(ctrl, og, transfers, tuned)

	// 4. Group size sweep.
	for _, g := range []int{16, 32, 64, 128, 256} {
		s := base
		s.GroupSize = g
		out.GroupSizes = append(out.GroupSizes, g)
		out.GroupTput = append(out.GroupTput, estimate(s, perfmodel.LMOffloadProfile()).Throughput())
	}

	// 5. KV bit-width sweep with reconstruction accuracy.
	refTensor := tensor.RandN(rand.New(rand.NewSource(1)), 1, 256, 64)
	for _, bits := range []int{2, 4, 8} {
		s := base
		s.KVBits = bits
		out.Bits = append(out.Bits, bits)
		out.BitsTput = append(out.BitsTput, estimate(s, perfmodel.LMOffloadProfile()).Throughput())
		st, err := quant.Analyze(refTensor, quant.Config{Bits: bits, GroupSize: base.GroupSize})
		if err != nil {
			return nil, err
		}
		out.BitsSNR = append(out.BitsSNR, st.SNRdB)
	}

	// 6. Zig-zag block-size sweep: same GPU batch, more batches per block.
	mod, workBase := motivationWorkload()
	for _, nb := range []int{1, 2, 5, 10, 20} {
		w := workBase
		w.NumBatches = nb
		e, err := perfmodel.New(a100(), mod, w, base, perfmodel.LMOffloadProfile())
		if err != nil {
			return nil, err
		}
		out.BlockSizes = append(out.BlockSizes, w.BlockSize())
		out.BlockTput = append(out.BlockTput, e.Throughput())
	}
	return out, nil
}

// uniformAssignmentStep evaluates the tuned compute setting with the free
// threads split evenly across the transfer tasks instead of proportionally.
func uniformAssignmentStep(ctrl *parallelism.Controller, og *parallelism.OpGraph, transfers []parallelism.TransferTask, tuned parallelism.Setting) float64 {
	free := 0
	for _, n := range tuned.TransferThreads {
		free += n
	}
	each := free / len(transfers)
	if each < 1 {
		each = 1
	}
	step := tuned.ComputeTime
	for _, tr := range transfers {
		if t := transferTimeFor(ctrl, tr, each); t > step {
			step = t
		}
	}
	return step
}

// Report renders the four sweeps as one table and the two single
// comparisons as notes.
func (r *AblationResult) Report() *Report {
	t := stats.NewTable("ablation", "setting", "tok/s", "SNR dB")
	for i := range r.OverlapBeta {
		t.AddRowf("1. overlap quality (β)\t%.2f\t%.1f", r.OverlapBeta[i], r.OverlapTput[i])
	}
	for i := range r.GroupSizes {
		t.AddRowf("4. group size (KV 4-bit)\t%d\t%.1f", r.GroupSizes[i], r.GroupTput[i])
	}
	for i := range r.Bits {
		t.AddRowf("5. KV bits\t%d\t%.1f\t%.1f", r.Bits[i], r.BitsTput[i], r.BitsSNR[i])
	}
	for i := range r.BlockSizes {
		t.AddRowf("6. zig-zag block\t%d\t%.1f", r.BlockSizes[i], r.BlockTput[i])
	}
	rep := &Report{Title: "Ablations", Table: t}
	rep.note("2. Operator bundling: %d ops -> %d ops, compute %.2fms -> %.2fms",
		r.UnbundledOps, r.BundledOps, r.UnbundledTime*1e3, r.BundledTime*1e3)
	rep.note("3. Transfer threads: proportional %.2fms vs uniform %.2fms per step",
		r.ProportionalStep*1e3, r.UniformStep*1e3)
	return rep
}
