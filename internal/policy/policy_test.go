package policy

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestPlanFindsFeasibleStrategy(t *testing.T) {
	plat := hw.SingleGPUA100()
	res, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.LMOffloadProfile(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("non-positive throughput %g", res.Throughput)
	}
	if res.Memory.GPU > plat.GPU0().MemBytes {
		t.Errorf("chosen strategy exceeds GPU memory: %d > %d", res.Memory.GPU, plat.GPU0().MemBytes)
	}
	if res.Memory.CPU > plat.CPU.MemBytes {
		t.Errorf("chosen strategy exceeds CPU memory: %d > %d", res.Memory.CPU, plat.CPU.MemBytes)
	}
	if err := res.Strategy.Validate(); err != nil {
		t.Errorf("chosen strategy invalid: %v", err)
	}
}

func TestQuantAwarePlanUsesKVQuantizationForLongGen(t *testing.T) {
	// For the §3.1 workload, the quantization-aware search should land on
	// GPU attention with KV quantization — the Figure 3 winner.
	plat := hw.SingleGPUA100()
	res, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.LMOffloadProfile(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.AttnOnCPU {
		t.Errorf("quant-aware plan chose CPU attention: %v", res.Strategy)
	}
	if !res.Strategy.QuantKV {
		t.Errorf("quant-aware plan skipped KV quantization: %v", res.Strategy)
	}
}

func TestQuantAwareBeatsQuantBlind(t *testing.T) {
	plat := hw.SingleGPUA100()
	exec := perfmodel.LMOffloadProfile()
	aware, err := Plan(plat, model.OPT30B, workload.PaperDefault(), exec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	blindOpts := DefaultOptions()
	blindOpts.QuantAware = false
	blind, err := Plan(plat, model.OPT30B, workload.PaperDefault(), exec, blindOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The blind objective may pick a strategy whose true throughput is lower.
	if aware.Throughput < blind.Throughput-1e-9 {
		t.Errorf("quant-aware plan (%.1f) worse than quant-blind plan (%.1f)", aware.Throughput, blind.Throughput)
	}
}

func TestPlanRespectsRestrictedSpaces(t *testing.T) {
	plat := hw.SingleGPUA100()
	opts := DefaultOptions()
	opts.AllowGPUAttention = false
	res, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.FlexGenProfile(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.AttnOnCPU {
		t.Error("CPU-only space returned a GPU-attention strategy")
	}
	opts = DefaultOptions()
	opts.Bits = nil
	res, err = Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.FlexGenProfile(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.QuantWeights || res.Strategy.QuantKV {
		t.Errorf("no-quant space returned a quantized strategy: %v", res.Strategy)
	}
}

func TestPlanErrors(t *testing.T) {
	plat := hw.SingleGPUA100()
	opts := DefaultOptions()
	opts.AllowCPUAttention = false
	opts.AllowGPUAttention = false
	if _, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.FlexGenProfile(), opts); err == nil {
		t.Error("empty search space did not error")
	}
	opts = DefaultOptions()
	opts.GPUReserve = 1.5
	if _, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.FlexGenProfile(), opts); err == nil {
		t.Error("invalid reserve did not error")
	}
}

func TestPlanInfeasibleWorkload(t *testing.T) {
	// A block so large its KV cache cannot fit host memory even fully
	// offloaded and compressed.
	plat := hw.SingleGPUA100()
	work := workload.Job{PromptLen: 2048, GenLen: 2048, GPUBatch: 512, NumBatches: 64}
	if _, err := Plan(plat, model.OPT66B, work, perfmodel.LMOffloadProfile(), DefaultOptions()); err == nil {
		t.Error("grossly infeasible workload did not error")
	}
}

func TestChooseBlockFillsHostMemory(t *testing.T) {
	plat := hw.SingleGPUA100()
	// Table 3 shape: the block size shrinks as the generation length grows.
	var prev int
	for i, n := range workload.GenLengthSweep() {
		w, err := ChooseBlock(plat, model.OPT30B, 64, 64, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.BlockSize()%64 != 0 {
			t.Errorf("block %d not a multiple of the GPU batch", w.BlockSize())
		}
		if i > 0 && w.BlockSize() > prev {
			t.Errorf("block size grew with generation length: %d -> %d at n=%d", prev, w.BlockSize(), n)
		}
		prev = w.BlockSize()
		// The paper's OPT-30B blocks range from 1792 (n=8) to 640 (n=128).
		if n == 8 && (w.BlockSize() < 900 || w.BlockSize() > 3600) {
			t.Errorf("n=8 block = %d, want ~1792", w.BlockSize())
		}
		if n == 128 && (w.BlockSize() < 320 || w.BlockSize() > 1300) {
			t.Errorf("n=128 block = %d, want ~640", w.BlockSize())
		}
	}
}

func TestChooseBlockQuantizedKVGrowsBlock(t *testing.T) {
	plat := hw.SingleGPUA100()
	plain, err := ChooseBlock(plat, model.OPT30B, 64, 64, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ChooseBlock(plat, model.OPT30B, 64, 64, 128, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if packed.BlockSize() <= plain.BlockSize() {
		t.Errorf("4-bit KV should allow a larger block: %d <= %d", packed.BlockSize(), plain.BlockSize())
	}
}

func TestChooseBlockErrors(t *testing.T) {
	plat := hw.SingleGPUA100()
	if _, err := ChooseBlock(plat, model.OPT30B, 0, 64, 8, 1); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := ChooseBlock(plat, model.OPT30B, 64, 64, 8, 0); err == nil {
		t.Error("zero quant ratio accepted")
	}
	// A model whose weights exceed host memory entirely.
	giant := model.Config{Name: "giant", Layers: 400, Hidden: 20000, FFN: 80000, Heads: 100, Vocab: 50000, BytesPerElem: 2}
	if _, err := ChooseBlock(plat, giant, 64, 64, 8, 1); err == nil {
		t.Error("oversized model accepted")
	}
}

func TestPlanOnMultiGPUPlatform(t *testing.T) {
	// A 16 GB V100 with OPT-13B needs heavy offloading but must be feasible.
	plat := hw.MultiGPUV100().WithGPUCount(1)
	work := workload.MultiGPU(1)
	res, err := Plan(plat, model.OPT13B, work, perfmodel.LMOffloadProfile(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.WeightsGPUPct > 0.5 {
		t.Errorf("16 GB V100 cannot hold %.0f%% of OPT-13B weights", res.Strategy.WeightsGPUPct*100)
	}
}

func TestExplain(t *testing.T) {
	plat := hw.SingleGPUA100()
	res, err := Plan(plat, model.OPT30B, workload.PaperDefault(), perfmodel.LMOffloadProfile(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Explain(res)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen GPU-attention strategy must be consistent with the
	// decision procedures: KV quantization should be beneficial here.
	if !ex.KVQuantBeneficial {
		t.Error("Explain contradicts the chosen KV quantization")
	}
	if ex.KVMoveQuant >= ex.KVMovePlain {
		t.Errorf("quantized KV move %.4f not below plain %.4f", ex.KVMoveQuant, ex.KVMovePlain)
	}
	if ex.GPUAttnThroughput <= 0 || ex.CPUAttnThroughput <= 0 {
		t.Error("missing placement arm throughputs")
	}
	if ex.Bottleneck == "" {
		t.Error("no bottleneck identified")
	}
	out := ex.Format()
	for _, want := range []string{"decision 1", "decision 2", "decision 3", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
	if _, err := Explain(Result{}); err == nil {
		t.Error("Explain accepted a result without estimator")
	}
}
