package baselines

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestFlexGenMatchesPublishedPolicyShape(t *testing.T) {
	plat := hw.SingleGPUA100()
	sys, err := FlexGen(plat, model.OPT30B, 64, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Strategy
	if !s.AttnOnCPU {
		t.Error("FlexGen should offload decode attention to the CPU")
	}
	if s.QuantWeights || s.QuantKV {
		t.Errorf("FlexGen's published configs use no compression, got %v", s)
	}
	// Table 3: OPT-30B wg=55, cg=0, hg=0.
	if s.WeightsGPUPct < 0.3 || s.WeightsGPUPct > 0.8 {
		t.Errorf("FlexGen wg = %.0f%%, want ~55%%", s.WeightsGPUPct*100)
	}
	if s.CacheGPUPct != 0 {
		t.Errorf("FlexGen cg = %.0f%%, want 0", s.CacheGPUPct*100)
	}
	if sys.Throughput() <= 0 {
		t.Error("non-positive FlexGen throughput")
	}
}

func TestZeROAllOrNothing(t *testing.T) {
	plat := hw.SingleGPUA100()
	sys, err := ZeRO(plat, model.OPT30B, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Strategy
	// Table 3 ZeRO rows: wg=100, cg=0, hg=100, 4-bit weights, bsz <= 64.
	if s.WeightsGPUPct != 1 {
		t.Errorf("ZeRO wg = %.0f%%, want 100%% (30B weights fit at 4 bits)", s.WeightsGPUPct*100)
	}
	if !s.QuantWeights || s.WeightBits != 4 {
		t.Errorf("ZeRO must use 4-bit weights, got %v", s)
	}
	if s.CacheGPUPct != 0 || s.ActGPUPct != 1 {
		t.Errorf("ZeRO placement cg=%.0f hg=%.0f, want 0/100", s.CacheGPUPct*100, s.ActGPUPct*100)
	}
	if sys.Work.GPUBatch > 64 {
		t.Errorf("ZeRO batch %d exceeds the paper's 64", sys.Work.GPUBatch)
	}
	if sys.Work.NumBatches != 1 {
		t.Errorf("ZeRO has no zig-zag blocks, got %d batches", sys.Work.NumBatches)
	}
}

func TestZeROShrinksBatchForBigModels(t *testing.T) {
	plat := hw.SingleGPUA100()
	small, err := ZeRO(plat, model.OPT30B, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ZeRO(plat, model.OPT66B, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if big.Work.GPUBatch >= small.Work.GPUBatch {
		t.Errorf("ZeRO batch should shrink for OPT-66B: %d >= %d", big.Work.GPUBatch, small.Work.GPUBatch)
	}
}

func TestLMOffloadBeatsBaselines(t *testing.T) {
	// Table 3's headline: LM-Offload wins on (almost) every configuration.
	// Check the four evaluated models at n = 32.
	plat := hw.SingleGPUA100()
	for _, mod := range model.Evaluated() {
		lm, err := LMOffload(plat, mod, 64, 64, 32)
		if err != nil {
			t.Fatalf("%s: %v", mod.Name, err)
		}
		fg, err := FlexGen(plat, mod, 64, 64, 32)
		if err != nil {
			t.Fatalf("%s: %v", mod.Name, err)
		}
		zr, err := ZeRO(plat, mod, 64, 32)
		if err != nil {
			t.Fatalf("%s: %v", mod.Name, err)
		}
		if lm.Throughput() <= fg.Throughput() {
			t.Errorf("%s: LM-Offload (%.1f) does not beat FlexGen (%.1f)", mod.Name, lm.Throughput(), fg.Throughput())
		}
		// The paper itself has near-ties and one loss against ZeRO (OPT-30B
		// n=128, LLaMA-65B n=32), so require LM-Offload within 15% at worst.
		if lm.Throughput() < zr.Throughput()*0.85 {
			t.Errorf("%s: LM-Offload (%.1f) far below ZeRO (%.1f)", mod.Name, lm.Throughput(), zr.Throughput())
		}
	}
}

func TestLMOffloadBeatsZeROOnAverage(t *testing.T) {
	// §5.2: 1.57x average over ZeRO-Inference across the sweep.
	plat := hw.SingleGPUA100()
	var sum float64
	var count int
	for _, mod := range model.Evaluated() {
		for _, n := range []int{8, 32, 128} {
			lm, err := LMOffload(plat, mod, 64, 64, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", mod.Name, n, err)
			}
			zr, err := ZeRO(plat, mod, 64, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", mod.Name, n, err)
			}
			sum += lm.Throughput() / zr.Throughput()
			count++
		}
	}
	if avg := sum / float64(count); avg < 1.15 {
		t.Errorf("average ZeRO speedup %.2fx below 1.15x (paper: 1.57x)", avg)
	}
}

func TestLMOffloadEnablesLargerBatchesThanZeRO(t *testing.T) {
	// §5.2: LM-Offload runs ~24x larger batches than ZeRO-Inference.
	plat := hw.SingleGPUA100()
	lm, err := LMOffload(plat, model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := ZeRO(plat, model.OPT30B, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(lm.Work.BlockSize()) / float64(zr.Work.BlockSize())
	if ratio < 8 {
		t.Errorf("LM-Offload/ZeRO batch ratio = %.1fx, want >= 8x (paper ~24x)", ratio)
	}
}

func TestLMOffloadNoPCBetweenFlexGenAndFull(t *testing.T) {
	// Fig. 7: the quantization-aware policy alone (no parallelism control)
	// already beats FlexGen; the full system is at least as good.
	plat := hw.SingleGPUA100()
	fg, err := FlexGen(plat, model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	nopc, err := LMOffloadNoPC(plat, model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LMOffload(plat, model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if nopc.Throughput() <= fg.Throughput() {
		t.Errorf("no-PC LM-Offload (%.1f) should beat FlexGen (%.1f)", nopc.Throughput(), fg.Throughput())
	}
	if full.Throughput() < nopc.Throughput() {
		t.Errorf("full LM-Offload (%.1f) should be >= no-PC (%.1f)", full.Throughput(), nopc.Throughput())
	}
}

func TestTable3SpeedupBands(t *testing.T) {
	// The abstract's headline numbers: up to 2.95x over FlexGen (2.34x avg)
	// and up to 2.88x over ZeRO (1.57x avg). Require the geometric shape:
	// every FlexGen ratio in [1.2, 6],average above 1.5.
	plat := hw.SingleGPUA100()
	var sum float64
	var count int
	for _, n := range []int{8, 32, 128} {
		lm, err := LMOffload(plat, model.OPT30B, 64, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := FlexGen(plat, model.OPT30B, 64, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		r := lm.Throughput() / fg.Throughput()
		if r < 1.2 || r > 6 {
			t.Errorf("n=%d: LM-Offload/FlexGen = %.2fx outside [1.2, 6]", n, r)
		}
		sum += r
		count++
	}
	if avg := sum / float64(count); avg < 1.5 {
		t.Errorf("average FlexGen speedup %.2fx below 1.5x (paper: 2.34x)", avg)
	}
}

func TestBaselinesOnInvalidInputs(t *testing.T) {
	plat := hw.SingleGPUA100()
	if _, err := FlexGen(plat, model.OPT30B, 0, 64, 8); err == nil {
		t.Error("FlexGen accepted zero batch")
	}
	if _, err := LMOffload(plat, model.OPT30B, 64, 0, 8); err == nil {
		t.Error("LMOffload accepted zero prompt")
	}
}

func TestWorkloadsMatchAcrossSystems(t *testing.T) {
	// Table 3 compares FlexGen and LM-Offload at the same batch geometry.
	plat := hw.SingleGPUA100()
	fg, err := FlexGen(plat, model.LLaMA30B, 64, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := LMOffload(plat, model.LLaMA30B, 64, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if fg.Work != lm.Work {
		t.Errorf("workloads differ: FlexGen %v vs LM-Offload %v", fg.Work, lm.Work)
	}
	if fg.Work != (workload.Job{}) && fg.Work.GPUBatch != 64 {
		t.Errorf("GPU batch = %d, want 64", fg.Work.GPUBatch)
	}
}

func TestH100ShiftsThePolicy(t *testing.T) {
	// Doubled GPU memory and link bandwidth: OPT-30B fits far more weights
	// on the H100, and every system speeds up.
	a, err := LMOffload(hw.SingleGPUA100(), model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := LMOffload(hw.SingleGPUH100(), model.OPT30B, 64, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if h.Throughput() <= a.Throughput() {
		t.Errorf("H100 (%.1f) not faster than A100 (%.1f)", h.Throughput(), a.Throughput())
	}
}
