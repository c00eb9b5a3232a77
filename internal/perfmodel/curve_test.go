package perfmodel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestLatencyCurveGrowsWithKVCache(t *testing.T) {
	e := fixture(t, Strategy{WeightsGPUPct: 0.55}, FlexGenProfile())
	curve := e.LatencyCurve()
	if len(curve) != e.Work.GenLen {
		t.Fatalf("curve length %d, want %d", len(curve), e.Work.GenLen)
	}
	// The old KV cache grows linearly, so the per-step time must be
	// strictly increasing without attention offloading.
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("curve not increasing at token %d: %g <= %g", i, curve[i], curve[i-1])
		}
	}
	// The averaged TGen sits inside the curve's range.
	tg := e.TGen()
	if tg < curve[0] || tg > curve[len(curve)-1] {
		t.Errorf("TGen %g outside curve range [%g, %g]", tg, curve[0], curve[len(curve)-1])
	}
}

func TestLatencyCurveAveragesToTGen(t *testing.T) {
	// The mean of the per-token curve should approximate the Eq. 18
	// averaged model (the curve is linear in t, so it matches closely).
	for _, s := range []Strategy{
		{WeightsGPUPct: 0.55},
		{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64},
	} {
		e := fixture(t, s, FlexGenProfile())
		curve := e.LatencyCurve()
		var sum float64
		for _, v := range curve {
			sum += v
		}
		mean := sum / float64(len(curve))
		if r := mean / e.TGen(); r < 0.95 || r > 1.05 {
			t.Errorf("%v: curve mean / TGen = %.3f, want ~1", s, r)
		}
	}
}

func TestLatencyCurveCPUAttentionGrowsViaCompute(t *testing.T) {
	e := fixture(t, Strategy{AttnOnCPU: true, WeightsGPUPct: 0.55}, FlexGenProfile())
	curve := e.LatencyCurve()
	// With attention on the CPU the link sees no KV, but the CPU attention
	// work still grows with the sequence.
	if curve[len(curve)-1] <= curve[0] {
		t.Errorf("CPU-attention curve flat: %g .. %g", curve[0], curve[len(curve)-1])
	}
	p0 := e.PartsAt(0)
	pN := e.PartsAt(e.Work.GenLen - 1)
	if p0.LinkUp != pN.LinkUp {
		t.Errorf("link time changed with tokens under attention offloading: %g vs %g", p0.LinkUp, pN.LinkUp)
	}
	if pN.CPUCompute <= p0.CPUCompute {
		t.Errorf("CPU attention did not grow: %g <= %g", pN.CPUCompute, p0.CPUCompute)
	}
}

func TestCurveOnMultiGPUPlatformModel(t *testing.T) {
	// Smoke the curve on the other platform/model pair.
	e, err := New(hw.MultiGPUV100().WithGPUCount(1), model.OPT13B, workload.MultiGPU(1),
		Strategy{WeightsGPUPct: 0.2}, LMOffloadProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.LatencyCurve() {
		if v <= 0 {
			t.Fatal("non-positive curve point")
		}
	}
}
