package perfmodel

import (
	"math"
	"testing"
	"time"
)

func TestAdmissionModelSaturates(t *testing.T) {
	a := AdmissionModel{
		HiddenDim:     1 << 30,
		BytesPerElem:  8,
		ResidentBase:  math.MaxInt64 - 10,
		LayerBytes:    math.MaxInt64 / 2,
		WeightBuffers: 4,
		Slack:         1.5,
	}
	kv := a.SlotKVBytes(math.MaxInt32, math.MaxInt32)
	if kv < 0 {
		t.Fatalf("SlotKVBytes overflowed negative: %d", kv)
	}
	if kv != math.MaxInt64 {
		t.Fatalf("SlotKVBytes = %d, want saturation at MaxInt64", kv)
	}
	peak := a.PeakBytes(kv)
	if peak < 0 || peak != math.MaxInt64 {
		t.Fatalf("PeakBytes = %d, want saturation at MaxInt64", peak)
	}
	if got := a.SlotKVBytes(-5, -7); got != 0 {
		t.Fatalf("negative lengths gave %d, want 0", got)
	}
}

func TestAdmissionModelMonotone(t *testing.T) {
	a := AdmissionModel{HiddenDim: 64, BytesPerElem: 4, ResidentBase: 1 << 20, LayerBytes: 1 << 17, WeightBuffers: 2, Slack: 1.2}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for n := 0; n <= 256; n += 16 {
		kv := a.SlotKVBytes(8, n)
		if kv <= prev {
			t.Fatalf("SlotKVBytes not strictly increasing at n=%d: %d <= %d", n, kv, prev)
		}
		if want := int64(2 * (8 + n) * 64 * 4); kv != want {
			t.Fatalf("SlotKVBytes(8, %d) = %d, want %d", n, kv, want)
		}
		if peak := a.PeakBytes(kv); peak < a.ResidentBase+2*a.LayerBytes+kv {
			t.Fatalf("PeakBytes(%d) = %d below unslacked sum", kv, peak)
		}
		prev = kv
	}
}

func TestAdmissionModelValidate(t *testing.T) {
	bad := []AdmissionModel{
		{HiddenDim: 0, BytesPerElem: 4, Slack: 1},
		{HiddenDim: 64, BytesPerElem: 0, Slack: 1},
		{HiddenDim: 64, BytesPerElem: 4, Slack: 0.5},
		{HiddenDim: 64, BytesPerElem: 4, Slack: 1, ResidentBase: -1},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid model", a)
		}
	}
}

func TestStepCostModelRecoversAffineFit(t *testing.T) {
	m := &StepCostModel{}
	const fixed, perSlot = 2 * time.Millisecond, 500 * time.Microsecond
	for i := 0; i < 100; i++ {
		b := 1 + i%4
		m.Observe(b, fixed+time.Duration(b)*perSlot)
	}
	if !m.Ready() {
		t.Fatal("model not ready after 100 samples")
	}
	for b := 1; b <= 8; b++ {
		want := fixed + time.Duration(b)*perSlot
		got := m.PredictTPOT(b)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > want/10 {
			t.Fatalf("PredictTPOT(%d) = %v, want ~%v", b, got, want)
		}
	}
	if d := m.PredictDrain(100, 4); d <= 0 {
		t.Fatal("PredictDrain returned nothing with a ready model")
	}
}

// TestStepCostModelOutlierAtRareOccupancy replays the serving pattern that
// skews an intercept-clamped fit: steps cost ~250µs per slot with no fixed
// part, nearly all at occupancy 1, and the only occupancy-2 window holds one
// 5ms stall. The unconstrained intercept goes negative; the fit must refit
// through the origin rather than pair a zero intercept with the stall-steep
// slope, which quotes ~4x the occupancy-1 step for as long as no
// occupancy-2 step arrives. The origin fit still carries the stall's share
// of the decayed sums (~1.3x here), so the bar sits between the two.
func TestStepCostModelOutlierAtRareOccupancy(t *testing.T) {
	m := &StepCostModel{}
	const perSlot = 250 * time.Microsecond
	for i := 0; i < 20; i++ {
		m.Observe(1, perSlot)
	}
	m.Observe(2, 5*time.Millisecond)
	for i := 0; i < 4; i++ {
		m.Observe(2, 2*perSlot)
	}
	for i := 0; i < 40; i++ {
		m.Observe(1, perSlot)
	}
	fixed, slope := m.Coefficients()
	if fixed < 0 || slope < 0 {
		t.Fatalf("coefficients (%g, %g) left the non-negative quadrant", fixed, slope)
	}
	if got := m.PredictTPOT(1); got > perSlot*3/2 {
		t.Fatalf("PredictTPOT(1) = %v after 40 clean %v steps: rare-occupancy outlier still skews the fit", got, perSlot)
	}
}

func TestAffineFitConstrained(t *testing.T) {
	// Weighted sums for points (1,1), (2,3), (3,4): the unconstrained fit is
	// y = -1/3 + 1.5x, so the intercept constraint binds and the slope is
	// refit through the origin: Σxy/Σx² = 19/14.
	fixed, slope := affineFit(3, 6, 14, 8, 19)
	if fixed != 0 || math.Abs(slope-19.0/14) > 1e-12 {
		t.Fatalf("intercept-bound fit = (%g, %g), want (0, %g)", fixed, slope, 19.0/14)
	}
	// Points (1,4), (2,3), (3,2): negative slope falls back to the mean.
	fixed, slope = affineFit(3, 6, 14, 9, 16)
	if fixed != 3 || slope != 0 {
		t.Fatalf("slope-bound fit = (%g, %g), want (3, 0)", fixed, slope)
	}
	// Points (1,3), (2,5): interior optimum y = 1 + 2x is returned as is.
	fixed, slope = affineFit(2, 3, 5, 8, 13)
	if math.Abs(fixed-1) > 1e-12 || math.Abs(slope-2) > 1e-12 {
		t.Fatalf("interior fit = (%g, %g), want (1, 2)", fixed, slope)
	}
}

func TestStepCostModelDegenerateOccupancy(t *testing.T) {
	m := &StepCostModel{}
	for i := 0; i < 50; i++ {
		m.Observe(3, 6*time.Millisecond)
	}
	got := m.PredictTPOT(3)
	if got < 5*time.Millisecond || got > 7*time.Millisecond {
		t.Fatalf("constant-occupancy prediction %v strayed from 6ms", got)
	}
	// Extrapolation with a degenerate fit must not predict negative or
	// shrinking cost.
	if m.PredictTPOT(10) < got {
		t.Fatal("degenerate fit predicts faster steps at higher occupancy")
	}
	var empty StepCostModel
	if empty.PredictTPOT(4) != 0 || empty.PredictDrain(10, 2) != 0 {
		t.Fatal("unready model must predict zero")
	}
}
