package runtime

import (
	"context"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// w4Policy streams 4-bit weights with the next layer's load overlapping the
// current layer's compute.
func w4Policy() Policy {
	return Policy{IntraOp: 1, QuantWeights: true, WeightCfg: quant.DefaultConfig(), Prefetch: true}
}

// dequantizedModel is the seed's model with every layer replaced by its
// weights after a 4-bit round trip: the plain model then computes with
// exactly the values a w4 engine stages.
func dequantizedModel(t *testing.T, seed int64) *model.Model {
	t.Helper()
	m := tinyModel(t, seed)
	ws, err := NewWeightStore(m.Layers, true, quant.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	for j := range m.Layers {
		m.Layers[j] = ws.Load(j)
	}
	return m
}

// TestStagingSurvivesRetriedPrefetch: weight-transfer faults fail layer
// j+1's load while layer j computes, and every retry decodes into the
// staging buffer again; tokens stay exactly those of the plain model on the
// dequantized weights, and no arena bytes leak.
func TestStagingSurvivesRetriedPrefetch(t *testing.T) {
	const genLen = 8
	want, err := dequantizedModel(t, 42).Generate(nil, 1, testPrompts(), genLen)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tinyModel(t, 42), w4Policy(), bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.MustNew(3, map[faults.Site]faults.Rule{faults.WeightTransfer: {Prob: 0.3}})
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(RetryConfig{MaxAttempts: 8})
	got, err := eng.Generate(context.Background(), testPrompts(), genLen)
	if err != nil {
		t.Fatalf("generation failed: %v (injector: %s)", err, inj)
	}
	assertTokens(t, got, want)
	if inj.Fired(faults.WeightTransfer) == 0 || eng.Stats().TotalRetries() == 0 {
		t.Errorf("no load was retried (fired %d); the test is vacuous", inj.Fired(faults.WeightTransfer))
	}
	if len(eng.Stats().Degradations) != 0 {
		t.Errorf("run degraded (%v), so prefetch stopped overlapping", eng.Stats().Degradations)
	}
	if used := eng.ArenaUsed(); used != 0 {
		t.Errorf("arena leak: %d bytes", used)
	}
}

// TestPinnedLayersNotStaged: uncompressed residents keep their own tensors,
// so streaming the other layers through the staging buffers leaves the
// pinned weights bit-unchanged.
func TestPinnedLayersNotStaged(t *testing.T) {
	pol := w4Policy()
	pol.ResidentLayers = 2
	eng, err := NewEngine(tinyModel(t, 42), pol, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before [][]*tensor.Tensor
	for _, lw := range eng.resident {
		var ts []*tensor.Tensor
		for _, w := range lw.Tensors() {
			ts = append(ts, w.Clone())
		}
		before = append(before, ts)
	}
	if _, err := eng.Generate(context.Background(), testPrompts(), 5); err != nil {
		t.Fatal(err)
	}
	for j, lw := range eng.resident {
		for i, w := range lw.Tensors() {
			for k, v := range w.Data() {
				if math.Float32bits(v) != math.Float32bits(before[j][i].Data()[k]) {
					t.Fatalf("pinned layer %d matrix %d element %d changed: %g -> %g", j, i, k, before[j][i].Data()[k], v)
				}
			}
		}
	}
}

// TestWarmStepAllocs gates a warmed w4 decode step's heap allocations:
// streamed layers decode into the two staging buffers, not into six fresh
// tensors per load. A step of this four-layer model took 447 allocations
// when every load allocated and 371 with staging; the bound sits more than
// six per layer below the former.
func TestWarmStepAllocs(t *testing.T) {
	const maxAllocs = 400
	eng, err := NewEngine(tinyModel(t, 3), w4Policy(), bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Admit(ctx, 0, []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Step(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("warm w4 step allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
