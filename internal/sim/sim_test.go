package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestKernelSerialChain(t *testing.T) {
	s := New()
	s.AddResource("r")
	a := s.AddTask(TaskSpec{Name: "a", Resource: "r", Duration: 1})
	b := s.AddTask(TaskSpec{Name: "b", Resource: "r", Duration: 2, Deps: []TaskID{a}})
	s.AddTask(TaskSpec{Name: "c", Resource: "r", Duration: 3, Deps: []TaskID{b}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6 {
		t.Errorf("makespan = %g, want 6", res.Makespan)
	}
	if res.Busy["r"] != 6 {
		t.Errorf("busy = %g, want 6", res.Busy["r"])
	}
	if res.Utilization("r") != 1 {
		t.Errorf("utilization = %g, want 1", res.Utilization("r"))
	}
}

func TestKernelIndependentResourcesOverlap(t *testing.T) {
	s := New()
	s.AddResource("x")
	s.AddResource("y")
	s.AddTask(TaskSpec{Name: "a", Resource: "x", Duration: 5})
	s.AddTask(TaskSpec{Name: "b", Resource: "y", Duration: 3})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Errorf("makespan = %g, want 5 (full overlap)", res.Makespan)
	}
}

func TestKernelResourceContention(t *testing.T) {
	// Two independent tasks on one resource serialize in issue order.
	s := New()
	s.AddResource("link")
	a := s.AddTask(TaskSpec{Name: "a", Resource: "link", Duration: 2})
	b := s.AddTask(TaskSpec{Name: "b", Resource: "link", Duration: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 4 {
		t.Errorf("makespan = %g, want 4 (serialized)", res.Makespan)
	}
	if res.Start[b] < res.End[a] {
		t.Errorf("task b started at %g before a ended at %g", res.Start[b], res.End[a])
	}
}

func TestKernelDiamondWithResources(t *testing.T) {
	// a -> {b, c} -> d where b and c use different resources: they overlap.
	s := New()
	s.AddResource("r1")
	s.AddResource("r2")
	a := s.AddTask(TaskSpec{Name: "a", Resource: "r1", Duration: 1})
	b := s.AddTask(TaskSpec{Name: "b", Resource: "r1", Duration: 4, Deps: []TaskID{a}})
	c := s.AddTask(TaskSpec{Name: "c", Resource: "r2", Duration: 4, Deps: []TaskID{a}})
	s.AddTask(TaskSpec{Name: "d", Resource: "r1", Duration: 1, Deps: []TaskID{b, c}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6 {
		t.Errorf("makespan = %g, want 6", res.Makespan)
	}
}

func TestKernelErrors(t *testing.T) {
	s := New()
	s.AddResource("r")
	s.AddTask(TaskSpec{Name: "bad", Resource: "unknown", Duration: 1})
	if _, err := s.Run(); err == nil {
		t.Error("unknown resource accepted")
	}

	s2 := New()
	s2.AddResource("r")
	s2.AddTask(TaskSpec{Name: "neg", Resource: "r", Duration: -1})
	if _, err := s2.Run(); err == nil {
		t.Error("negative duration accepted")
	}

	s3 := New()
	s3.AddResource("r")
	s3.AddTask(TaskSpec{Name: "self", Resource: "r", Duration: 1, Deps: []TaskID{0}})
	if _, err := s3.Run(); err == nil {
		t.Error("self/forward dependency accepted")
	}

	s4 := New()
	if res, err := s4.Run(); err != nil || res.Makespan != 0 {
		t.Errorf("empty sim: %v, %v", res, err)
	}
}

// Property: makespan is at least the busiest resource's work and at most the
// total serial work; every task starts after its dependencies end.
func TestPropertyKernelBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		resources := []string{"a", "b", "c"}
		for _, r := range resources {
			s.AddResource(r)
		}
		n := 1 + rng.Intn(40)
		var total float64
		for i := 0; i < n; i++ {
			var deps []TaskID
			for d := 0; d < i; d++ {
				if rng.Float64() < 0.1 {
					deps = append(deps, TaskID(d))
				}
			}
			dur := rng.Float64()
			total += dur
			s.AddTask(TaskSpec{
				Name:     "t",
				Resource: resources[rng.Intn(len(resources))],
				Duration: dur,
				Deps:     deps,
			})
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		maxBusy := 0.0
		for _, b := range res.Busy {
			if b > maxBusy {
				maxBusy = b
			}
		}
		if res.Makespan < maxBusy-1e-9 || res.Makespan > total+1e-9 {
			return false
		}
		for i, task := range s.tasks {
			for _, d := range task.Deps {
				if res.Start[i] < res.End[d]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mkEstimator(t *testing.T, s perfmodel.Strategy, exec perfmodel.ExecProfile) *perfmodel.Estimator {
	t.Helper()
	e, err := perfmodel.New(hw.SingleGPUA100(), model.OPT30B, workload.PaperDefault(), s, exec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimulateDecodeAgainstAnalyticalModel(t *testing.T) {
	// The DES derives overlap from first principles; it must land in the
	// same regime as the calibrated analytical composition (between the
	// ideal max and full serialization, and within ~2.5x of the β model).
	cases := []perfmodel.Strategy{
		{AttnOnCPU: true, WeightsGPUPct: 0.55},
		{WeightsGPUPct: 0.55},
		{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64},
	}
	for _, strat := range cases {
		e := mkEstimator(t, strat, perfmodel.FlexGenProfile())
		res, err := SimulateDecode(e, 3)
		if err != nil {
			t.Fatal(err)
		}
		analytic := e.TGen()
		serial := e.TGenSerial()
		if res.StepTime <= 0 {
			t.Fatalf("%v: non-positive step time", strat)
		}
		if res.StepTime > serial*1.05 {
			t.Errorf("%v: DES step %.4f exceeds full serialization %.4f", strat, res.StepTime, serial)
		}
		ratio := res.StepTime / analytic
		if ratio < 0.3 || ratio > 2.5 {
			t.Errorf("%v: DES/analytic ratio = %.2f, want within [0.3, 2.5]", strat, ratio)
		}
	}
}

func TestSimulatePreservesFigure3Ordering(t *testing.T) {
	// The simulator must agree with the paper on the key ordering: without
	// attention offloading, KV quantization helps.
	fg := perfmodel.FlexGenProfile()
	plain, err := SimulateDecode(mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55}, fg), 3)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := SimulateDecode(mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}, fg), 3)
	if err != nil {
		t.Fatal(err)
	}
	if quant.Throughput <= plain.Throughput {
		t.Errorf("KV quantization should help in simulation: %.1f <= %.1f", quant.Throughput, plain.Throughput)
	}
}

func TestSimulateLinkIsBottleneckWithoutQuant(t *testing.T) {
	e := mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55}, perfmodel.FlexGenProfile())
	res, err := SimulateDecode(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization[ResH2D] < 0.5 {
		t.Errorf("H2D utilization = %.2f, expected the upload link to be the bottleneck", res.Utilization[ResH2D])
	}
	if res.Utilization[ResH2D] > 1.000001 {
		t.Errorf("utilization above 1: %v", res.Utilization)
	}
}

func TestSimulateCPUAttentionShiftsBottleneck(t *testing.T) {
	e := mkEstimator(t, perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.55}, perfmodel.FlexGenProfile())
	res, err := SimulateDecode(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization[ResCPU] < res.Utilization[ResGPU] {
		t.Errorf("with attention offloading the CPU (%.2f) should outwork the GPU (%.2f)",
			res.Utilization[ResCPU], res.Utilization[ResGPU])
	}
}

func TestSimulateStepsClamping(t *testing.T) {
	e := mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55}, perfmodel.FlexGenProfile())
	if _, err := SimulateDecode(e, 0); err == nil {
		t.Error("zero steps accepted")
	}
	res, err := SimulateDecode(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedSteps != 2 {
		t.Errorf("SimulatedSteps = %d, want 2", res.SimulatedSteps)
	}
	if res.Tasks <= 0 {
		t.Error("no tasks simulated")
	}
}

func TestSimulateSteadyState(t *testing.T) {
	// Per-step time should be stable across window sizes (periodic schedule).
	e := mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55}, perfmodel.FlexGenProfile())
	short, err := SimulateDecode(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateDecode(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r := long.StepTime / short.StepTime; math.Abs(r-1) > 0.25 {
		t.Errorf("step time drifts with window: %.4f vs %.4f", short.StepTime, long.StepTime)
	}
}

func TestSimulatePrefill(t *testing.T) {
	e := mkEstimator(t, perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.55}, perfmodel.FlexGenProfile())
	res, err := SimulatePrefill(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.PerLayer <= 0 {
		t.Fatalf("non-positive prefill times: %+v", res)
	}
	// Prefill is compute-bound on the GPU for this config (whole-prompt
	// GEMMs), with the KV offload overlapped on the downlink.
	if res.Utilization[ResGPU] < 0.5 {
		t.Errorf("GPU utilization %.2f, expected compute-bound prefill", res.Utilization[ResGPU])
	}
	// The DES prefill should be close to the analytical per-layer estimate.
	analytic := e.TPrefill()
	if r := res.PerLayer / analytic; r < 0.5 || r > 2.5 {
		t.Errorf("DES/analytic prefill ratio = %.2f", r)
	}
}

func TestPaperEq2IsOptimistic(t *testing.T) {
	// The literal Eq. 2 max is a lower bound on every other composition:
	// the β model and the simulator both sit at or above it.
	for _, strat := range []perfmodel.Strategy{
		{WeightsGPUPct: 0.55},
		{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64},
		{AttnOnCPU: true, WeightsGPUPct: 0.55},
	} {
		e := mkEstimator(t, strat, perfmodel.FlexGenProfile())
		paper := e.TGenPaper()
		if e.TGen() < paper*0.999 {
			t.Errorf("%v: β model (%.4f) below the Eq. 2 bound (%.4f)", strat, e.TGen(), paper)
		}
		res, err := SimulateDecode(e, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.StepTime < paper*0.9 {
			t.Errorf("%v: DES (%.4f) far below the Eq. 2 bound (%.4f)", strat, res.StepTime, paper)
		}
	}
}

func TestTaskBusyAccounting(t *testing.T) {
	e := mkEstimator(t, perfmodel.Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}, perfmodel.FlexGenProfile())
	res, err := SimulateDecode(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"load_weight", "load_cache", "compute", "store_cache", "dequan_cache", "quan_cache"} {
		if res.TaskBusy[kind] <= 0 {
			t.Errorf("task kind %q has no busy time: %v", kind, res.TaskBusy)
		}
	}
	if _, ok := res.TaskBusy["sync"]; ok {
		t.Error("sync pseudo-tasks leaked into TaskBusy")
	}
	// Per-layer-token load_cache busy should match the analytical component.
	if r := res.TaskBusy["load_cache"] / e.KVUpTime(); r < 0.95 || r > 1.05 {
		t.Errorf("load_cache busy ratio = %.2f, want ~1", r)
	}
}
