package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestFaultOutagePushesCompletion(t *testing.T) {
	s := New()
	s.AddResource("link")
	if err := s.AddFault(FaultEvent{Resource: "link", Start: 1, Duration: 1}); err != nil {
		t.Fatal(err)
	}
	// 2s of work: 1s before the outage, then stalled over [1, 2), then 1s more.
	id := s.AddTask(TaskSpec{Name: "xfer", Resource: "link", Duration: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.End[id] != 3 {
		t.Errorf("end = %g, want 3 (2s work + 1s outage)", res.End[id])
	}
}

func TestFaultSlowdownStretchesWork(t *testing.T) {
	s := New()
	s.AddResource("link")
	// Rate drops to 1/2 over [1, 2): the window serves only 0.5 of work.
	if err := s.AddFault(FaultEvent{Resource: "link", Start: 1, Duration: 1, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	id := s.AddTask(TaskSpec{Name: "xfer", Resource: "link", Duration: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 1s full rate (1 work) + window (0.5 work) + 0.5s full rate = end 2.5.
	if res.End[id] != 2.5 {
		t.Errorf("end = %g, want 2.5", res.End[id])
	}
}

func TestFaultWindowBeforeAndAfterTaskIsFree(t *testing.T) {
	s := New()
	s.AddResource("r")
	if err := s.AddFault(FaultEvent{Resource: "r", Start: 10, Duration: 5}); err != nil {
		t.Fatal(err)
	}
	id := s.AddTask(TaskSpec{Name: "a", Resource: "r", Duration: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.End[id] != 2 {
		t.Errorf("end = %g, want 2 (window opens after completion)", res.End[id])
	}
}

// TestFaultTaskAcrossWindows runs one task through several slowdown
// windows and checks its completion against the closed form: a window of
// duration D and factor f serves D/f of work, a gap serves its length.
func TestFaultTaskAcrossWindows(t *testing.T) {
	cases := []struct {
		name string
		work float64
		evs  []FaultEvent
		want float64
	}{
		{
			// A thermal ramp: back-to-back windows with rising factors,
			// the last one held; the rest runs after it closes at 32.5.
			name: "contiguous rising",
			work: 30,
			evs: []FaultEvent{
				{Resource: "gpu", Start: 5, Duration: 2.5, Factor: 1.5},
				{Resource: "gpu", Start: 7.5, Duration: 2.5, Factor: 2},
				{Resource: "gpu", Start: 10, Duration: 2.5, Factor: 2.5},
				{Resource: "gpu", Start: 12.5, Duration: 20, Factor: 3},
			},
			want: 32.5 + (30 - 5 - 2.5/1.5 - 2.5/2 - 2.5/2.5 - 20/3.0),
		},
		{
			// [0,1) serves 1, [1,3) serves 2/2, the gap [3,5) serves 2,
			// and the remaining 0.2 takes 0.2*4 inside [5,7).
			name: "gap between windows",
			work: 4.2,
			evs: []FaultEvent{
				{Resource: "gpu", Start: 1, Duration: 2, Factor: 2},
				{Resource: "gpu", Start: 5, Duration: 2, Factor: 4},
			},
			want: 5 + (4.2-1-2.0/2-2)*4,
		},
	}
	for _, c := range cases {
		s := New()
		s.AddResource("gpu")
		for _, ev := range c.evs {
			if err := s.AddFault(ev); err != nil {
				t.Fatal(err)
			}
		}
		id := s.AddTask(TaskSpec{Name: "work", Resource: "gpu", Duration: c.work})
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.End[id]-c.want) > 1e-9 {
			t.Errorf("%s: end = %.12g, want %.12g", c.name, res.End[id], c.want)
		}
	}
}

func TestFaultZeroDurationSyncNotDelayed(t *testing.T) {
	// A synchronize() pseudo-task carries no work, so an open outage window
	// must not push it: it completes the instant its dependencies do.
	s := New()
	s.AddResource("gpu")
	s.AddResource("sync")
	if err := s.AddFault(FaultEvent{Resource: "sync", Start: 0, Duration: 100}); err != nil {
		t.Fatal(err)
	}
	a := s.AddTask(TaskSpec{Name: "work", Resource: "gpu", Duration: 3})
	b := s.AddTask(TaskSpec{Name: "sync", Resource: "sync", Duration: 0, Deps: []TaskID{a}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.End[b] != 3 {
		t.Errorf("sync end = %g, want 3", res.End[b])
	}
}

func TestFaultOnIdleResourceLeavesScheduleUnchanged(t *testing.T) {
	build := func(withFault bool) *Result {
		s := New()
		s.AddResource("gpu")
		s.AddResource("link")
		if withFault {
			if err := s.AddFault(FaultEvent{Resource: "link", Start: 0, Duration: 50}); err != nil {
				t.Fatal(err)
			}
		}
		a := s.AddTask(TaskSpec{Name: "a", Resource: "gpu", Duration: 1})
		s.AddTask(TaskSpec{Name: "b", Resource: "gpu", Duration: 2, Deps: []TaskID{a}})
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, faulted := build(false), build(true)
	if clean.Makespan != faulted.Makespan {
		t.Errorf("makespan changed %g -> %g though no task touches the faulted resource",
			clean.Makespan, faulted.Makespan)
	}
}

func TestFaultValidation(t *testing.T) {
	s := New()
	s.AddResource("r")
	cases := []struct {
		name string
		ev   FaultEvent
	}{
		{"no resource", FaultEvent{Start: 0, Duration: 1}},
		{"negative start", FaultEvent{Resource: "r", Start: -1, Duration: 1}},
		{"zero duration", FaultEvent{Resource: "r", Start: 0, Duration: 0}},
		{"factor below 1", FaultEvent{Resource: "r", Start: 0, Duration: 1, Factor: 0.5}},
		{"unregistered resource", FaultEvent{Resource: "ghost", Start: 0, Duration: 1}},
	}
	for _, tc := range cases {
		fresh := New()
		fresh.AddResource("r")
		if err := fresh.AddFault(tc.ev); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := s.AddFault(FaultEvent{Resource: "r", Start: 1, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFault(FaultEvent{Resource: "r", Start: 2.5, Duration: 1}); err == nil {
		t.Error("overlapping windows accepted")
	}
	if err := s.AddFault(FaultEvent{Resource: "r", Start: 3, Duration: 1, Factor: 2}); err != nil {
		t.Errorf("adjacent window rejected: %v", err)
	}
}

func TestAddTaskEagerValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Sim)
		want  string
	}{
		{
			"unregistered resource",
			func(s *Sim) { s.AddTask(TaskSpec{Name: "t", Resource: "nope", Duration: 1}) },
			"unregistered resource",
		},
		{
			"negative duration",
			func(s *Sim) { s.AddTask(TaskSpec{Name: "t", Resource: "r", Duration: -2}) },
			"negative duration",
		},
		{
			"self dependency",
			func(s *Sim) { s.AddTask(TaskSpec{Name: "t", Resource: "r", Duration: 1, Deps: []TaskID{0}}) },
			"dependencies must point backwards",
		},
		{
			"forward dependency",
			func(s *Sim) {
				s.AddTask(TaskSpec{Name: "a", Resource: "r", Duration: 1})
				s.AddTask(TaskSpec{Name: "b", Resource: "r", Duration: 1, Deps: []TaskID{5}})
			},
			"dependencies must point backwards",
		},
	}
	for _, tc := range cases {
		s := New()
		s.AddResource("r")
		tc.build(s)
		err := s.Err()
		if err == nil {
			t.Errorf("%s: Err() nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
		if _, rerr := s.Run(); rerr == nil {
			t.Errorf("%s: Run() succeeded on malformed graph", tc.name)
		}
	}

	// A valid graph keeps Err nil.
	s := New()
	s.AddResource("r")
	a := s.AddTask(TaskSpec{Name: "a", Resource: "r", Duration: 1})
	s.AddTask(TaskSpec{Name: "b", Resource: "r", Duration: 1, Deps: []TaskID{a}})
	if err := s.Err(); err != nil {
		t.Errorf("valid graph reports %v", err)
	}
}

func TestParseFaultEvents(t *testing.T) {
	good, err := ParseFaultEvents(" h2d@0.5+0.2, gpu@1.0+0.5x3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Resource: "h2d", Start: 0.5, Duration: 0.2},
		{Resource: "gpu", Start: 1.0, Duration: 0.5, Factor: 3},
	}
	if len(good) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(good), len(want))
	}
	for i := range want {
		if good[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, good[i], want[i])
		}
	}
	if empty, err := ParseFaultEvents("  "); err != nil || len(empty) != 0 {
		t.Errorf("blank spec: %v, %v", empty, err)
	}
	for _, bad := range []string{
		"h2d",            // no window
		"@0.5+0.2",       // no resource
		"h2d@0.5",        // no duration
		"h2d@x+0.2",      // bad start
		"h2d@0.5+y",      // bad duration
		"h2d@0.5+0.2xz",  // bad factor
		"h2d@0.5+0.2x.5", // factor below 1
		"h2d@-1+0.2",     // negative start
	} {
		if _, err := ParseFaultEvents(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestSimulateDecodeFaultRetention(t *testing.T) {
	mod, err := model.ByName("OPT-30B")
	if err != nil {
		t.Fatal(err)
	}
	work := workload.Job{PromptLen: 64, GenLen: 8, GPUBatch: 16, NumBatches: 4}
	strat := perfmodel.Strategy{WeightsGPUPct: 0.2, QuantKV: true, KVBits: 4, GroupSize: 64}
	est, err := perfmodel.New(hw.SingleGPUA100(), mod, work, strat, perfmodel.FlexGenProfile())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := SimulateDecode(est, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Same call with an explicit empty event list must be numerically
	// identical: the fault path only alters behavior inside windows.
	again, err := SimulateDecode(est, 3)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Throughput != again.Throughput || clean.StepTime != again.StepTime {
		t.Errorf("clean runs differ: %g vs %g tok/s", clean.Throughput, again.Throughput)
	}
	// An H2D outage covering part of the window must cost throughput: the
	// schedule is link-bound, so stalling the link stalls tokens.
	outage := FaultEvent{Resource: ResH2D, Start: 0, Duration: clean.StepTime * float64(mod.Layers)}
	faulted, err := SimulateDecode(est, 3, outage)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Throughput >= clean.Throughput {
		t.Errorf("outage did not reduce throughput: %g >= %g", faulted.Throughput, clean.Throughput)
	}
	retention := faulted.Throughput / clean.Throughput
	if retention <= 0 || retention >= 1 || math.IsNaN(retention) {
		t.Errorf("retention %g out of (0, 1)", retention)
	}
	// A malformed event surfaces as an error, not a corrupt schedule.
	if _, err := SimulateDecode(est, 3, FaultEvent{Resource: "ghost", Start: 0, Duration: 1}); err == nil {
		t.Error("unregistered fault resource accepted")
	}
}
