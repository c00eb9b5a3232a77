package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AvailabilityCell is one (system, scenario) measurement.
type AvailabilityCell struct {
	System     string
	Scenario   string
	Throughput float64 // tok/s under the scenario
	Retention  float64 // fraction of the system's clean throughput
}

// AvailabilityResult compares how much throughput each offloading system
// retains when the platform degrades mid-decode: an interconnect slowdown
// (bandwidth contention from a co-tenant), a transient interconnect outage
// (link reset / ECC retrain), and GPU contention. The schedules come from the
// discrete-event simulator with fault windows; systems that move fewer bytes
// over the faulted resource — or overlap transfers more aggressively — retain
// more of their clean throughput.
type AvailabilityResult struct {
	Model     string
	Scenarios []string
	Cells     []AvailabilityCell
}

// availabilityScenario builds the fault windows for one scenario given the
// clean simulated decode window [0, span) seconds.
type availabilityScenario struct {
	name   string
	events func(span float64) []sim.FaultEvent
}

func availabilityScenarios() []availabilityScenario {
	return []availabilityScenario{
		{"clean", func(span float64) []sim.FaultEvent { return nil }},
		// The CPU-GPU link drops to a quarter of its bandwidth for the middle
		// half of the decode window.
		{"link-4x-slowdown", func(span float64) []sim.FaultEvent {
			return []sim.FaultEvent{{Resource: sim.ResH2D, Start: span * 0.25, Duration: span * 0.5, Factor: 4}}
		}},
		// The link goes away entirely for a quarter of the window.
		{"link-outage", func(span float64) []sim.FaultEvent {
			return []sim.FaultEvent{{Resource: sim.ResH2D, Start: span * 0.25, Duration: span * 0.25}}
		}},
		// A co-tenant halves the effective GPU rate for the whole window.
		{"gpu-2x-contention", func(span float64) []sim.FaultEvent {
			return []sim.FaultEvent{{Resource: sim.ResGPU, Start: 0, Duration: span, Factor: 2}}
		}},
	}
}

// Availability runs the fault-window study on OPT-30B (s=64, n=32, the Table 3
// axis) for FlexGen, ZeRO-Inference, and LM-Offload over three simulated
// decode steps, one at Smoke.
func Availability(s Scale) (*AvailabilityResult, error) {
	steps := 3
	if s == Smoke {
		steps = 1
	}
	mod, err := model.ByName("OPT-30B")
	if err != nil {
		return nil, err
	}
	plat := a100()

	fg, err := baselines.FlexGen(plat, mod, 64, 64, 32)
	if err != nil {
		return nil, fmt.Errorf("experiments: availability flexgen: %w", err)
	}
	zr, err := baselines.ZeRO(plat, mod, 64, 32)
	if err != nil {
		return nil, fmt.Errorf("experiments: availability zero: %w", err)
	}
	lm, err := baselines.LMOffload(plat, mod, 64, 64, 32)
	if err != nil {
		return nil, fmt.Errorf("experiments: availability lm-offload: %w", err)
	}

	out := &AvailabilityResult{Model: mod.Name}
	scenarios := availabilityScenarios()
	for _, sc := range scenarios {
		out.Scenarios = append(out.Scenarios, sc.name)
	}
	for _, sys := range []*baselines.System{fg, zr, lm} {
		clean, err := sim.SimulateDecode(sys.Estimator, steps)
		if err != nil {
			return nil, fmt.Errorf("experiments: availability %s clean: %w", sys.Name, err)
		}
		span := clean.StepTime * float64(mod.Layers) * float64(steps)
		for _, sc := range scenarios {
			res, err := sim.SimulateDecode(sys.Estimator, steps, sc.events(span)...)
			if err != nil {
				return nil, fmt.Errorf("experiments: availability %s %s: %w", sys.Name, sc.name, err)
			}
			out.Cells = append(out.Cells, AvailabilityCell{
				System:     sys.Name,
				Scenario:   sc.name,
				Throughput: res.Throughput,
				Retention:  res.Throughput / clean.Throughput,
			})
		}
	}
	return out, nil
}

// Report renders the retention table.
func (r *AvailabilityResult) Report() *Report {
	t := stats.NewTable("system", "scenario", "tok/s", "retention")
	for _, c := range r.Cells {
		t.AddRowf("%s\t%s\t%.1f\t%.0f%%", c.System, c.Scenario, c.Throughput, c.Retention*100)
	}
	return &Report{
		Title: fmt.Sprintf("Availability under platform faults (%s, s=64, n=32, simulated decode)", r.Model),
		Table: t,
		Notes: []string{"retention = throughput under the fault scenario / clean throughput"},
	}
}
