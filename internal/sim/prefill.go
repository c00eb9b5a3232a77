package sim

import (
	"fmt"

	"repro/internal/perfmodel"
)

// PrefillResult summarizes a simulated prefill pass.
type PrefillResult struct {
	// Total is the whole-prompt processing time across all layers.
	Total float64
	// PerLayer is the steady-state per-layer time.
	PerLayer float64
	// Utilization per resource.
	Utilization map[string]float64
}

// SimulatePrefill expands FlexGen's prefill (steps 1.1–1.3) into a task
// graph: per layer, the weight upload (prefetched), the GPU compute over the
// whole prompt, and the KV-cache offload to host memory, which overlaps the
// next layer's work on the downlink.
func SimulatePrefill(e *perfmodel.Estimator) (*PrefillResult, error) {
	layers := e.Mod.Layers
	if layers < 1 {
		return nil, fmt.Errorf("sim: model has no layers")
	}
	weightUp := e.WeightUpTime()
	compute, kvDown := e.PrefillParts()

	s := New()
	for _, r := range []string{ResGPU, ResH2D, ResD2H} {
		s.AddResource(r)
	}
	var prevCompute TaskID = -1
	for j := 0; j < layers; j++ {
		lw := s.AddTask(TaskSpec{
			Name: fmt.Sprintf("load_weight[%d]", j), Resource: ResH2D, Duration: weightUp,
		})
		deps := []TaskID{lw}
		if prevCompute >= 0 {
			deps = append(deps, prevCompute)
		}
		comp := s.AddTask(TaskSpec{
			Name: fmt.Sprintf("prefill_compute[%d]", j), Resource: ResGPU, Duration: compute,
			Deps: deps,
		})
		if kvDown > 0 {
			s.AddTask(TaskSpec{
				Name: fmt.Sprintf("store_cache[%d]", j), Resource: ResD2H, Duration: kvDown,
				Deps: []TaskID{comp},
			})
		}
		prevCompute = comp
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := &PrefillResult{
		Total:       res.Makespan,
		PerLayer:    res.Makespan / float64(layers),
		Utilization: map[string]float64{},
	}
	for _, r := range []string{ResGPU, ResH2D, ResD2H} {
		out.Utilization[r] = res.Utilization(r)
	}
	return out, nil
}
