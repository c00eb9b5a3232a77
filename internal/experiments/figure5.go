package experiments

import (
	"fmt"
	"math"

	"repro/internal/parallelism"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure5Result reproduces Figure 5: inference performance under varying
// intra-op parallelism (inter-op at the PyTorch default) and varying
// inter-op parallelism (intra-op at the default), for OPT-30B with s=64,
// n=8 on the dual-Xeon 6330 host.
type Figure5Result struct {
	IntraOp []parallelism.SweepPoint
	InterOp []parallelism.SweepPoint
}

// figure5Setup builds the §4.1 controller and operator graph.
func figure5Setup() (*parallelism.Controller, *parallelism.OpGraph, []parallelism.TransferTask, error) {
	mod, _ := motivationWorkload()
	work := workload.ParallelismStudy()
	ctrl, err := parallelism.NewController(parallelism.Xeon6330(), a100().Link.BandwidthPerDir*0.5)
	if err != nil {
		return nil, nil, nil, err
	}
	seq := work.PromptLen + work.GenLen/2
	og, err := parallelism.BuildAttentionGraph(mod, work, seq, parallelism.DefaultHeadGroups)
	if err != nil {
		return nil, nil, nil, err
	}
	transfers := figure5Transfers(work)
	return ctrl, og, transfers, nil
}

// figure5Transfers approximates the five load/store tasks' per-layer-step
// volumes for the study configuration (attention offloaded, wg=55%).
func figure5Transfers(work workload.Job) []parallelism.TransferTask {
	mod, _ := motivationWorkload()
	actBytes := float64(mod.ActivationBytes(work))
	return []parallelism.TransferTask{
		{Name: "load_weight", Bytes: float64(mod.LayerWeightBytes()) * 0.45},
		{Name: "load_cache", Bytes: 0}, // attention offloaded
		{Name: "store_cache", Bytes: 0},
		{Name: "load_activation", Bytes: actBytes},
		{Name: "store_activation", Bytes: actBytes},
	}
}

// Figure5 runs both sweeps.
func Figure5() (*Figure5Result, error) {
	ctrl, og, transfers, err := figure5Setup()
	if err != nil {
		return nil, err
	}
	intra, err := ctrl.SweepIntraOp(og, transfers, []int{1, 2, 4, 8, 16, 32, 56})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 5 intra sweep: %w", err)
	}
	inter, err := ctrl.SweepInterOp(og, transfers, []int{1, 2, 4, 8, 12, 16, 24, 32, 64, 112})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 5 inter sweep: %w", err)
	}
	return &Figure5Result{IntraOp: intra, InterOp: inter}, nil
}

// BestInterOp returns the inter-op parallelism with the highest throughput.
func (r *Figure5Result) BestInterOp() int {
	best, bestT := 0, 0.0
	for _, p := range r.InterOp {
		if p.Throughput > bestT {
			best, bestT = p.Parallelism, p.Throughput
		}
	}
	return best
}

// Report renders both series, each normalized to its best point.
func (r *Figure5Result) Report() *Report {
	t := stats.NewTable("series", "parallelism", "relative tput", "step ms")
	for _, s := range []struct {
		name string
		pts  []parallelism.SweepPoint
	}{{"intra-op threads", r.IntraOp}, {"inter-op parallelism", r.InterOp}} {
		m := 0.0
		for _, p := range s.pts {
			m = math.Max(m, p.Throughput)
		}
		for _, p := range s.pts {
			t.AddRowf("%s\t%d\t%.2f\t%.2f", s.name, p.Parallelism, p.Throughput/m, p.StepTime*1e3)
		}
	}
	rep := &Report{Title: "Figure 5: performance vs thread-level parallelism (OPT-30B, s=64, n=8)", Table: t}
	rep.note("best inter-op parallelism: %d (paper: 12)", r.BestInterOp())
	return rep
}
