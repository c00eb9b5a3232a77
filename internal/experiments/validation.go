package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ValidationPoint compares the analytical model against the simulator for
// one randomly drawn strategy.
type ValidationPoint struct {
	Strategy perfmodel.Strategy
	Model    float64 // β-composition step time (s/layer/token)
	Paper    float64 // literal Eq. 2 step time
	Sim      float64 // DES step time
}

// ValidationResult quantifies how the three timing layers relate over a
// random strategy sample — the calibration report a performance-model paper
// owes its readers. The discrete-event simulator derives the best schedule
// the hardware resources permit, so it validates the *feasibility* side of
// Eq. 2 (MAPEPaper small); the β-composition deliberately sits above both,
// encoding the measured software losses (stream serialization, per-layer
// synchronization) that neither idealization captures.
type ValidationResult struct {
	Points []ValidationPoint
	// MAPEPaper is the mean absolute percentage error of the literal Eq. 2
	// model against the DES (how well the simulator realizes the ideal).
	MAPEPaper float64
	// MAPEModel is the β model's deviation from the DES — the modeled
	// software-overhead margin.
	MAPEModel float64
	// PessimisticFraction is the share of samples where the β model is at
	// or above the DES (it must never promise more than the hardware-ideal
	// schedule delivers).
	PessimisticFraction float64
	// WorstModel is the largest |error| ratio of the β model.
	WorstModel float64
}

// ValidateModel samples n random feasible strategies on the motivation
// setup and reports model-vs-simulation error.
func ValidateModel(n int, seed int64) (*ValidationResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: need at least one sample")
	}
	rng := rand.New(rand.NewSource(seed))
	fg := perfmodel.FlexGenProfile()
	out := &ValidationResult{}
	var errModel, errPaper []float64

	for len(out.Points) < n {
		s := perfmodel.Strategy{
			WeightsGPUPct: rng.Float64(),
			CacheGPUPct:   rng.Float64() * 0.4,
			ActGPUPct:     rng.Float64(),
			GroupSize:     64,
		}
		switch rng.Intn(3) {
		case 0:
			s.AttnOnCPU = true
			s.CacheGPUPct = 0
		case 1:
			s.QuantKV = true
			s.KVBits = []int{2, 4, 8}[rng.Intn(3)]
		case 2:
			s.QuantKV = true
			s.KVBits = 4
			s.QuantWeights = true
			s.WeightBits = 4
		}
		e := estimate(s, fg)
		res, err := sim.SimulateDecode(e, 2)
		if err != nil {
			return nil, err
		}
		p := ValidationPoint{
			Strategy: s,
			Model:    e.TGen(),
			Paper:    e.TGenPaper(),
			Sim:      res.StepTime,
		}
		out.Points = append(out.Points, p)
		em := math.Abs(p.Model-p.Sim) / p.Sim
		errModel = append(errModel, em)
		errPaper = append(errPaper, math.Abs(p.Paper-p.Sim)/p.Sim)
		if em > out.WorstModel {
			out.WorstModel = em
		}
		if p.Model >= p.Sim*0.999 {
			out.PessimisticFraction += 1 / float64(n)
		}
	}
	out.MAPEModel = stats.Mean(errModel)
	out.MAPEPaper = stats.Mean(errPaper)
	return out, nil
}

// Report renders the five worst points and the error summary.
func (r *ValidationResult) Report() *Report {
	pts := append([]ValidationPoint(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool {
		return math.Abs(pts[i].Model-pts[i].Sim)/pts[i].Sim > math.Abs(pts[j].Model-pts[j].Sim)/pts[j].Sim
	})
	t := stats.NewTable("strategy", "model ms", "eq2 ms", "sim ms")
	for i, p := range pts {
		if i >= 5 {
			break
		}
		t.AddRowf("%v\t%.1f\t%.1f\t%.1f", p.Strategy, p.Model*1e3, p.Paper*1e3, p.Sim*1e3)
	}
	rep := &Report{Title: fmt.Sprintf("Model validation across %d random strategies:", len(r.Points)), Table: t}
	rep.note("Eq. 2 ideal vs DES:    %.1f%% MAPE (the simulator realizes the idealized schedule)", r.MAPEPaper*100)
	rep.note("β model vs DES:        %.1f%% above (worst %.0f%%) — the modeled software-overhead margin", r.MAPEModel*100, r.WorstModel*100)
	rep.note("β model pessimistic on %.0f%% of samples (it never promises more than the ideal)", r.PessimisticFraction*100)
	return rep
}
