package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// WorkloadCell is one grid point: a workload generator replayed through the
// scheduler under one queueing policy and one load profile, with every
// perfmodel estimator scored as q-error (max(pred/act, act/pred)) against
// what the run actually measured.
type WorkloadCell struct {
	Workload string // generator kind (workload.Kinds)
	Policy   string // "fifo" or "fair"
	Profile  string // "calm" or "peak"

	Requests  int
	Completed int
	Shed      int // admission rejections (429/422/queue-full)

	// Scores maps estimator kind (perfmodel.Est*) to its accumulated
	// q-errors for this cell.
	Scores map[string]perfmodel.EstAccuracy
}

// WorkloadResult is the full workload × policy × profile estimator-accuracy
// grid.
type WorkloadResult struct {
	Model   model.Config
	Slots   int
	PerCell int
	Reduced bool
	Cells   []WorkloadCell
}

// workloadEstimators is the canonical estimator order for tables and CSV.
var workloadEstimators = []string{
	perfmodel.EstPeakArena, perfmodel.EstTPOT, perfmodel.EstDrain, perfmodel.EstPrefill,
}

// gridTenants is the standing multi-tenant mix the "fair" policy runs under:
// an interactive free tier, a weighted pro tier, and a batch tier.
func gridTenants(slots int) map[string]serve.TenantConfig {
	return map[string]serve.TenantConfig{
		"free":  {Slots: 1, Weight: 1},
		"pro":   {Slots: slots - 1, Weight: 3},
		"batch": {Slots: 1, Weight: 1},
	}
}

// WorkloadGrid runs the estimator-accuracy grid: every workload generator ×
// {fifo, fair} × {calm, peak}, perCell requests per cell, on a dedicated
// tiny-model engine per cell. Reduced (the CI -race configuration) trims to
// {diurnal, bursty, chat} × {fifo, fair} × calm.
func WorkloadGrid(perCell int, reduced bool) (*WorkloadResult, error) {
	cfg := model.Tiny()
	kinds := workload.Kinds()
	profiles := []string{"calm", "peak"}
	if reduced {
		kinds = []string{"diurnal", "bursty", "chat"}
		profiles = []string{"calm"}
	}
	const slots = 3
	out := &WorkloadResult{Model: cfg, Slots: slots, PerCell: perCell, Reduced: reduced}
	cellSeed := int64(9000)
	for _, kind := range kinds {
		for _, policy := range []string{"fifo", "fair"} {
			for _, profile := range profiles {
				cellSeed += 101
				cell, err := runWorkloadCell(cfg, kind, policy, profile, perCell, slots, cellSeed)
				if err != nil {
					return nil, fmt.Errorf("experiments: workload cell %s/%s/%s: %w", kind, policy, profile, err)
				}
				out.Cells = append(out.Cells, *cell)
			}
		}
	}
	return out, nil
}

// runWorkloadCell replays one generated trace through a fresh scheduler and
// scores the estimators. TPOT and prefill-cost pairs arrive inline via the
// scheduler's EstObserver; peak-arena is the admission model's high-water
// estimate against the arena's measured peak; drain is the published
// Retry-After predictor sampled during the post-arrival drain window against
// the wall-clock time the drain actually took.
func runWorkloadCell(cfg model.Config, kind, policy, profile string, perCell, slots int, seed int64) (*WorkloadCell, error) {
	// The calm profile leaves decode headroom between arrivals; peak
	// compresses the same trace into a third of the time, pushing the
	// scheduler against its admission gates.
	horizon := time.Duration(perCell) * 18 * time.Millisecond
	if profile == "peak" {
		horizon = time.Duration(perCell) * 6 * time.Millisecond
	}
	trace, err := workload.Generate(kind, workload.Spec{
		Seed: seed, N: perCell, Vocab: cfg.Vocab, Horizon: horizon,
	})
	if err != nil {
		return nil, err
	}
	if policy == "fair" {
		trace = workload.AssignTenants(trace, seed+1, "free", "pro", "batch")
	}

	eng, err := seededEngine(servingSeed, cfg, runtime.Policy{IntraOp: 2, GPUBatch: slots}, 1<<30, threadpool.MustNew(2))
	if err != nil {
		return nil, err
	}
	collector := perfmodel.NewEstCollector()
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = slots
	scfg.QueueDepth = perCell + 8
	scfg.EstObserver = collector
	scfg.LatencySampleCap = 4 * perCell // keep every cell sample for quantiles
	// Chunked prefill is the production configuration: prompts past the
	// chunk admit incrementally, so a long arrival never lands its whole
	// prefill inside one decode gap. The estimator scoring is unchanged —
	// TPOT and prefill q-errors are measured on the decode-step and
	// chunk-advance windows respectively, never mixed.
	scfg.ChunkTokens = 16
	if policy == "fair" {
		scfg.Tenants = gridTenants(slots)
	}
	if kind == "chat" {
		scfg.PrefixCacheBytes = 1 << 20
	}
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}

	var allSubmitted atomic.Bool
	done := make(chan struct{})

	// Drain sampler: once every arrival is in, each (t, predicted drain)
	// sample is scored against how long the system actually took to go idle
	// from t.
	type drainSample struct {
		at   time.Time
		pred time.Duration
	}
	var drainSamples []drainSample
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if !allSubmitted.Load() {
					continue
				}
				met := sched.Metrics()
				if met.PredictedDrain > 0 && met.QueueDepth+met.ActiveSlots > 0 {
					drainSamples = append(drainSamples, drainSample{at: time.Now(), pred: met.PredictedDrain})
				}
			}
		}
	}()

	submit := submitTo(sched)
	outs := workload.Replay(context.Background(), trace, func(i int, r workload.Request) (workload.Stream, error) {
		st, err := submit(i, r)
		if i == len(trace)-1 {
			allSubmitted.Store(true)
		}
		return st, err
	})
	drainedAt := time.Now()
	close(done)
	samplerWG.Wait()

	met := sched.Metrics()
	sched.Close()

	for _, s := range drainSamples {
		// Samples inside the last tick race the idle transition (both sides
		// near zero, ratio pure noise) — score only measurable drains.
		actual := drainedAt.Sub(s.at)
		if actual >= 2*time.Millisecond {
			collector.ObserveEstimate(perfmodel.EstDrain, s.pred.Seconds(), actual.Seconds())
		}
	}
	if met.PredictedPeakBytes > 0 && met.ArenaPeak > 0 {
		collector.ObserveEstimate(perfmodel.EstPeakArena,
			float64(met.PredictedPeakBytes), float64(met.ArenaPeak))
	}

	cell := &WorkloadCell{
		Workload: kind, Policy: policy, Profile: profile,
		Requests: len(trace), Scores: map[string]perfmodel.EstAccuracy{},
	}
	for _, o := range outs {
		if outcomeErr(o) != nil {
			cell.Shed++
		} else {
			cell.Completed++
		}
	}
	for _, est := range workloadEstimators {
		cell.Scores[est] = collector.Accuracy(est)
	}
	return cell, nil
}

// WorstMedian returns the worst per-cell median for one estimator across the
// whole grid (0 when the estimator never scored).
func (r *WorkloadResult) WorstMedian(est string) float64 {
	worst := 0.0
	for _, c := range r.Cells {
		if acc, ok := c.Scores[est]; ok && acc.Count() > 0 && acc.Median() > worst {
			worst = acc.Median()
		}
	}
	return worst
}

// cellLabel is the compact workload/policy/profile cell name.
func (c WorkloadCell) cellLabel() string {
	return c.Workload + "/" + c.Policy + "/" + c.Profile
}

// qErrorBars renders a terminal bar chart of per-cell median q-error for one
// estimator: 1.0 is a perfect prediction, so bars grow with (median − 1).
func qErrorBars(cells []WorkloadCell, est string) string {
	const width = 40
	maxOver := 0.0
	for _, c := range cells {
		if acc := c.Scores[est]; acc.Count() > 0 && acc.Median()-1 > maxOver {
			maxOver = acc.Median() - 1
		}
	}
	if maxOver <= 0 {
		maxOver = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "median q-error by cell (%s; bar is excess over the perfect 1.0)\n", est)
	for _, c := range cells {
		acc := c.Scores[est]
		if acc.Count() == 0 {
			fmt.Fprintf(&b, "  %-24s | (no samples)\n", c.cellLabel())
			continue
		}
		n := int(float64(width) * (acc.Median() - 1) / maxOver)
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(&b, "  %-24s |%s %.2f\n", c.cellLabel(), strings.Repeat("█", n), acc.Median())
	}
	return b.String()
}

// Report renders the grid with per-estimator medians/p95s per cell plus the
// TPOT and peak-arena charts. It gates the grid's committed bar: on every
// calm diurnal cell the admission model's peak-arena median q-error and the
// step-cost TPOT median q-error must be scored and stay ≤ 2.0.
func (r *WorkloadResult) Report() *Report {
	mode := "full"
	if r.Reduced {
		mode = "reduced"
	}
	t := stats.NewTable("workload", "policy", "profile", "requests", "done", "shed", "estimator", "n", "q50", "q95", "qmax")
	rep := &Report{
		Title: fmt.Sprintf("Workload grid: estimator q-error over workload × policy × profile (%s, %s grid, %d slots, %d req/cell)",
			r.Model.Name, mode, r.Slots, r.PerCell),
		Table: t,
		Notes: []string{
			qErrorBars(r.Cells, perfmodel.EstTPOT),
			qErrorBars(r.Cells, perfmodel.EstPeakArena),
			"q-error = max(predicted/actual, actual/predicted): 1.0 is exact, 2.0 is off by 2x either way.",
			"tpot/prefill score the live least-squares fits step by step; peak_arena scores the admission",
			"estimate against the arena high-water mark; drain scores Retry-After against the measured drain.",
		},
	}
	for _, c := range r.Cells {
		for _, est := range workloadEstimators {
			acc := c.Scores[est]
			cells := fmt.Sprintf("%s\t%s\t%s\t%d\t%d\t%d\t%s\t%d", c.Workload, c.Policy, c.Profile, c.Requests, c.Completed, c.Shed, est, acc.Count())
			if acc.Count() == 0 {
				t.AddRowf("%s\t-\t-\t-", cells)
			} else {
				t.AddRowf("%s\t%.2f\t%.2f\t%.2f", cells, acc.Median(), acc.P95(), acc.Max())
			}
			if c.Workload == "diurnal" && c.Profile == "calm" && (est == perfmodel.EstPeakArena || est == perfmodel.EstTPOT) {
				g := atMost(c.cellLabel()+" "+est+" median q-error", WallClock, acc.Median(), 2.0)
				g.Pass = g.Pass && acc.Count() > 0
				rep.Gates = append(rep.Gates, g)
			}
		}
	}
	return rep
}
