package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// DriftRunRow is one run of the online-adaptation experiment.
type DriftRunRow struct {
	Run          string
	StartIntraOp int
	FinalIntraOp int
	// BaselineTPOT is the pre-drift stable anchor; DriftedTPOT the windowed
	// median right after detection; FinalTPOT the settled post-run median.
	// All seconds per token; zero when the phase does not apply to the run.
	BaselineTPOT float64
	DriftedTPOT  float64
	FinalTPOT    float64
	Swaps        int64
	Commits      int64
	Rollbacks    int64
	Served       int64
}

// DriftResult is the online self-tuning experiment: the same live scheduler
// and injected machine slowdown, three ways.
//
//   - adaptive: the adapt controller detects the drift, re-searches, swaps at
//     a step boundary, and the canary commits. Its settled TPOT is the
//     recovery headline.
//   - fresh-fit: the policy the adaptive run converged to, installed from the
//     start under the same slowdown — the oracle the adaptive run is scored
//     against. Recovery gate: adaptive settled TPOT <= 1.25x fresh-fit.
//   - poisoned: the searcher is poisoned (confidently proposes a policy whose
//     predicted gain never materializes — the world degrades further during
//     the canary window), so the canary must measure the regression and roll
//     the swap back, restoring the pre-swap policy.
type DriftResult struct {
	Model         model.Config
	SlowdownX     float64
	Rows          []DriftRunRow
	RecoveryRatio float64 // adaptive FinalTPOT / fresh-fit FinalTPOT
	RecoveryGate  float64 // the 1.25 acceptance bound
	// PoisonRestored records that the poisoned run's rollback restored the
	// exact pre-swap execution policy.
	PoisonRestored bool
}

// fixedSearcher always proposes the given width with a confident gain — the
// experiment's stand-in for a full autotune pass (the policy it would find on
// this 2-worker toy plant is known).
type fixedSearcher struct {
	intra int
	gain  float64
}

func (s fixedSearcher) Search(factor float64, cur runtime.ExecPolicy) (adapt.Candidate, error) {
	next := cur
	next.IntraOp = s.intra
	return adapt.Candidate{Policy: next, PredictedGain: s.gain, Profile: "drift-exp"}, nil
}

// driftStack is one live serving stack wired for adaptation experiments,
// with its closed-loop traffic replaying in the background until closeStack.
type driftStack struct {
	sched  *serve.Scheduler
	col    *perfmodel.EstCollector
	inj    *faults.Injector
	cancel context.CancelFunc
	done   chan struct{}
}

// driftRequests bounds a stack's trace. The four users think 8 ms on
// average, so they ask at most ~500 req/s; a run serves under a hundred
// requests in about a second, and the trace lasts over 30 s.
const driftRequests = 1 << 14

// driftTrace is the traffic of users closed-loop clients: client w, drawing
// from seed*31+w, asks for a 2-5-token prompt and a 4-11-token budget, and
// after each answer thinks for an Exp(8 ms) time before asking again.
func driftTrace(seed int64, users, vocab int) workload.Trace {
	rngs := make([]*rand.Rand, users)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*31 + int64(w)))
	}
	trace := make(workload.Trace, driftRequests)
	think := make([]time.Duration, len(trace))
	for i := range trace {
		rng := rngs[i%users]
		prompt := randTokens(rng, 2+rng.Intn(4), vocab)
		trace[i] = workload.Request{Session: -1, Prompt: prompt, MaxNewTokens: 4 + rng.Intn(8), Kind: "drift"}
		if i+users < len(think) {
			think[i+users] = time.Duration(rng.ExpFloat64() * float64(8*time.Millisecond))
		}
	}
	return workload.ClosedLoop(trace, users, think)
}

// newDriftStack builds a tiny engine (2-worker pool) behind a scheduler with
// admission control and the TPOT estimator collector attached, then replays
// the closed-loop traffic of `users` clients against it in the background.
func newDriftStack(seed int64, startIntra, users int) (*driftStack, error) {
	cfg := model.Tiny()
	eng, err := seededEngine(seed, cfg, runtime.Policy{IntraOp: startIntra, Prefetch: true}, 1<<30, threadpool.MustNew(2))
	if err != nil {
		return nil, err
	}
	inj := faults.MustNew(seed, nil)
	eng.SetFaultInjector(inj)

	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = 3
	scfg.QueueDepth = 64
	scfg.MaxNewTokens = 12
	scfg.DefaultNewTokens = 12
	col := perfmodel.NewEstCollector()
	col.SetWindowSize(16)
	scfg.EstObserver = col
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	st := &driftStack{sched: sched, col: col, inj: inj, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		workload.Replay(ctx, driftTrace(seed, users, cfg.Vocab), submitTo(sched))
	}()
	return st, nil
}

func (st *driftStack) closeStack() {
	st.cancel()
	<-st.done
	st.sched.Close()
}

// settleTPOT clears the TPOT window and returns the median once it refills —
// a regime-pure measurement of the stack's current operating point.
func (st *driftStack) settleTPOT(minSamples int, deadline time.Duration) (float64, error) {
	st.col.ResetWindow(perfmodel.EstTPOT)
	var ws perfmodel.EstWindowStats
	err := driftWait(fmt.Sprintf("TPOT window fill to %d samples", minSamples), deadline, func() bool {
		ws = st.col.WindowStats(perfmodel.EstTPOT)
		return ws.Count >= minSamples
	})
	return ws.ActualMedian, err
}

// driftWait polls cond until it holds or the deadline passes.
func driftWait(what string, deadline time.Duration, cond func() bool) error {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return fmt.Errorf("experiments: drift: %s never happened", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// driftAdaptConfig is the controller tuning shared by the experiment's runs:
// fast ticks so the whole lifecycle fits in seconds of wall clock.
func driftAdaptConfig() adapt.Config {
	return adapt.Config{
		Interval:        40 * time.Millisecond,
		MinSamples:      4,
		QErrThreshold:   1.4,
		RatioThreshold:  1.25,
		DriftStreak:     2,
		ClearStreak:     4,
		MinGain:         1.05,
		CanaryTicks:     3,
		CanaryRegress:   1.2,
		Cooldown:        200 * time.Millisecond,
		MaxSwapsPerHour: 1000,
		ConfirmTimeout:  3 * time.Second,
	}
}

// DriftAdapt runs the three-way online-adaptation experiment under a
// sustained `slowdown`x machine drift; its report gates the outcomes.
func DriftAdapt(slowdown float64) (*DriftResult, error) {
	if slowdown <= 1 {
		slowdown = 2
	}
	const seed = 20250808
	out := &DriftResult{Model: model.Tiny(), SlowdownX: slowdown, RecoveryGate: 1.25}

	// Run 1: adaptive. Start at width 1; the searcher proposes width 2.
	adaptive, committed, err := driftAdaptiveRun(seed, slowdown)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, adaptive)

	// Run 2: fresh-fit oracle. The committed policy from the start, same
	// slowdown from the first request.
	fresh, err := driftFreshRun(seed, slowdown, committed)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, fresh)
	if fresh.FinalTPOT <= 0 {
		return nil, fmt.Errorf("experiments: drift: fresh-fit run measured no TPOT")
	}
	out.RecoveryRatio = adaptive.FinalTPOT / fresh.FinalTPOT

	// Run 3: poisoned searcher -> canary regression -> rollback.
	poisoned, restored, err := driftPoisonedRun(seed, slowdown)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, poisoned)
	out.PoisonRestored = restored
	return out, nil
}

// driftAdaptiveRun drives drift -> detect -> swap -> canary -> commit and
// returns the settled row plus the committed policy.
func driftAdaptiveRun(seed int64, slowdown float64) (DriftRunRow, runtime.ExecPolicy, error) {
	row := DriftRunRow{Run: "adaptive", StartIntraOp: 1}
	st, err := newDriftStack(seed, 1, 4)
	if err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	defer st.closeStack()

	ctl, err := adapt.New(st.sched, st.col, fixedSearcher{intra: 2, gain: 1.4}, driftAdaptConfig())
	if err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	st.sched.SetAdaptStatsFunc(ctl.StatsMap)
	ctl.Start()
	defer ctl.Stop()

	if err := driftWait("baseline anchor", 20*time.Second, func() bool { return ctl.Status().BaselineTPOT > 0 }); err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	row.BaselineTPOT = ctl.Status().BaselineTPOT

	if err := st.inj.SetDrift(faults.SustainedSlowdown(0, slowdown)); err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	if err := driftWait("drift detection", 30*time.Second, func() bool { return ctl.Status().State != adapt.Stable }); err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	row.DriftedTPOT = ctl.Status().WindowTPOT
	if err := driftWait("canary commit", 30*time.Second, func() bool { return ctl.Status().Commits >= 1 }); err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	final, err := st.settleTPOT(12, 15*time.Second)
	if err != nil {
		return row, runtime.ExecPolicy{}, err
	}
	row.FinalTPOT = final

	status := ctl.Status()
	committed := st.sched.ExecPolicy()
	row.FinalIntraOp = committed.IntraOp
	row.Swaps = status.SwapsConfirmed
	row.Commits = status.Commits
	row.Rollbacks = status.Rollbacks
	row.Served = st.sched.Metrics().Serve.Completed
	return row, committed, nil
}

// driftFreshRun measures the oracle: the committed policy installed from the
// start, the same slowdown active from the first request.
func driftFreshRun(seed int64, slowdown float64, policy runtime.ExecPolicy) (DriftRunRow, error) {
	row := DriftRunRow{Run: "fresh-fit", StartIntraOp: policy.IntraOp, FinalIntraOp: policy.IntraOp}
	st, err := newDriftStack(seed, policy.IntraOp, 4)
	if err != nil {
		return row, err
	}
	defer st.closeStack()
	if err := st.inj.SetDrift(faults.SustainedSlowdown(0, slowdown)); err != nil {
		return row, err
	}
	// Warm up past prefill-heavy startup before taking the reference window.
	time.Sleep(500 * time.Millisecond)
	final, err := st.settleTPOT(12, 15*time.Second)
	if err != nil {
		return row, err
	}
	row.FinalTPOT = final
	row.Served = st.sched.Metrics().Serve.Completed
	return row, nil
}

// driftPoisonedRun drives a poisoned search to a canary rollback: the
// searcher's claimed gain never materializes because the machine degrades
// further the moment the canary opens, so the canary median regresses past
// the guard and the controller restores the pre-swap policy.
func driftPoisonedRun(seed int64, slowdown float64) (DriftRunRow, bool, error) {
	row := DriftRunRow{Run: "poisoned", StartIntraOp: 2}
	st, err := newDriftStack(seed, 2, 4)
	if err != nil {
		return row, false, err
	}
	defer st.closeStack()

	cfg := driftAdaptConfig()
	// One attempt per observation window: a long cooldown keeps the
	// controller from re-searching between our rollback check and teardown.
	cfg.Cooldown = time.Minute
	ctl, err := adapt.New(st.sched, st.col, fixedSearcher{intra: 1, gain: 2.0}, cfg)
	if err != nil {
		return row, false, err
	}
	ctl.Start()
	defer ctl.Stop()

	if err := driftWait("baseline anchor", 20*time.Second, func() bool { return ctl.Status().BaselineTPOT > 0 }); err != nil {
		return row, false, err
	}
	row.BaselineTPOT = ctl.Status().BaselineTPOT
	if err := st.inj.SetDrift(faults.SustainedSlowdown(0, slowdown)); err != nil {
		return row, false, err
	}
	if err := driftWait("poisoned swap", 30*time.Second, func() bool { return ctl.Status().State == adapt.Canary }); err != nil {
		return row, false, err
	}
	row.DriftedTPOT = ctl.Status().WindowTPOT
	// The co-tenant lands mid-canary: the window the canary judges is
	// strictly worse than the pre-swap window, whatever the poisoned
	// searcher promised.
	if err := st.inj.SetDrift(faults.SustainedSlowdown(0, slowdown*4)); err != nil {
		return row, false, err
	}
	if err := driftWait("canary rollback", 30*time.Second, func() bool { return ctl.Status().Rollbacks >= 1 }); err != nil {
		return row, false, err
	}

	status := ctl.Status()
	restored := st.sched.ExecPolicy().IntraOp == row.StartIntraOp
	row.FinalIntraOp = st.sched.ExecPolicy().IntraOp
	row.FinalTPOT = status.WindowTPOT
	row.Swaps = status.SwapsConfirmed
	row.Commits = status.Commits
	row.Rollbacks = status.Rollbacks
	row.Served = st.sched.Metrics().Serve.Completed
	return row, restored, nil
}

// Report renders the three runs. It gates that the adaptive run served
// requests and settled within RecoveryGate of the fresh-fit oracle, and that
// the poisoned run committed nothing and restored the pre-swap policy.
func (r *DriftResult) Report() *Report {
	t := stats.NewTable("run", "width", "baseline_tpot", "drifted_tpot", "final_tpot", "swaps", "commits", "rollbacks", "served")
	for _, row := range r.Rows {
		t.AddRowf("%s\t%d->%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d",
			row.Run, row.StartIntraOp, row.FinalIntraOp,
			driftMS(row.BaselineTPOT), driftMS(row.DriftedTPOT), driftMS(row.FinalTPOT),
			row.Swaps, row.Commits, row.Rollbacks, row.Served)
	}
	adaptive, poisoned := r.Rows[0], r.Rows[2]
	return &Report{
		Title: fmt.Sprintf("Online adaptation under a sustained %.1fx machine slowdown (%s, live scheduler)",
			r.SlowdownX, r.Model.Name),
		Table: t,
		Gates: []Gate{
			atLeast("adaptive run requests served", WallClock, float64(adaptive.Served), 1),
			atMost("adaptive / fresh-fit settled TPOT", WallClock, r.RecoveryRatio, r.RecoveryGate),
			atMost("poisoned run commits", WallClock, float64(poisoned.Commits), 0),
			holds("poisoned run restored the pre-swap policy", WallClock, r.PoisonRestored),
		},
	}
}

func driftMS(s float64) string {
	if s <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fms", s*1e3)
}
