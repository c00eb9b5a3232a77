package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// ServingRow is one batching discipline under the shared arrival trace.
type ServingRow struct {
	Discipline string
	Requests   int
	Tokens     int64
	Wall       time.Duration
	TokPerSec  float64
	TTFTMean   time.Duration
	TTFTP99    time.Duration
	// AvgOccupancy is the mean number of busy slots per decode step; the gap
	// between disciplines is the slots static batching leaves idle while it
	// drains a wave.
	AvgOccupancy float64
}

// ServingResult compares static-wave batching against continuous batching on
// the real engine under one seeded Poisson arrival trace. Static batching
// admits up to `slots` queued requests, then runs the wave until every
// member finishes before admitting again — short requests hold their slot
// idle while the longest drains. Continuous batching (internal/serve) joins
// waiting requests into free slots at each decode-step boundary, so
// occupancy stays high and time-to-first-token stops queuing behind the
// slowest neighbour.
type ServingResult struct {
	Model    model.Config
	Slots    int
	Requests int
	Rows     []ServingRow
}

// servingTrace draws n Poisson arrivals with short prompts and heavily
// ragged budgets.
func servingTrace(seed int64, n, vocab int, meanGap time.Duration) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var out workload.Trace
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(meanGap))
		prompt := randTokens(rng, 2+rng.Intn(6), vocab)
		// Heavily ragged budgets: most requests are short, a few are long —
		// the distribution that makes wave draining expensive.
		budget := 2 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			budget = 24 + rng.Intn(24)
		}
		out = append(out, workload.Request{At: at, Session: -1, Prompt: prompt, MaxNewTokens: budget, Kind: "serving"})
	}
	return out
}

// ServingThroughput runs both disciplines on the Small model with 4 slots
// over 32 Poisson arrivals, 8 at Smoke. Small (not Tiny) is deliberate: its
// per-step weight streaming is the fixed cost continuous batching amortizes
// across occupied slots, which is the regime the offloading serving story
// lives in.
func ServingThroughput(s Scale) (*ServingResult, error) {
	slots, n := 4, 32
	if s == Smoke {
		n = 8
	}
	cfg := model.Small()
	trace := servingTrace(20240806, n, cfg.Vocab, 15*time.Millisecond)
	out := &ServingResult{Model: cfg, Slots: slots, Requests: n}
	pol := runtime.Policy{IntraOp: 4, Prefetch: true, GPUBatch: slots}
	for _, d := range []struct {
		name string
		run  func(*runtime.Engine, int, workload.Trace) (*ServingRow, error)
	}{{"static", runServingStatic}, {"continuous", runServingContinuous}} {
		eng, err := seededEngine(servingSeed, cfg, pol, 1<<31, threadpool.MustNew(4))
		if err != nil {
			return nil, err
		}
		row, err := d.run(eng, slots, trace)
		if err != nil {
			return nil, fmt.Errorf("experiments: serving %s: %w", d.name, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// runServingStatic is the baseline: wave-at-a-time admission over the same
// Session primitive the continuous scheduler uses, so the only difference
// measured is the admission discipline.
func runServingStatic(eng *runtime.Engine, slots int, trace workload.Trace) (*ServingRow, error) {
	sess, err := eng.NewSession(slots)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	start := time.Now()
	var ttfts []time.Duration
	var tokens int64
	var busySteps, occupancy int64
	next := 0
	for next < len(trace) {
		// Wait for at least one arrival, then admit everything that has
		// arrived, up to a full wave.
		if wait := trace[next].At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		type member struct{ slot, budget, produced int }
		var wave []member
		for next < len(trace) && len(wave) < slots && trace[next].At <= time.Since(start) {
			a := trace[next]
			slot := len(wave)
			if _, err := sess.Admit(ctx, slot, a.Prompt); err != nil {
				return nil, err
			}
			tokens++
			ttfts = append(ttfts, time.Since(start)-a.At)
			if a.MaxNewTokens <= 1 { // prefill token already satisfied the budget
				sess.Retire(slot)
			} else {
				wave = append(wave, member{slot: slot, budget: a.MaxNewTokens, produced: 1})
			}
			next++
		}
		// Run the wave to completion; nobody joins mid-flight.
		for sess.NumActive() > 0 {
			toks, err := sess.Step(ctx)
			if err != nil {
				return nil, err
			}
			busySteps++
			occupancy += int64(len(toks))
			for _, st := range toks {
				tokens++
				for i := range wave {
					if wave[i].slot == st.Slot {
						wave[i].produced++
						if wave[i].produced >= wave[i].budget {
							sess.Retire(st.Slot)
						}
					}
				}
			}
		}
	}
	row := &ServingRow{
		Discipline: "static-wave",
		Requests:   len(trace),
		Tokens:     tokens,
		Wall:       time.Since(start),
	}
	row.TokPerSec = float64(tokens) / row.Wall.Seconds()
	row.TTFTMean, _, row.TTFTP99 = stats.Quantiles(ttfts)
	if busySteps > 0 {
		row.AvgOccupancy = float64(occupancy) / float64(busySteps)
	}
	return row, nil
}

// runServingContinuous replays the same trace through the continuous-batching
// scheduler.
func runServingContinuous(eng *runtime.Engine, slots int, trace workload.Trace) (*ServingRow, error) {
	scfg := serve.DefaultConfig(eng.ModelConfig().Vocab)
	scfg.Slots = slots
	scfg.QueueDepth = len(trace)
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outs := workload.Replay(context.Background(), trace, submitTo(sched))
	wall := time.Since(start)
	m := sched.Metrics()
	sched.Close()
	if err := replayErr(outs); err != nil {
		return nil, err
	}
	row := &ServingRow{
		Discipline:   "continuous",
		Requests:     len(trace),
		Wall:         wall,
		AvgOccupancy: m.Serve.AvgOccupancy,
	}
	var ttfts []time.Duration
	for _, o := range outs {
		row.Tokens += int64(len(o.TokenTimes))
		var ttft time.Duration
		if len(o.TokenTimes) > 0 {
			ttft = o.TokenTimes[0].Sub(o.Scheduled)
		}
		ttfts = append(ttfts, ttft)
	}
	row.TokPerSec = float64(row.Tokens) / wall.Seconds()
	row.TTFTMean, _, row.TTFTP99 = stats.Quantiles(ttfts)
	return row, nil
}

// Report renders the discipline comparison.
func (r *ServingResult) Report() *Report {
	t := stats.NewTable("discipline", "tok/s", "TTFT mean", "TTFT p99", "occupancy", "wall")
	for _, row := range r.Rows {
		t.AddRowf("%s\t%.1f\t%v\t%v\t%.2f\t%v",
			row.Discipline, row.TokPerSec,
			row.TTFTMean.Round(time.Microsecond), row.TTFTP99.Round(time.Microsecond),
			row.AvgOccupancy, row.Wall.Round(time.Millisecond))
	}
	return &Report{
		Title: fmt.Sprintf("Serving throughput: static-wave vs continuous batching (%s, %d slots, %d Poisson arrivals)",
			r.Model.Name, r.Slots, r.Requests),
		Table: t,
		Notes: []string{
			"continuous batching refills slots at decode-step boundaries, roughly doubling occupancy",
			"and cutting mean TTFT vs draining each wave to its slowest member; tok/s is near parity",
			"here because this functional engine's step cost is compute-bound (scales with occupancy) —",
			"the throughput gap widens with the fixed per-step cost (weight streaming) a real GPU has",
		},
	}
}
