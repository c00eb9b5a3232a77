package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
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

// servingArrival is one offline-generated request: an arrival offset from
// t=0, a prompt, and a generation budget.
type servingArrival struct {
	at     time.Duration
	prompt []int
	budget int
}

func servingTrace(seed int64, n, vocab int, meanGap time.Duration) []servingArrival {
	rng := rand.New(rand.NewSource(seed))
	var out []servingArrival
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(meanGap))
		prompt := make([]int, 2+rng.Intn(6))
		for j := range prompt {
			prompt[j] = rng.Intn(vocab)
		}
		// Heavily ragged budgets: most requests are short, a few are long —
		// the distribution that makes wave draining expensive.
		budget := 2 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			budget = 24 + rng.Intn(24)
		}
		out = append(out, servingArrival{at: at, prompt: prompt, budget: budget})
	}
	return out
}

// ServingThroughput runs both disciplines on the Small model with the given
// slot count over n Poisson arrivals. Small (not Tiny) is deliberate: its
// per-step weight streaming is the fixed cost continuous batching amortizes
// across occupied slots, which is the regime the offloading serving story
// lives in.
func ServingThroughput(slots, n int) (*ServingResult, error) {
	cfg := model.Small()
	trace := servingTrace(20240806, n, cfg.Vocab, 15*time.Millisecond)
	out := &ServingResult{Model: cfg, Slots: slots, Requests: n}

	static, err := runServingStatic(cfg, slots, trace)
	if err != nil {
		return nil, fmt.Errorf("experiments: serving static: %w", err)
	}
	cont, err := runServingContinuous(cfg, slots, trace)
	if err != nil {
		return nil, fmt.Errorf("experiments: serving continuous: %w", err)
	}
	out.Rows = []ServingRow{*static, *cont}
	return out, nil
}

func servingEngine(cfg model.Config, slots int) (*runtime.Engine, error) {
	const seed = 424242
	m, err := model.NewModel(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	pol := runtime.Policy{IntraOp: 4, Prefetch: true, GPUBatch: slots}
	return runtime.NewEngine(m, pol, 1<<31, threadpool.MustNew(4))
}

// runServingStatic is the baseline: wave-at-a-time admission over the same
// Session primitive the continuous scheduler uses, so the only difference
// measured is the admission discipline.
func runServingStatic(cfg model.Config, slots int, trace []servingArrival) (*ServingRow, error) {
	eng, err := servingEngine(cfg, slots)
	if err != nil {
		return nil, err
	}
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
		if wait := trace[next].at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		type member struct{ slot, budget, produced int }
		var wave []member
		for next < len(trace) && len(wave) < slots && trace[next].at <= time.Since(start) {
			a := trace[next]
			slot := len(wave)
			if _, err := sess.Admit(ctx, slot, a.prompt); err != nil {
				return nil, err
			}
			tokens++
			ttfts = append(ttfts, time.Since(start)-a.at)
			if a.budget <= 1 { // prefill token already satisfied the budget
				sess.Retire(slot)
			} else {
				wave = append(wave, member{slot: slot, budget: a.budget, produced: 1})
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
func runServingContinuous(cfg model.Config, slots int, trace []servingArrival) (*ServingRow, error) {
	eng, err := servingEngine(cfg, slots)
	if err != nil {
		return nil, err
	}
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = slots
	scfg.QueueDepth = len(trace)
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		mu     sync.Mutex
		ttfts  []time.Duration
		tokens int64
		firstE error
	)
	var wg sync.WaitGroup
	for _, a := range trace {
		wg.Add(1)
		go func(a servingArrival) {
			defer wg.Done()
			if wait := a.at - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			st, err := sched.Submit(context.Background(), serve.Request{Prompt: a.prompt, MaxNewTokens: a.budget})
			if err != nil {
				mu.Lock()
				if firstE == nil {
					firstE = err
				}
				mu.Unlock()
				return
			}
			first := true
			var n int64
			var ttft time.Duration
			for range st.Tokens() {
				if first {
					ttft = time.Since(start) - a.at
					first = false
				}
				n++
			}
			mu.Lock()
			tokens += n
			ttfts = append(ttfts, ttft)
			mu.Unlock()
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)
	m := sched.Metrics()
	sched.Close()
	if firstE != nil {
		return nil, firstE
	}
	row := &ServingRow{
		Discipline:   "continuous",
		Requests:     len(trace),
		Tokens:       tokens,
		Wall:         wall,
		AvgOccupancy: m.Serve.AvgOccupancy,
	}
	row.TokPerSec = float64(tokens) / wall.Seconds()
	row.TTFTMean, _, row.TTFTP99 = stats.Quantiles(ttfts)
	return row, nil
}

// Format renders the discipline comparison.
func (r *ServingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving throughput: static-wave vs continuous batching (%s, %d slots, %d Poisson arrivals)\n",
		r.Model.Name, r.Slots, r.Requests)
	t := stats.NewTable("discipline", "tok/s", "TTFT mean", "TTFT p99", "occupancy", "wall")
	for _, row := range r.Rows {
		t.AddRowf("%s\t%.1f\t%v\t%v\t%.2f\t%v",
			row.Discipline, row.TokPerSec,
			row.TTFTMean.Round(time.Microsecond), row.TTFTP99.Round(time.Microsecond),
			row.AvgOccupancy, row.Wall.Round(time.Millisecond))
	}
	b.WriteString(t.String())
	b.WriteString("continuous batching refills slots at decode-step boundaries, roughly doubling occupancy\n")
	b.WriteString("and cutting mean TTFT vs draining each wave to its slowest member; tok/s is near parity\n")
	b.WriteString("here because this functional engine's step cost is compute-bound (scales with occupancy) —\n")
	b.WriteString("the throughput gap widens with the fixed per-step cost (weight streaming) a real GPU has\n")
	return b.String()
}

// CSV emits the comparison for plotting.
func (r *ServingResult) CSV() string {
	var b strings.Builder
	b.WriteString("discipline,requests,tokens,tok_s,ttft_mean_us,ttft_p99_us,avg_occupancy,wall_ms\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.1f,%.1f,%.3f,%.2f\n",
			row.Discipline, row.Requests, row.Tokens, row.TokPerSec,
			float64(row.TTFTMean)/float64(time.Microsecond), float64(row.TTFTP99)/float64(time.Microsecond),
			row.AvgOccupancy, float64(row.Wall)/float64(time.Millisecond))
	}
	return b.String()
}
