package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// PrefixRow is one overlap level of the shared-prefix reuse experiment: the
// same trace served twice, with the prefix cache off and on.
type PrefixRow struct {
	// Overlap is the fraction of each prompt shared with every other request
	// in the row (the system-prompt scenario).
	Overlap  float64
	Requests int
	// TTFTOff/TTFTOn are median submit-to-first-token latencies over the
	// per-request minima across prefixReps repetitions, excluding the first
	// (necessarily cold) request of each run.
	TTFTOff time.Duration
	TTFTOn  time.Duration
	// Speedup is TTFTOff / TTFTOn.
	Speedup float64
	// HitRate and ReusedTokens come from the cache-on run's counters.
	HitRate      float64
	ReusedTokens int64
	// Attempts is how many times the level was measured.
	Attempts int
}

// PrefixResult is the shared-prefix KV reuse experiment: Poisson arrivals of
// prompts sharing a common prefix (0%, 50%, 75% of the prompt), served with
// and without the prefix cache. It demonstrates the TTFT win the cache buys
// on system-prompt-style traffic while re-verifying that reuse keeps served
// tokens bit-identical to solo generation and that the admission-time peak
// estimate still upper-bounds the measured arena high-water mark.
type PrefixResult struct {
	Model      model.Config
	PromptLen  int
	CacheBytes int64
	Rows       []PrefixRow
	// ExactChecked is how many cache-on completions were re-verified
	// against a dedicated solo replay, ExactMismatches how many differed.
	ExactChecked, ExactMismatches int
	// MinEstimateRatio is the smallest admission-estimate / arena-peak
	// ratio over every cache-on run.
	MinEstimateRatio float64
}

// prefixPromptLen is long enough that per-token prefill compute dominates the
// fixed per-layer streaming cost, so suffix-only prefill shows up in TTFT
// with enough margin that machine noise cannot flip the 1.5x assertion.
const prefixPromptLen = 160

// prefixOverlaps are the shared-prefix fractions swept.
var prefixOverlaps = []float64{0, 0.5, 0.75}

// prefixSpeedupBar is the TTFT speedup the cache must buy at >= 50% overlap.
const prefixSpeedupBar = 1.5

// prefixTrace is one closed-loop user sending n prompts of promptLen tokens
// that share their first sharedLen tokens: each request waits for the
// previous to end, then thinks for a Poisson gap, so TTFT isolates prefill
// cost from queueing.
func prefixTrace(rng *rand.Rand, n, promptLen, sharedLen, vocab, budget int) workload.Trace {
	shared := randTokens(rng, sharedLen, vocab)
	trace := make(workload.Trace, n)
	think := make([]time.Duration, n)
	for i := range trace {
		p := append(slices.Clip(shared), randTokens(rng, promptLen-sharedLen, vocab)...)
		trace[i] = workload.Request{Session: -1, Prompt: p, MaxNewTokens: budget, Kind: "prefix"}
		think[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
	}
	return workload.ClosedLoop(trace, 1, think)
}

// prefixServeRun replays the trace and returns its outcomes and the final
// metrics.
func prefixServeRun(seed int64, cfg model.Config, trace workload.Trace, cacheBytes int64) ([]workload.Outcome, serve.Metrics, error) {
	eng, err := seededEngine(seed, cfg, runtime.Policy{IntraOp: 2, Prefetch: true}, 1<<30, threadpool.MustNew(2))
	if err != nil {
		return nil, serve.Metrics{}, err
	}
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.PrefixCacheBytes = cacheBytes
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, serve.Metrics{}, err
	}
	defer sched.Close()

	outs := workload.Replay(context.Background(), trace, submitTo(sched))
	if err := replayErr(outs); err != nil {
		return nil, serve.Metrics{}, fmt.Errorf("experiments: prefix: %w", err)
	}
	return outs, sched.Metrics(), nil
}

// minEnvelope folds one repetition's per-request submit-to-first-token
// latencies into the running elementwise minimum.
func minEnvelope(env []time.Duration, outs []workload.Outcome) []time.Duration {
	for i, o := range outs {
		if ttft := o.TokenTimes[0].Sub(o.Submitted); i == len(env) {
			env = append(env, ttft)
		} else if ttft < env[i] {
			env[i] = ttft
		}
	}
	return env
}

// medianSkipFirst takes the median after dropping the first sample — the
// cold request that can never hit the cache, excluded from both runs for
// symmetry. The median (not the mean) keeps a single GC or scheduler pause
// in an 11-sample run from flipping the speedup assertion.
func medianSkipFirst(ds []time.Duration) time.Duration {
	if len(ds) <= 1 {
		return 0
	}
	warm := append([]time.Duration(nil), ds[1:]...)
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	mid := len(warm) / 2
	if len(warm)%2 == 0 {
		return (warm[mid-1] + warm[mid]) / 2
	}
	return warm[mid]
}

// PrefixReuse runs the shared-prefix experiment with 12 requests per overlap
// level, 4 at Smoke. Each off/on pair is repeated reps times: the reported
// TTFT is the median over requests of each request's *minimum* across
// repetitions, so a load spike only corrupts a request's sample if it hits
// that request in every repetition, and the envelope tracks the machine's
// true prefill floor even when whole runs land on a busy interval. Because
// the speedup is a wall-clock ratio, a level at >= 50% overlap that misses
// the bar is re-measured up to attempts times: a load spike does not recur
// across attempts, a real regression (ratio near 1x) misses every one.
// Smoke measures once and does not re-measure.
func PrefixReuse(s Scale) (*PrefixResult, error) {
	n, reps, attempts := 12, 5, 3
	if s == Smoke {
		n, reps, attempts = 4, 1, 1
	}
	cfg := model.Tiny()
	const (
		seed       = 20250806
		budget     = 8
		cacheBytes = 16 << 20
	)
	out := &PrefixResult{Model: cfg, PromptLen: prefixPromptLen, CacheBytes: cacheBytes, MinEstimateRatio: math.Inf(1)}

	for _, overlap := range prefixOverlaps {
		rng := rand.New(rand.NewSource(seed + int64(overlap*100)))
		trace := prefixTrace(rng, n, prefixPromptLen, int(overlap*prefixPromptLen), cfg.Vocab, budget)

		var (
			row    PrefixRow
			onOuts []workload.Outcome
		)
		for attempt := 1; ; attempt++ {
			var (
				offEnv, onEnv []time.Duration
				met           serve.Metrics
			)
			for rep := 0; rep < reps; rep++ {
				offOuts, _, err := prefixServeRun(seed, cfg, trace, 0)
				if err != nil {
					return nil, err
				}
				repOuts, repMet, err := prefixServeRun(seed, cfg, trace, cacheBytes)
				if err != nil {
					return nil, err
				}
				out.MinEstimateRatio = math.Min(out.MinEstimateRatio, float64(repMet.PredictedPeakBytes)/float64(repMet.ArenaPeak))
				offEnv = minEnvelope(offEnv, offOuts)
				onEnv = minEnvelope(onEnv, repOuts)
				onOuts, met = repOuts, repMet
			}

			row = PrefixRow{
				Overlap:      overlap,
				Requests:     n,
				TTFTOff:      medianSkipFirst(offEnv),
				TTFTOn:       medianSkipFirst(onEnv),
				HitRate:      met.PrefixHitRate,
				ReusedTokens: met.Serve.PrefixReusedTokens,
				Attempts:     attempt,
			}
			if row.TTFTOn > 0 {
				row.Speedup = float64(row.TTFTOff) / float64(row.TTFTOn)
			}
			if overlap < 0.5 || row.Speedup >= prefixSpeedupBar || attempt == attempts {
				break
			}
		}
		out.Rows = append(out.Rows, row)

		// Sampled exactness: reuse must not change a single served token.
		if overlap >= 0.5 {
			for i := 0; i < n && out.ExactChecked < 4; i += n / 2 {
				ok, err := matchesSolo(seed, cfg, trace[i].Prompt, budget, nil, onOuts[i].Tokens)
				if err != nil {
					return nil, err
				}
				if !ok {
					out.ExactMismatches++
				}
				out.ExactChecked++
			}
		}
	}
	return out, nil
}

// Report renders the overlap sweep. It gates the TTFT speedup at each
// overlap of 50% or more, token equality of the sampled cache-on completions
// with their solo replays, and the admission estimate against the arena peak.
func (r *PrefixResult) Report() *Report {
	t := stats.NewTable("overlap", "requests", "ttft off (ms)", "ttft on (ms)", "speedup", "hit rate", "reused tokens", "attempts")
	rep := &Report{
		Title: fmt.Sprintf("Shared-prefix KV reuse: %s, %d-token prompts, %d MiB cache, Poisson arrivals",
			r.Model.Name, r.PromptLen, r.CacheBytes>>20),
		Table: t,
	}
	for _, row := range r.Rows {
		t.AddRowf("%.0f%%\t%d\t%.2f\t%.2f\t%.2fx\t%.2f\t%d\t%d",
			row.Overlap*100, row.Requests, ms(row.TTFTOff), ms(row.TTFTOn),
			row.Speedup, row.HitRate, row.ReusedTokens, row.Attempts)
		if row.Overlap >= 0.5 {
			rep.Gates = append(rep.Gates, atLeast(fmt.Sprintf("TTFT speedup at %.0f%% overlap", row.Overlap*100), WallClock, row.Speedup, prefixSpeedupBar))
		}
	}
	rep.Gates = append(rep.Gates,
		atMost("sampled cache-on completions differing from their solo replay", Exact, float64(r.ExactMismatches), 0),
		atLeast("smallest admission estimate / arena peak", WallClock, r.MinEstimateRatio, 1))
	rep.note("%d cache-on completions re-verified against solo replays", r.ExactChecked)
	return rep
}
