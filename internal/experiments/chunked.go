package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// ChunkedArm is one arm of the chunked-prefill A/B: a summarize workload of
// short-prompt decode streams with one long-prompt arrival injected mid-run,
// served either monolithically (ChunkTokens 0) or chunked.
type ChunkedArm struct {
	ChunkTokens int // 0 = monolithic admission

	// Inter-token gap quantiles across the background decode streams — the
	// client-observed TPOT the chunk bound protects. Mono admission puts the
	// whole long prefill into one gap of every concurrent stream; chunked
	// admission bounds every gap by one chunk's compute.
	TPOTP50, TPOTP99, TPOTMax time.Duration

	LongTTFT time.Duration // long request: submit -> first token
	During   int           // background tokens delivered inside the long prefill window
	InFlight int           // background streams decoding when the long request was submitted
	Gaps     int           // background gap sample count

	// EstTPOT q-error of the live step-cost fit (predicted vs measured
	// decode-step duration). Chunk compute runs outside the timed decode
	// window, so these stay near 1 even while chunks advance; a regression
	// that leaks chunk work into the step measurement shows up here first.
	TPOTQErrP95, TPOTQErrMax float64
	TPOTQErrN                int
}

// ChunkedResult is the chunked-prefill TPOT-spike benchmark: the same
// summarize trace and long-prompt arrival replayed per arm, token-exact
// across arms, with the monolithic arm's p99 background gap compared against
// the chunked arm's.
type ChunkedResult struct {
	Model     model.Config
	PromptLen int // long-prompt length
	Streams   int // background summarize streams
	DecodeLen int // per-stream decode budget
	Arms      []ChunkedArm

	TokenExact bool    // every request's tokens identical across all arms
	P99Speedup float64 // mono TPOTP99 / first chunked arm's TPOTP99
}

// chunkedLongPrompt is the deterministic long prompt injected into every arm.
func chunkedLongPrompt(n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i*11 + 5) % vocab
	}
	return p
}

// gapQuantile returns the q-quantile of sorted durations (inverse CDF: the
// smallest sample whose rank covers q).
func gapQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// chunkedTrace is one arm's arrivals: streams summarize requests (long
// prompts relative to their budget), each after the first arriving on its
// predecessor's first token, then the long prompt on the last stream's
// first token. Every stream is then decoding, with all but a few tokens of
// its budget left, when the long prompt arrives — on a host of any speed,
// where a fixed arrival time let fast hosts finish the streams first.
func chunkedTrace(vocab, promptLen, streams, decodeLen int, seed int64) (workload.Trace, error) {
	bg, err := workload.Generate("summarize", workload.Spec{
		Seed: seed, N: streams, Vocab: vocab, Horizon: 20 * time.Millisecond,
		MinNewTokens: decodeLen, MaxNewTokens: decodeLen + 2,
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(bg); i++ {
		bg[i].After = &workload.Trigger{Index: i - 1, Tokens: 1}
	}
	return append(bg, workload.Request{
		After: &workload.Trigger{Index: streams - 1, Tokens: 1}, Session: -1, Kind: "long",
		Prompt: chunkedLongPrompt(promptLen, vocab), MaxNewTokens: 4,
	}), nil
}

// runChunkedArm replays one arm of chunkedTrace. It returns the arm's
// measurements and every request's served tokens (background in trace
// order, then the long request) for cross-arm exactness checks.
func runChunkedArm(cfg model.Config, chunk, promptLen, streams, decodeLen int, seed int64) (ChunkedArm, [][]int, error) {
	arm := ChunkedArm{ChunkTokens: chunk}
	trace, err := chunkedTrace(cfg.Vocab, promptLen, streams, decodeLen, seed)
	if err != nil {
		return arm, nil, err
	}

	// The model seed is fixed so every arm serves the identical model — the
	// outputs must match token for token across chunk sizes.
	slots := streams + 1
	eng, err := seededEngine(servingSeed, cfg, runtime.Policy{IntraOp: 2, GPUBatch: slots, Prefetch: true}, 1<<30, threadpool.MustNew(2))
	if err != nil {
		return arm, nil, err
	}
	collector := perfmodel.NewEstCollector()
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = slots
	scfg.QueueDepth = streams + 4
	scfg.MaxPromptLen = promptLen
	scfg.MaxNewTokens = decodeLen + 8
	scfg.ChunkTokens = chunk
	scfg.EstObserver = collector
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return arm, nil, err
	}
	defer sched.Close()

	outs := workload.Replay(context.Background(), trace, submitTo(sched))
	if err := replayErr(outs); err != nil {
		return arm, nil, err
	}
	outputs := make([][]int, len(outs))
	for i, o := range outs {
		outputs[i] = o.Tokens
	}
	long := outs[streams]
	var longFirst time.Time
	if len(long.TokenTimes) > 0 {
		longFirst = long.TokenTimes[0]
		arm.LongTTFT = longFirst.Sub(long.Submitted)
	}

	// Background gaps: consecutive inter-token intervals per stream (TTFT
	// excluded). During counts the tokens landing inside the long prefill
	// window [submit, first long token]; InFlight the streams that had
	// delivered a token before the submit and delivered another after it.
	var gaps []time.Duration
	for _, o := range outs[:streams] {
		times := o.TokenTimes
		for j := 1; j < len(times); j++ {
			gaps = append(gaps, times[j].Sub(times[j-1]))
		}
		for _, at := range times {
			if at.After(long.Submitted) && at.Before(longFirst) {
				arm.During++
			}
		}
		if len(times) > 0 && times[0].Before(long.Submitted) && times[len(times)-1].After(long.Submitted) {
			arm.InFlight++
		}
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	arm.Gaps = len(gaps)
	arm.TPOTP50 = gapQuantile(gaps, 0.50)
	arm.TPOTP99 = gapQuantile(gaps, 0.99)
	arm.TPOTMax = gapQuantile(gaps, 1.0)
	acc := collector.Accuracy(perfmodel.EstTPOT)
	arm.TPOTQErrN = acc.Count()
	if acc.Count() > 0 {
		arm.TPOTQErrP95 = acc.P95()
		arm.TPOTQErrMax = acc.Max()
	}
	return arm, outputs, nil
}

// ChunkedBench runs the chunked-prefill TPOT-spike benchmark: a monolithic
// arm and two chunked arms over the identical summarize trace plus one
// 2048-token arrival, a 512-token one over three streams of 24 tokens at
// Smoke. Its report gates that (a) every arm serves bit-identical tokens,
// (b) in every arm a background stream was decoding when the long prompt
// arrived, so that there was a stall to measure, and (c) the primary
// chunked arm improves the background p99 inter-token gap by at least 2x
// over monolithic admission.
func ChunkedBench(s Scale) (*ChunkedResult, error) {
	cfg := model.Tiny()
	// Six streams of 48 tokens put the monolithic stall — one multi-second
	// gap per concurrent stream — well inside the top 1% of the ~280 gap
	// samples, so the p99 contrast is structural, not a rank-off-by-one.
	promptLen, streams, decodeLen := 2048, 6, 48
	if s == Smoke {
		promptLen, streams, decodeLen = 512, 3, 24
	}
	const seed = 7001
	r := &ChunkedResult{Model: cfg, PromptLen: promptLen, Streams: streams, DecodeLen: decodeLen, TokenExact: true}
	var ref [][]int
	for _, chunk := range []int{0, 32, 128} {
		arm, outs, err := runChunkedArm(cfg, chunk, promptLen, streams, decodeLen, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: chunked arm %d: %w", chunk, err)
		}
		if ref == nil {
			ref = outs
		}
		for i := range ref {
			if !slices.Equal(outs[i], ref[i]) {
				r.TokenExact = false
			}
		}
		r.Arms = append(r.Arms, arm)
	}
	if r.Arms[1].TPOTP99 > 0 {
		r.P99Speedup = float64(r.Arms[0].TPOTP99) / float64(r.Arms[1].TPOTP99)
	}
	return r, nil
}

// Report renders the A/B table and gates the benchmark's committed bar:
// token-exact output across every arm, a background stream in flight at the
// long arrival in every arm, and ≥ 2x p99 TPOT improvement for the primary
// chunked arm over monolithic admission.
func (r *ChunkedResult) Report() *Report {
	t := stats.NewTable("chunk", "gap p50", "gap p99", "gap max", "long ttft", "during", "in flight", "tpot q95", "tpot qmax")
	minInFlight := r.Streams
	for _, a := range r.Arms {
		label := "mono"
		if a.ChunkTokens > 0 {
			label = fmt.Sprintf("%d", a.ChunkTokens)
		}
		t.AddRowf("%s\t%.1fms\t%.1fms\t%.1fms\t%.0fms\t%d\t%d\t%.2f\t%.2f",
			label, ms(a.TPOTP50), ms(a.TPOTP99), ms(a.TPOTMax), ms(a.LongTTFT),
			a.During, a.InFlight, a.TPOTQErrP95, a.TPOTQErrMax)
		minInFlight = min(minInFlight, a.InFlight)
	}
	rep := &Report{
		Title: fmt.Sprintf("Chunked prefill TPOT-spike bound (%s, %d-token arrival over %d summarize streams x %d tokens)",
			r.Model.Name, r.PromptLen, r.Streams, r.DecodeLen),
		Table: t,
		Gates: []Gate{
			holds("every arm serves the monolithic arm's tokens", Exact, r.TokenExact),
			atLeast("background streams in flight at the long arrival, fewest over the arms", Exact, float64(minInFlight), 1),
			atLeast(fmt.Sprintf("mono / chunked(%d) p99 inter-token gap", r.Arms[1].ChunkTokens), WallClock, r.P99Speedup, 2),
		},
	}
	rep.note("p99 inter-token gap: mono %.1fms vs chunked(%d) %.1fms — %.1fx",
		ms(r.Arms[0].TPOTP99), r.Arms[1].ChunkTokens, ms(r.Arms[1].TPOTP99), r.P99Speedup)
	rep.note("during = background tokens delivered while the long prompt prefilled; mono stalls the batch,")
	rep.note("chunked interleaves one bounded chunk per scheduler iteration. tpot q-errors score the live")
	rep.note("step-cost fit on decode steps only — chunk compute runs outside the timed decode window.")
	return rep
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
