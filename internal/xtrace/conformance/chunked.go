package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// chunkGrid is the chunk-size sweep the chunked arms run. It brackets the
// degenerate single-token case, sizes that do and do not divide the prompt,
// and the whole-prompt (monolithic) case.
func chunkGrid(promptLen int) []int {
	return []int{1, 5, 16, promptLen - 1, promptLen}
}

// ChunkedSimVsModel runs the chunked-prefill simulator over a strategy ×
// chunk-size grid and checks that each task kind's total busy time equals
// the estimator's chunked closed form (Estimator.ChunkedPrefillTasks) at
// hard float tolerance. Busy totals are schedule-independent — a task is
// busy for its service time wherever the DES places it — so this is an
// equality arm like SimVsModel, not a calibration band. The DES makespan is
// additionally held to its structural envelope: at least the busiest kind's
// total, at most the serial sum.
func ChunkedSimVsModel() (*Report, error) {
	rep := &Report{}
	mod := model.OPT30B
	work := workload.Job{PromptLen: 64, GenLen: 32, GPUBatch: 64, NumBatches: 10}
	kinds := []struct {
		name string
		pick func(perfmodel.TaskTimes) float64
	}{
		{"load_weight", func(tt perfmodel.TaskTimes) float64 { return tt.LoadWeight }},
		{"prefill_compute", func(tt perfmodel.TaskTimes) float64 { return tt.Compute }},
		{"store_cache", func(tt perfmodel.TaskTimes) float64 { return tt.StoreCache }},
	}
	for _, c := range simGrid() {
		est, err := perfmodel.New(hw.SingleGPUA100(), mod, work, c.strat, c.exec)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", c.label, err)
		}
		for _, chunk := range chunkGrid(work.PromptLen) {
			res, err := sim.SimulateChunkedPrefill(est, chunk)
			if err != nil {
				return nil, fmt.Errorf("conformance: %s chunk=%d: %w", c.label, chunk, err)
			}
			want := est.ChunkedPrefillTasks(chunk)
			label := fmt.Sprintf("%s/c%d", c.label, chunk)
			for _, k := range kinds {
				pred, meas := k.pick(want), res.TaskBusy[k.name]
				if pred < SimAbsTol && meas < SimAbsTol {
					continue
				}
				re := relErr(pred, meas)
				rep.add(Row{
					Suite: "chunked-sim-vs-model", Case: label, Check: "task-time", Task: k.name,
					Predicted: pred, Measured: meas, RelErr: re,
					Pass: re <= SimRelTol,
				})
			}
			// Summed in key order, so that the row repeats bit for bit.
			names := make([]string, 0, len(res.TaskBusy))
			for name := range res.TaskBusy {
				names = append(names, name)
			}
			sort.Strings(names)
			maxKind, sum := 0.0, 0.0
			for _, name := range names {
				b := res.TaskBusy[name]
				sum += b
				if b > maxKind {
					maxKind = b
				}
			}
			rep.add(Row{
				Suite: "chunked-sim-vs-model", Case: label, Check: "bound", Task: "makespan",
				Predicted: sum, Measured: res.Total,
				RelErr: relErr(sum, res.Total),
				Pass:   res.Total >= maxKind-SimAbsTol && res.Total <= sum+SimAbsTol,
				Note:   fmt.Sprintf("envelope [%.6g, %.6g], %d chunks", maxKind, sum, res.Chunks),
			})
		}
	}
	return rep, nil
}

// ChunkedEngineBound drives the continuous-batching scheduler with chunked
// prefill enabled and checks the structural guarantees the chunked admission
// path makes, on the engine's own trace:
//
//   - every prefill_chunk span consumed at most ChunkTokens prompt tokens
//     (the span's Step label records the chunk's token count), so no decode
//     step ever waited on more than one chunk's worth of prefill work;
//   - chunked admissions emit no monolithic prefill span at all — the
//     all-or-nothing stall chunking exists to remove is structurally absent;
//   - token conservation: the chunk token counts sum to exactly the prompt
//     tokens submitted, so bounding the steps dropped no work.
//
// These are virtual-structure checks on span labels and counts, never
// wall-clock ratios, so they hold under -race.
func ChunkedEngineBound() (*Report, error) {
	const (
		seed        = 17
		chunkTokens = 4
		longPrompt  = 37 // not a chunk multiple: exercises the short tail chunk
		shortPrompt = 6  // still > chunkTokens: chunks too
		requests    = 6
		genLen      = 8
	)
	cfg := model.Tiny()
	eng, err := tinyEngine(seed, runtime.Policy{IntraOp: 1}, nil)
	if err != nil {
		return nil, err
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = 2
	scfg.QueueDepth = requests
	scfg.MaxNewTokens = genLen
	scfg.DefaultNewTokens = genLen
	scfg.ChunkTokens = chunkTokens
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}
	defer sched.Close()

	// Every third request is long; all arrive at once.
	rng := rand.New(rand.NewSource(seed))
	mix := make(workload.Trace, requests)
	totalPrompt, minSpans := 0, 0
	for i := range mix {
		n := shortPrompt
		if i%3 == 0 {
			n = longPrompt
		}
		totalPrompt += n
		// Every request needs at least ceil(prompt/chunk) chunks (prefix
		// hits could lower it, but the prompts here share no prefix).
		minSpans += (n + chunkTokens - 1) / chunkTokens
		prompt := make([]int, n)
		for j := range prompt {
			prompt[j] = rng.Intn(cfg.Vocab)
		}
		mix[i] = workload.Request{Session: -1, Kind: "bursty-mix", Prompt: prompt, MaxNewTokens: genLen}
	}
	if err := replayOn(sched, mix); err != nil {
		return nil, err
	}

	spans := rec.Spans()
	rep := &Report{}
	chunkSpans, monolithic, sumTokens, maxChunk := 0, 0, 0, 0
	for _, s := range spans {
		switch s.Name {
		case xtrace.TaskPrefillChunk:
			chunkSpans++
			sumTokens += s.Step
			if s.Step > maxChunk {
				maxChunk = s.Step
			}
		case xtrace.TaskPrefill:
			monolithic++
		}
	}
	rep.add(Row{
		Suite: "chunked-engine", Case: "bursty-mix", Check: "bound", Task: "chunk-tokens",
		Predicted: chunkTokens, Measured: float64(maxChunk),
		Pass: chunkSpans > 0 && maxChunk <= chunkTokens && maxChunk > 0,
		Note: fmt.Sprintf("%d prefill_chunk spans, largest %d tokens", chunkSpans, maxChunk),
	})
	rep.add(Row{
		Suite: "chunked-engine", Case: "bursty-mix", Check: "presence", Task: xtrace.TaskPrefill,
		Predicted: 0, Measured: float64(monolithic),
		Pass: monolithic == 0,
		Note: "chunked admissions must not fall back to monolithic prefill",
	})
	rep.add(Row{
		Suite: "chunked-engine", Case: "bursty-mix", Check: "bound", Task: "token-conservation",
		Predicted: float64(totalPrompt), Measured: float64(sumTokens),
		RelErr: relErr(float64(totalPrompt), float64(sumTokens)),
		Pass:   sumTokens == totalPrompt,
		Note:   fmt.Sprintf("%d prompt tokens submitted across %d requests", totalPrompt, requests),
	})

	rep.add(Row{
		Suite: "chunked-engine", Case: "bursty-mix", Check: "bound", Task: "chunk-count",
		Predicted: float64(minSpans), Measured: float64(chunkSpans),
		Pass: chunkSpans >= minSpans,
		Note: "at least ceil(prompt/chunk) chunk spans per admission",
	})
	sortRowsStable(rep)
	return rep, nil
}

// sortRowsStable orders rows for deterministic report output.
func sortRowsStable(rep *Report) {
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Case != b.Case {
			return a.Case < b.Case
		}
		return a.Task < b.Task
	})
}
