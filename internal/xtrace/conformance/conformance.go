// Package conformance proves the Eq. 2 performance model against the two
// executable substrates: the discrete-event simulator and the live
// functional engine. All three views — analytical estimator, simulated
// schedule, traced engine run — speak the same six-task vocabulary
// (load_weight, load_cache, load_activation, store_cache,
// store_activation, compute), so the suite can assert, per strategy:
//
//   - sim vs model: the simulator's per-task busy time equals the
//     estimator components it was seeded with, near-exactly (the DES adds
//     contention to the *composition*, never to per-task service times);
//   - engine vs model: after calibrating a synthetic hw.Platform from
//     traced engine runs, the estimator's relative task ordering and the
//     Eq. 2 argmax task agree with the measured decode-window span totals
//     across a policy grid (quantization on/off, attention placement,
//     batch sizes);
//   - serve vs admission model: the PR 3 StepCostModel / AdmissionModel
//     predictions bound the traced actuals (peak estimate >= arena peak,
//     TPOT prediction within 2x of the measured mean).
//
// Wall-clock checks on the engine are statements about *ratios*, never
// absolute times, and only fire above explicit noise margins. Their rows
// are marked Timed: their verdicts depend on the host's load, so the
// package tests skip them and lmo-bench's conformance WallClock gates
// assert them, while every other row is asserted in every build.
package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"sort"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/threadpool"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// Tolerances and noise margins. The simulator executes the estimator's own
// component durations, so only float accumulation separates the two views.
// The engine is real wall clock: ordering assertions require the model to
// predict a decisive gap before they fire.
const (
	// SimRelTol bounds |sim - model| / model for per-task busy times.
	SimRelTol = 1e-6
	// SimAbsTol is the absolute floor below which tasks are not compared
	// (both views agree the task is nil).
	SimAbsTol = 1e-12

	// ArgmaxMargin: the Eq. 2 argmax check fires only when the predicted
	// leader exceeds the runner-up by this factor.
	ArgmaxMargin = 1.5
	// PairMargin: a pairwise ordering check fires only when the predicted
	// ratio between the two tasks is at least this factor.
	PairMargin = 3.0
	// NoiseFloor: tasks predicted below this fraction of the predicted
	// maximum are too small to time reliably and are never ordered.
	NoiseFloor = 0.05

	// TPOTFactor bounds the serve-layer check: the step-cost model's TPOT
	// prediction must land within this factor of the measured mean.
	TPOTFactor = 2.0
)

// Row is one conformance check: a prediction, a measurement, and a verdict.
// Informational rows (Check == "error") carry the measured-vs-predicted
// relative error for the CI artifact table without asserting anything.
type Row struct {
	Suite     string  // "sim-vs-model", "engine-vs-model", "serve-bounds"
	Case      string  // strategy / policy label
	Check     string  // "task-time", "argmax", "order", "bound", "error"
	Task      string  // task name or "a>b" pair
	Predicted float64 // model view (seconds, or bytes for memory bounds)
	Measured  float64 // substrate view
	RelErr    float64 // |measured-predicted| / predicted (0 when predicted 0)
	Pass      bool
	Note      string
	// Timed rows judge host wall-clock measurements (the engine's argmax,
	// order and scale checks, the serve-layer TPOT bound), so a loaded
	// host can flip their verdict; every other row repeats its measurement
	// and verdict on every run.
	Timed bool
}

// Report collects the rows of one or more suites.
type Report struct {
	Rows []Row
}

func (r *Report) add(row Row) { r.Rows = append(r.Rows, row) }

// Failures returns the asserting rows that did not pass.
func (r *Report) Failures() []Row {
	var out []Row
	for _, row := range r.Rows {
		if !row.Pass && row.Check != "error" {
			out = append(out, row)
		}
	}
	return out
}

func relErr(pred, meas float64) float64 {
	if pred == 0 {
		if meas == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(meas-pred) / math.Abs(pred)
}

// --- sim vs model ---------------------------------------------------------

// simCase is one (strategy, profile) grid point.
type simCase struct {
	label string
	strat perfmodel.Strategy
	exec  perfmodel.ExecProfile
}

func simGrid() []simCase {
	return []simCase{
		{"flexgen/kv4", perfmodel.Strategy{WeightsGPUPct: 0.2, QuantKV: true, KVBits: 4, GroupSize: 64}, perfmodel.FlexGenProfile()},
		{"lmoffload/w4+kv4", perfmodel.Strategy{WeightsGPUPct: 0.55, QuantWeights: true, WeightBits: 4, QuantKV: true, KVBits: 4, GroupSize: 64}, perfmodel.LMOffloadProfile()},
		{"zero/stream", perfmodel.Strategy{WeightsGPUPct: 0, GroupSize: 64}, perfmodel.ZeROProfile()},
		{"lmoffload/cpu-attn", perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.4, GroupSize: 64}, perfmodel.LMOffloadProfile()},
		{"flexgen/w2", perfmodel.Strategy{WeightsGPUPct: 0.75, QuantWeights: true, WeightBits: 2, GroupSize: 64}, perfmodel.FlexGenProfile()},
	}
}

// simExpected maps the simulator's TaskBusy kinds onto the estimator
// components that seeded them. TaskBusy is normalized per (layer, token),
// exactly the unit the component accessors return.
func simExpected(e *perfmodel.Estimator) map[string]float64 {
	parts := e.Parts()
	kb := float64(e.Work.NumBatches)
	exp := map[string]float64{
		"load_weight": e.WeightUpTime(),
		"load_cache":  e.KVUpTime(),
		"store_cache": e.KVDownTime(),
		"load_act":    e.ActUpTime(),
		"store_act":   e.ActDownTime(),
	}
	if d := e.DequanWgtPerToken(); d > 0 {
		exp["dequan_weight"] = d
	}
	if d := e.DequanOldCache().Total(); d > 0 {
		exp["dequan_cache"] = d
	}
	if q := e.QuanNewCache().Total(); q > 0 {
		exp["quan_cache"] = q
	}
	gpuCompute := parts.GPUCompute + e.Exec.StepOverhead*kb
	if parts.CPUCompute > 0 {
		exp["cpu_attn"] = parts.CPUCompute
		exp["gpu_mlp"] = gpuCompute
	} else {
		exp["compute"] = gpuCompute
	}
	return exp
}

// SimVsModel runs the simulator over a strategy × profile grid and checks
// that each task kind's busy time equals the estimator component it was
// derived from. This is the hard-equality arm of the suite: any drift means
// the sim's task construction diverged from Eqs. 2–24.
func SimVsModel() (*Report, error) {
	rep := &Report{}
	mod := model.OPT30B
	work := workload.Job{PromptLen: 64, GenLen: 32, GPUBatch: 64, NumBatches: 10}
	for _, c := range simGrid() {
		est, err := perfmodel.New(hw.SingleGPUA100(), mod, work, c.strat, c.exec)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", c.label, err)
		}
		res, err := sim.SimulateDecode(est, 3)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", c.label, err)
		}
		exp := simExpected(est)
		// Every expected kind must appear with the expected busy time, and
		// the sim must not invent kinds the model does not predict.
		kinds := make([]string, 0, len(exp))
		for k := range exp {
			kinds = append(kinds, k)
		}
		for k := range res.TaskBusy {
			if _, ok := exp[k]; !ok {
				kinds = append(kinds, k)
			}
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			pred, meas := exp[k], res.TaskBusy[k]
			if pred < SimAbsTol && meas < SimAbsTol {
				continue
			}
			re := relErr(pred, meas)
			rep.add(Row{
				Suite: "sim-vs-model", Case: c.label, Check: "task-time", Task: k,
				Predicted: pred, Measured: meas, RelErr: re,
				Pass: re <= SimRelTol,
			})
		}
	}
	return rep, nil
}

// --- engine vs model ------------------------------------------------------

// engineRun holds one traced engine execution plus its derived decode-window
// view.
type engineRun struct {
	spans []xtrace.Span
	steps int // decode_step span count
}

// runEngine executes a tiny-model generation with tracing enabled and
// returns the recorded spans.
func runEngine(pol runtime.Policy, batch, prompt, gen int) (*engineRun, error) {
	cfg := model.Tiny()
	const seed = 7
	eng, err := tinyEngine(seed, pol, threadpool.MustNew(pol.IntraOp))
	if err != nil {
		return nil, err
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	w := workload.Job{PromptLen: prompt, GenLen: gen, GPUBatch: batch, NumBatches: 1}
	prompts := w.Prompts(rand.New(rand.NewSource(seed)), cfg.Vocab)
	// Start the traced run from a collected heap. Building the model and
	// engine allocates enough to trigger a GC cycle, and one whose mark
	// phase overlaps the decode window takes a core from the prefetch
	// goroutine, inflating the microsecond-scale load_weight spans the
	// calibration and scale checks compare by up to 10x.
	goruntime.GC()
	if _, err := eng.Generate(context.Background(), prompts, gen); err != nil {
		return nil, err
	}
	spans := rec.Spans()
	steps := 0
	for _, s := range spans {
		if s.Name == xtrace.TaskDecodeStep {
			steps++
		}
	}
	if steps == 0 {
		return nil, fmt.Errorf("conformance: engine run produced no decode steps")
	}
	return &engineRun{spans: spans, steps: steps}, nil
}

// decodeTotals sums the decode-window span time per merged Eq. 2 task,
// normalized per (layer, token). The prefill span's end marks the window
// start; quant/dequant child spans are nested inside their parent transfer
// span, so parent totals already merge them exactly as DecodeTasks does;
// the logits projection (compute with Layer < 0) is excluded because the
// model's per-layer decomposition has no such term.
func decodeTotals(run *engineRun, layers int) map[string]float64 {
	var prefillEnd time.Duration
	for _, s := range run.spans {
		if s.Name == xtrace.TaskPrefill && s.End() > prefillEnd {
			prefillEnd = s.End()
		}
	}
	sums := map[string]time.Duration{}
	for _, s := range run.spans {
		if s.Start < prefillEnd {
			continue
		}
		switch s.Name {
		case xtrace.TaskLoadWgt, xtrace.TaskLoadKV, xtrace.TaskStoreKV,
			xtrace.TaskLoadAct, xtrace.TaskStoreAct:
			sums[s.Name] += s.Dur
		case xtrace.TaskCompute:
			if s.Layer >= 0 {
				sums[s.Name] += s.Dur
			}
		}
	}
	norm := float64(run.steps) * float64(layers)
	out := make(map[string]float64, len(sums))
	for k, v := range sums {
		out[k] = v.Seconds() / norm
	}
	return out
}

// medianDur returns the median of ds (0 when empty). Tiny-model spans sit
// in the low microseconds, where GC pauses and scheduler preemption put
// heavy outliers into any mean; the median is the robust rate estimator
// calibration and the anchored checks share.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// medianSpan returns the median duration of the named decode-window spans;
// keep filters further (nil keeps all).
func medianSpan(run *engineRun, name string, keep func(xtrace.Span) bool) time.Duration {
	var prefillEnd time.Duration
	for _, s := range run.spans {
		if s.Name == xtrace.TaskPrefill && s.End() > prefillEnd {
			prefillEnd = s.End()
		}
	}
	var ds []time.Duration
	for _, s := range run.spans {
		if s.Name == name && s.Start >= prefillEnd && (keep == nil || keep(s)) {
			ds = append(ds, s.Dur)
		}
	}
	return medianDur(ds)
}

// Calibrate derives a synthetic hw.Platform from traced tiny-model engine
// runs, so the analytical estimator can be evaluated against the same
// functional host the engine executes on. Three rates are measured:
//
//   - link bandwidth, from load_weight span time against the model-unit
//     byte volume those spans moved;
//   - sustained "GPU" FLOP rate, from decode-window per-layer compute
//     spans against the analytic FLOPs of the workload;
//   - quantization element rate, from a weight-quantized run's
//     dequant_weight spans against the elements they decompressed.
//
// MemBandwidth and Freq are set far above any measurable rate so the
// quantization model's min/max and post-process phases vanish — the engine
// has no separate copy phase, its group-wise kernels are one fused loop.
func Calibrate() (*hw.Platform, error) {
	const (
		batch  = 4
		prompt = 8
		gen    = 6
	)
	cfg := model.Tiny()
	base, err := runEngine(runtime.Policy{Prefetch: true, IntraOp: 2}, batch, prompt, gen)
	if err != nil {
		return nil, err
	}

	wMed := medianSpan(base, xtrace.TaskLoadWgt, nil)
	if wMed <= 0 {
		return nil, fmt.Errorf("conformance: calibration run recorded no weight loads")
	}
	linkBW := float64(cfg.LayerWeightBytes()) / wMed.Seconds()

	w := workload.Job{PromptLen: prompt, GenLen: gen, GPUBatch: batch, NumBatches: 1}
	seqAvg := w.PromptLen + w.GenLen/2
	flopsPerSpan := cfg.AttnFlopsDecode(w, seqAvg) + cfg.MLPFlopsDecode(w)
	cMed := medianSpan(base, xtrace.TaskCompute, func(s xtrace.Span) bool { return s.Layer >= 0 })
	if cMed <= 0 {
		return nil, fmt.Errorf("conformance: calibration run recorded no decode compute spans")
	}
	flops := flopsPerSpan / cMed.Seconds()

	qpol := runtime.Policy{
		Prefetch: true, IntraOp: 2,
		QuantWeights: true, WeightCfg: quant.Config{Bits: 4, GroupSize: 32},
	}
	qrun, err := runEngine(qpol, batch, prompt, gen)
	if err != nil {
		return nil, err
	}
	dqMed := medianSpan(qrun, xtrace.TaskDequantWgt, nil)
	if dqMed <= 0 {
		return nil, fmt.Errorf("conformance: calibration run recorded no weight dequantization")
	}
	quantRate := float64(cfg.WeightsPerLayer()) / dqMed.Seconds()

	const negligible = 1e18 // kills the phases the engine does not have
	plat := &hw.Platform{
		Name: "engine-calibrated",
		GPUs: []hw.GPU{{
			Name:          "functional-host",
			MemBytes:      1 << 31,
			MemBandwidth:  negligible,
			Flops:         flops,
			Freq:          negligible,
			QuantElemRate: quantRate,
		}},
		CPU: hw.CPU{
			Name: "functional-host", Sockets: 1, Cores: 2, Threads: 2,
			MemBytes:      1 << 33,
			MemBandwidth:  negligible,
			Flops:         flops, // same silicon: "CPU" tasks run on the same host cores
			Freq:          negligible,
			QuantElemRate: quantRate,
		},
		Link:          hw.Link{Name: "host-memcpy", BandwidthPerDir: linkBW, Duplex: true},
		DiskBandwidth: 1e9,
	}
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("conformance: calibrated platform invalid: %w", err)
	}
	return plat, nil
}

// conformanceProfile is the execution profile of the calibrated platform:
// all efficiency factors 1 (the calibration already measured effective
// rates) and no per-batch step overhead.
func conformanceProfile() perfmodel.ExecProfile {
	return perfmodel.ExecProfile{
		Name:             "conformance",
		OverlapBeta:      0.95, // unused by DecodeTasks; must validate
		QuantKernelScale: 1, LinkEff: 1, CPUCompute: 1, CPUCopy: 1,
	}
}

// engineCase pairs a runtime policy with the Strategy that describes it to
// the model.
type engineCase struct {
	label  string
	pol    runtime.Policy
	strat  perfmodel.Strategy
	batch  int
	prompt int
	gen    int
}

// engineGrid covers the policy dimensions the functional engine supports:
// plain streaming, weight quantization, KV quantization, their combination,
// attention offloading, activation offloading, and a batch-size variation.
// The engine streams every layer's weights each step (wg = 0) and keeps the
// KV store host-resident (cg = 0); activations stay on the "GPU" unless the
// policy offloads them (hg = 1 or 0).
func engineGrid() []engineCase {
	q4 := quant.Config{Bits: 4, GroupSize: 32}
	gpuResident := perfmodel.Strategy{ActGPUPct: 1, GroupSize: 32}
	return []engineCase{
		{"fp32-stream", runtime.Policy{Prefetch: true, IntraOp: 2},
			gpuResident, 4, 8, 6},
		{"w4", runtime.Policy{Prefetch: true, IntraOp: 2, QuantWeights: true, WeightCfg: q4},
			perfmodel.Strategy{ActGPUPct: 1, QuantWeights: true, WeightBits: 4, GroupSize: 32}, 4, 8, 6},
		{"kv4", runtime.Policy{Prefetch: true, IntraOp: 2, QuantKV: true, KVCfg: q4},
			perfmodel.Strategy{ActGPUPct: 1, QuantKV: true, KVBits: 4, GroupSize: 32}, 4, 8, 6},
		{"w4+kv4", runtime.Policy{Prefetch: true, IntraOp: 2, QuantWeights: true, WeightCfg: q4, QuantKV: true, KVCfg: q4},
			perfmodel.Strategy{ActGPUPct: 1, QuantWeights: true, WeightBits: 4, QuantKV: true, KVBits: 4, GroupSize: 32}, 4, 8, 6},
		{"cpu-attn", runtime.Policy{Prefetch: true, IntraOp: 2, AttnOnCPU: true, ActOnCPU: true},
			perfmodel.Strategy{AttnOnCPU: true, GroupSize: 32}, 4, 8, 6},
		{"act-cpu", runtime.Policy{Prefetch: true, IntraOp: 2, ActOnCPU: true},
			perfmodel.Strategy{GroupSize: 32}, 4, 8, 6},
		{"fp32-b8", runtime.Policy{Prefetch: true, IntraOp: 2},
			gpuResident, 8, 8, 6},
	}
}

// taskMap flattens DecodeTasks into the span-name keyed view.
func taskMap(t perfmodel.TaskTimes) map[string]float64 {
	return map[string]float64{
		xtrace.TaskCompute:  t.Compute,
		xtrace.TaskLoadWgt:  t.LoadWeight,
		xtrace.TaskLoadKV:   t.LoadCache,
		xtrace.TaskStoreKV:  t.StoreCache,
		xtrace.TaskLoadAct:  t.LoadActivation,
		xtrace.TaskStoreAct: t.StoreActivation,
	}
}

func argmax(m map[string]float64) (string, float64, float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	best, bestV, second := "", -1.0, 0.0
	for _, k := range names {
		v := m[k]
		if v > bestV {
			second = bestV
			best, bestV = k, v
		} else if v > second {
			second = v
		}
	}
	return best, bestV, second
}

// presenceSpans maps each prediction the model can make to the span names
// whose decode-window presence proves the engine executed that phase.
var presenceSpans = []struct {
	task string
	pred func(*perfmodel.Estimator) float64
}{
	{xtrace.TaskLoadWgt, func(e *perfmodel.Estimator) float64 { return e.WeightUpTime() }},
	{xtrace.TaskLoadKV, func(e *perfmodel.Estimator) float64 { return e.KVUpTime() }},
	{xtrace.TaskStoreKV, func(e *perfmodel.Estimator) float64 { return e.KVDownTime() }},
	{xtrace.TaskLoadAct, func(e *perfmodel.Estimator) float64 { return e.ActUpTime() }},
	{xtrace.TaskStoreAct, func(e *perfmodel.Estimator) float64 { return e.ActDownTime() }},
	{xtrace.TaskDequantWgt, func(e *perfmodel.Estimator) float64 { return e.DequanWgtPerToken() }},
	{xtrace.TaskDequantKV, func(e *perfmodel.Estimator) float64 { return e.DequanOldCache().Total() }},
	{xtrace.TaskQuantKV, func(e *perfmodel.Estimator) float64 { return e.QuanNewCache().Total() }},
}

// anchoredTasks are the tasks whose engine code path was rate-calibrated
// directly (compute spans against analytic FLOPs, load_weight spans against
// weight bytes). Only these support cross-task wall-clock ordering and
// absolute scale bands: the KV-store path runs through per-chunk
// reconstruction, checksumming, and (de)quantization whose fixed per-chunk
// constants dominate at tiny-model scale, so a single linear link-bandwidth
// term cannot place it on the same axis — those tasks are covered by the
// structural presence checks, the informational error table, and the
// sim-vs-model equality arm instead.
var anchoredTasks = []string{xtrace.TaskCompute, xtrace.TaskLoadWgt}

// ScaleBand bounds measured/predicted for rate-anchored tasks. Calibration
// pins both rates from the base run, so grid cases test whether the model
// tracks strategy-induced changes (quantized transfer volumes, dequant
// surcharges, batch scaling) to within this factor.
const ScaleBand = 3.0

// EngineVsModel calibrates a platform from the live engine and then checks,
// for every grid policy, that the estimator's Eq. 2 task decomposition
// agrees with the traced decode-window measurements on everything the model
// predicts decisively:
//
//   - presence: a task runs on the engine if and only if the model predicts
//     it nonzero under that strategy (KV transfers vanish with attention
//     offloading, dequant phases appear exactly with quantization, ...);
//   - argmax: when the model predicts a decisive Eq. 2 leader (ArgmaxMargin
//     over the runner-up) and the measurement is itself decisive, the two
//     must name the same task;
//   - ordering and scale: among the rate-anchored tasks, predicted ratios
//     of PairMargin or more must hold in the measurement, and each task's
//     measured time must stay within ScaleBand of its prediction.
//
// Per-task relative errors are reported informationally for the CI
// artifact.
func EngineVsModel() (*Report, error) {
	plat, err := Calibrate()
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	cfg := model.Tiny()
	for _, c := range engineGrid() {
		run, err := runEngine(c.pol, c.batch, c.prompt, c.gen)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", c.label, err)
		}
		meas := decodeTotals(run, cfg.Layers)
		w := workload.Job{PromptLen: c.prompt, GenLen: c.gen, GPUBatch: c.batch, NumBatches: 1}
		est, err := perfmodel.New(plat, cfg, w, c.strat, conformanceProfile())
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", c.label, err)
		}
		pred := taskMap(est.DecodeTasks())

		// Informational error table, every task the model predicts nonzero.
		names := make([]string, 0, len(pred))
		for k := range pred {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if pred[k] == 0 && meas[k] == 0 {
				continue
			}
			rep.add(Row{
				Suite: "engine-vs-model", Case: c.label, Check: "error", Task: k,
				Predicted: pred[k], Measured: meas[k], RelErr: relErr(pred[k], meas[k]),
				Pass: true, Note: "informational",
			})
		}

		// Structural presence: each phase runs on the engine iff the model
		// predicts it nonzero under this strategy.
		counts := decodeCounts(run)
		for _, p := range presenceSpans {
			predicted := p.pred(est)
			n := counts[p.task]
			rep.add(Row{
				Suite: "engine-vs-model", Case: c.label, Check: "presence", Task: p.task,
				Predicted: predicted, Measured: float64(n),
				Pass: (predicted > 0) == (n > 0),
				Note: fmt.Sprintf("%d spans in the decode window", n),
			})
		}

		// Eq. 2 argmax agreement, when both sides are decisive. A measured
		// near-tie with the predicted leader is noise, not disagreement; a
		// measured win by an unanchored (KV-path) task is the documented
		// per-chunk-constant divergence, noted but not failed — the sim arm
		// and the presence checks carry those tasks.
		predLead, predBest, predSecond := argmax(pred)
		if predSecond > 0 && predBest >= ArgmaxMargin*predSecond {
			measLead, measBest, _ := argmax(meas)
			disagree := measLead != predLead && measBest > 1.25*meas[predLead]
			anchoredLead := false
			for _, a := range anchoredTasks {
				if measLead == a {
					anchoredLead = true
				}
			}
			note := fmt.Sprintf("measured argmax %s", measLead)
			switch {
			case measLead != predLead && !disagree:
				note += " (within noise of the predicted leader)"
			case disagree && !anchoredLead:
				note += " (unanchored KV-path task; per-chunk constants, see package doc)"
			}
			rep.add(Row{
				Suite: "engine-vs-model", Case: c.label, Check: "argmax", Task: predLead,
				Predicted: predBest, Measured: meas[predLead],
				Pass: !(disagree && anchoredLead), Note: note, Timed: true,
			})
		}

		// Ordering and absolute scale bands for the rate-anchored tasks,
		// measured by median span duration (same estimator as calibration).
		med := map[string]float64{
			xtrace.TaskCompute: medianSpan(run, xtrace.TaskCompute,
				func(s xtrace.Span) bool { return s.Layer >= 0 }).Seconds(),
			xtrace.TaskLoadWgt: medianSpan(run, xtrace.TaskLoadWgt, nil).Seconds(),
		}
		for _, a := range anchoredTasks {
			for _, b := range anchoredTasks {
				if a == b || pred[a] == 0 || pred[a] < PairMargin*pred[b] {
					continue
				}
				rep.add(Row{
					Suite: "engine-vs-model", Case: c.label, Check: "order",
					Task:      fmt.Sprintf("%s>%s", a, b),
					Predicted: pred[a] / math.Max(pred[b], SimAbsTol),
					Measured:  med[a] / math.Max(med[b], SimAbsTol),
					Pass:      med[a] > med[b],
					Timed:     true,
				})
			}
			if pred[a] > 0 && med[a] > 0 {
				ratio := med[a] / pred[a]
				rep.add(Row{
					Suite: "engine-vs-model", Case: c.label, Check: "scale", Task: a,
					Predicted: pred[a], Measured: med[a], RelErr: relErr(pred[a], med[a]),
					Pass:  ratio >= 1/ScaleBand && ratio <= ScaleBand,
					Note:  fmt.Sprintf("measured/predicted %.2f", ratio),
					Timed: true,
				})
			}
		}
	}
	return rep, nil
}

// decodeCounts tallies decode-window span counts by name (dequant/quant
// child spans included), for the structural presence checks.
func decodeCounts(run *engineRun) map[string]int {
	var prefillEnd time.Duration
	for _, s := range run.spans {
		if s.Name == xtrace.TaskPrefill && s.End() > prefillEnd {
			prefillEnd = s.End()
		}
	}
	counts := map[string]int{}
	for _, s := range run.spans {
		if s.Start >= prefillEnd {
			counts[s.Name]++
		}
	}
	return counts
}

// Run executes the full conformance suite: the hard sim-vs-model equality
// grid, the calibrated engine-vs-model ordering grid, and the serve-layer
// admission/step-cost bound checks.
func Run() (*Report, error) {
	rep := &Report{}
	sims, err := SimVsModel()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, sims.Rows...)
	chunked, err := ChunkedSimVsModel()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, chunked.Rows...)
	cbound, err := ChunkedEngineBound()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, cbound.Rows...)
	eng, err := EngineVsModel()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, eng.Rows...)
	srv, err := ServeBounds()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, srv.Rows...)
	return rep, nil
}
