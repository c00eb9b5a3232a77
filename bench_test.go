package lmoffload

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (run them all with `go test -bench=. -benchmem`),
// plus micro-benchmarks for the hot substrates. Each figure/table benchmark
// regenerates its experiment and reports the headline quantity as a custom
// metric so `go test -bench` output doubles as the reproduction record.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// BenchmarkFigure3 regenerates the offloading x quantization motivation
// study (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if bar := last.Bar("gpu-attn, kv4"); bar != nil {
		b.ReportMetric(bar.ModelTput, "kv4-tok/s")
	}
}

// BenchmarkFigure4 regenerates the (de)quantization time breakdown.
func BenchmarkFigure4(b *testing.B) {
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if row := last.Row("gpu-attn, w4+kv4"); row != nil {
		b.ReportMetric(row.Dequant*1e3, "dequant-ms/token")
	}
}

// BenchmarkTable1 regenerates the per-token I/O traffic accounting.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.WithoutOffload.KVCacheUp/1e9, "kv-up-GB/token")
}

// BenchmarkFigure5 regenerates the parallelism characterization sweeps.
func BenchmarkFigure5(b *testing.B) {
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.BestInterOp()), "best-inter-op")
}

// BenchmarkTable3 regenerates the full framework comparison grid.
func BenchmarkTable3(b *testing.B) {
	var last *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.VsFlexGen.Mean, "x-vs-flexgen")
	b.ReportMetric(last.VsZeRO.Mean, "x-vs-zero")
}

// BenchmarkFigure7 regenerates the quantization-aware modeling ablation.
func BenchmarkFigure7(b *testing.B) {
	var last *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var maxGain float64
	for _, p := range last.Points {
		if p.GainPct > maxGain {
			maxGain = p.GainPct
		}
	}
	b.ReportMetric(maxGain, "max-gain-%")
}

// BenchmarkFigure8 regenerates the parallelism-control task study.
func BenchmarkFigure8(b *testing.B) {
	var last *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ComputeReductionPct, "compute-reduction-%")
	b.ReportMetric(last.EndToEndReductionPct, "e2e-reduction-%")
}

// BenchmarkTable5 regenerates the LLC miss study.
func BenchmarkTable5(b *testing.B) {
	var last *experiments.Table5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(experiments.Full)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.LoadReductionPct(), "load-miss-reduction-%")
}

// BenchmarkFigure9 regenerates the multi-GPU weak-scaling study.
func BenchmarkFigure9(b *testing.B) {
	var last *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.MaxGainPct, "max-gain-%")
	b.ReportMetric(last.GapGrowth, "gap-growth-x")
}

// BenchmarkAblations runs the design-choice sweeps from DESIGN.md §4.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

// BenchmarkPolicySearch measures one full quantization-aware policy search.
func BenchmarkPolicySearch(b *testing.B) {
	plat := SingleGPUA100()
	work, _ := NewWorkload(64, 32, 64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(plat, OPT30B, work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDecode measures the discrete-event simulator on the
// motivation workload.
func BenchmarkSimulateDecode(b *testing.B) {
	plat := SingleGPUA100()
	work, _ := NewWorkload(64, 128, 64, 10)
	s := Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(plat, OPT30B, work, s, FlexGenProfile(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeRoundTrip measures the real group-wise quantization
// kernels on a 1M-element tensor.
func BenchmarkQuantizeRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := tensor.RandN(rng, 1, 1024, 1024)
	cfg := quant.DefaultConfig()
	b.SetBytes(t.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := quant.Quantize(t, cfg)
		if err != nil {
			b.Fatal(err)
		}
		quant.Dequantize(q)
	}
}

// BenchmarkMatMulParallel measures the blocked matmul across pool widths.
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandN(rng, 1, 256, 256)
	c := tensor.RandN(rng, 1, 256, 256)
	pool := threadpool.MustNew(4)
	for _, width := range []int{1, 2, 4} {
		width := width
		name := map[int]string{1: "serial", 2: "width2", 4: "width4"}[width]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(a.Bytes() * 2)
			for i := 0; i < b.N; i++ {
				tensor.MatMul(pool, width, a, c)
			}
		})
	}
}

// BenchmarkTinyEngineDecode measures the functional engine's real decode
// throughput on the tiny model with KV quantization.
func BenchmarkTinyEngineDecode(b *testing.B) {
	cfg := model.Tiny()
	prompts := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	pol := EnginePolicy{QuantKV: true, KVCfg: quant.Config{Bits: 4, GroupSize: 32}, IntraOp: 1, Prefetch: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTinyInference(cfg, pol, prompts, 4, 1<<30, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalCheck runs the real-engine strategy matrix.
func BenchmarkFunctionalCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FunctionalCheck(experiments.Full); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSweep runs the OPT-family scale study.
func BenchmarkScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScaleSweep(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelValidation runs the model-vs-simulator calibration report.
func BenchmarkModelValidation(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ValidateModel(12, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = r.MAPEModel
	}
	b.ReportMetric(last*100, "beta-margin-%")
}

// BenchmarkServeThroughput compares the two serving disciplines on the same
// ragged request mix (the serving experiment's shape): "static" admits a wave
// of requests into the Session and drains it to the slowest member before
// the next wave; "continuous" pushes the same requests through the
// internal/serve scheduler, which refills slots at decode-step boundaries.
// Custom metrics report tokens/s and, for continuous, the scheduler's
// TTFT p50/p99.
func BenchmarkServeThroughput(b *testing.B) {
	const (
		slots = 4
		nReqs = 12
	)
	cfg := model.Tiny()
	rng := rand.New(rand.NewSource(7))
	prompts := make([][]int, nReqs)
	budgets := make([]int, nReqs)
	for i := range prompts {
		prompts[i] = make([]int, 2+rng.Intn(5))
		for j := range prompts[i] {
			prompts[i][j] = rng.Intn(cfg.Vocab)
		}
		budgets[i] = 2 + rng.Intn(14)
	}
	var total int64
	for _, g := range budgets {
		total += int64(g)
	}
	newEngine := func(b *testing.B) *runtime.Engine {
		m, err := model.NewModel(rand.New(rand.NewSource(7)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 2, Prefetch: true, GPUBatch: slots}, 1<<30, threadpool.MustNew(2))
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}

	b.Run("static", func(b *testing.B) {
		ctx := context.Background()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sess, err := newEngine(b).NewSession(slots)
			if err != nil {
				b.Fatal(err)
			}
			for base := 0; base < nReqs; base += slots {
				wave := budgets[base:min(base+slots, nReqs)]
				left := make([]int, len(wave))
				for s := range wave {
					if _, err := sess.Admit(ctx, s, prompts[base+s]); err != nil {
						b.Fatal(err)
					}
					left[s] = wave[s] - 1
					if left[s] == 0 {
						sess.Retire(s)
					}
				}
				for sess.NumActive() > 0 {
					toks, err := sess.Step(ctx)
					if err != nil {
						b.Fatal(err)
					}
					for _, st := range toks {
						if left[st.Slot]--; left[st.Slot] == 0 {
							sess.Retire(st.Slot)
						}
					}
				}
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/time.Since(start).Seconds(), "tok/s")
	})

	b.Run("continuous", func(b *testing.B) {
		scfg := serve.DefaultConfig(cfg.Vocab)
		scfg.Slots = slots
		scfg.QueueDepth = nReqs
		var ttft50, ttft99 time.Duration
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sched, err := serve.New(newEngine(b), scfg)
			if err != nil {
				b.Fatal(err)
			}
			streams := make([]*serve.Stream, nReqs)
			for r := range prompts {
				if streams[r], err = sched.Submit(context.Background(), serve.Request{Prompt: prompts[r], MaxNewTokens: budgets[r]}); err != nil {
					b.Fatal(err)
				}
			}
			for _, st := range streams {
				if _, err := st.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			sum := sched.Metrics().Serve
			ttft50, ttft99 = sum.TTFTP50, sum.TTFTP99
			sched.Close()
		}
		b.ReportMetric(float64(total)*float64(b.N)/time.Since(start).Seconds(), "tok/s")
		b.ReportMetric(float64(ttft50)/float64(time.Millisecond), "ttft-p50-ms")
		b.ReportMetric(float64(ttft99)/float64(time.Millisecond), "ttft-p99-ms")
	})
}

// BenchmarkAutoTune measures the coupled policy/parallelism loop.
func BenchmarkAutoTune(b *testing.B) {
	work, _ := NewWorkload(64, 32, 64, 10)
	plat := SingleGPUA100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AutoTune(plat, OPT30B, work, 4); err != nil {
			b.Fatal(err)
		}
	}
}
