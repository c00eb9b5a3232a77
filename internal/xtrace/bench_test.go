package xtrace_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/threadpool"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// BenchmarkRecordDisabled measures the cost of an instrumentation site when
// tracing is off: one nil check, no allocation. This is the contract that
// lets span recording stay compiled into the engine's hot loops.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *xtrace.Recorder
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(xtrace.TaskCompute, xtrace.LaneGPU, start, time.Microsecond, xtrace.NoLabels)
	}
}

// BenchmarkRecordEnabled measures a live span append into the ring.
func BenchmarkRecordEnabled(b *testing.B) {
	r := xtrace.NewRecorder(1 << 10)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(xtrace.TaskCompute, xtrace.LaneGPU, start, time.Microsecond, xtrace.NoLabels)
	}
}

// benchEngine builds a tiny engine for the end-to-end tracing benchmarks.
func benchEngine(b *testing.B, rec *xtrace.Recorder) (*runtime.Engine, [][]int, int) {
	b.Helper()
	cfg := model.Tiny()
	m, err := model.NewModel(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := runtime.NewEngine(m, runtime.Policy{Prefetch: true, IntraOp: 2}, 1<<31, threadpool.MustNew(2))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTracer(rec)
	w := workload.Job{PromptLen: 8, GenLen: 4, GPUBatch: 2, NumBatches: 1}
	return eng, w.Prompts(rand.New(rand.NewSource(7)), cfg.Vocab), w.GenLen
}

// BenchmarkEngineTracingOff / On bound the whole-run overhead of full
// instrumentation: the delta is the price of `-trace`, the Off case shows
// the disabled instrumentation is free at generation scale.
func BenchmarkEngineTracingOff(b *testing.B) {
	eng, prompts, gen := benchEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Generate(context.Background(), prompts, gen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTracingOn(b *testing.B) {
	rec := xtrace.NewRecorder(0)
	eng, prompts, gen := benchEngine(b, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		if _, err := eng.Generate(context.Background(), prompts, gen); err != nil {
			b.Fatal(err)
		}
	}
}
