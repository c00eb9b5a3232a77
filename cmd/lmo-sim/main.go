// Command lmo-sim runs the discrete-event simulator for one strategy and
// prints the schedule analysis: steady-state step time, throughput, resource
// utilizations, and the bottleneck — alongside the analytical model's view.
//
// Usage:
//
//	lmo-sim [-model OPT-30B] [-gen 128] [-wg 55] [-cg 0] [-kvbits 4]
//	        [-wbits 0] [-cpu-attn] [-profile flexgen|zero|lmoffload] [-steps 4]
//	        [-chunk 0]
//
// With -chunk N, the prompt's prefill is additionally simulated in N-token
// chunks — the serving engine's chunked-admission schedule — and compared
// against the monolithic prefill and the analytical chunked closed form.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

func main() {
	modelName := flag.String("model", "OPT-30B", "model configuration")
	gen := flag.Int("gen", 128, "generation length")
	wg := flag.Float64("wg", 55, "percent of weights on GPU")
	cg := flag.Float64("cg", 0, "percent of KV cache on GPU")
	kvBits := flag.Int("kvbits", 4, "KV quantization bits (0 = off)")
	wBits := flag.Int("wbits", 0, "weight quantization bits (0 = off)")
	cpuAttn := flag.Bool("cpu-attn", false, "offload attention to the CPU")
	profile := flag.String("profile", "flexgen", "execution profile: flexgen, zero, lmoffload")
	steps := flag.Int("steps", 4, "decode steps to simulate")
	curve := flag.Bool("curve", false, "print the per-token latency curve instead of the average")
	chunk := flag.Int("chunk", 0, "also simulate a chunked prefill at this many tokens per chunk (0 = off)")
	faultSpec := flag.String("faults", "", `resource fault windows, e.g. "h2d@0.5+0.2,gpu@1.0+0.5x3" (outage, or xF slowdown)`)
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the simulated schedule to this file")
	flag.Parse()

	mod, err := model.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-sim:", err)
		os.Exit(2)
	}
	var exec perfmodel.ExecProfile
	switch *profile {
	case "flexgen":
		exec = perfmodel.FlexGenProfile()
	case "zero":
		exec = perfmodel.ZeROProfile()
	case "lmoffload":
		exec = perfmodel.LMOffloadProfile()
	default:
		fmt.Fprintf(os.Stderr, "lmo-sim: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	strat := perfmodel.Strategy{
		AttnOnCPU:     *cpuAttn,
		WeightsGPUPct: *wg / 100,
		CacheGPUPct:   *cg / 100,
		GroupSize:     64,
	}
	if *cpuAttn {
		strat.CacheGPUPct = 0
	}
	if *kvBits > 0 && !*cpuAttn {
		strat.QuantKV = true
		strat.KVBits = *kvBits
	}
	if *wBits > 0 {
		strat.QuantWeights = true
		strat.WeightBits = *wBits
	}

	work := workload.Job{PromptLen: 64, GenLen: *gen, GPUBatch: 64, NumBatches: 10}
	est, err := perfmodel.New(hw.SingleGPUA100(), mod, work, strat, exec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-sim:", err)
		os.Exit(1)
	}
	events, err := sim.ParseFaultEvents(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-sim:", err)
		os.Exit(2)
	}
	var rec *xtrace.Recorder
	if *traceFile != "" {
		rec = xtrace.NewRecorder(0)
	}
	res, err := sim.SimulateDecodeTraced(est, *steps, rec, events...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-sim:", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := rec.WriteFile(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "lmo-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", rec.Len(), *traceFile)
	}

	fmt.Printf("strategy: %v under %s profile, %s\n\n", strat, exec.Name, work)
	if len(events) > 0 {
		clean, err := sim.SimulateDecode(est, *steps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-sim:", err)
			os.Exit(1)
		}
		for _, ev := range events {
			kind := "outage"
			if ev.Factor >= 1 {
				kind = fmt.Sprintf("%gx slowdown", ev.Factor)
			}
			fmt.Printf("fault: %s on %s during [%.3gs, %.3gs)\n", kind, ev.Resource, ev.Start, ev.End())
		}
		fmt.Printf("throughput retention under faults: %.1f%% (clean %.1f tok/s)\n\n",
			100*res.Throughput/clean.Throughput, clean.Throughput)
	}
	fmt.Printf("simulated %d decode steps (%d tasks)\n", res.SimulatedSteps, res.Tasks)
	fmt.Printf("steady-state step time: %.2f ms/layer (analytical model: %.2f ms)\n",
		res.StepTime*1e3, est.TGen()*1e3)
	fmt.Printf("throughput: %.1f tok/s (analytical: %.1f tok/s)\n\n", res.Throughput, est.Throughput())
	for _, r := range []string{"h2d", "d2h", "gpu", "cpu"} {
		fmt.Printf("  %-4s utilization %5.1f%%\n", r, res.Utilization[r]*100)
	}
	fmt.Printf("\nbottleneck resource: %s\n", res.Bottleneck())

	if *chunk > 0 {
		cres, err := sim.SimulateChunkedPrefill(est, *chunk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-sim:", err)
			os.Exit(1)
		}
		mono, err := sim.SimulatePrefill(est)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("\nchunked prefill: %d-token prompt in %d chunks of %d\n",
			est.Work.PromptLen, cres.Chunks, *chunk)
		fmt.Printf("  makespan: %.2f ms simulated (monolithic %.2f ms, analytical chunked %.2f ms)\n",
			cres.Total*1e3, mono.Total*1e3, est.TPrefillChunked(*chunk)*1e3)
		for _, kind := range []string{"load_weight", "prefill_compute", "store_cache"} {
			fmt.Printf("  %-15s busy %8.2f ms\n", kind, cres.TaskBusy[kind]*1e3)
		}
	}

	if *curve {
		fmt.Println("\nper-token step time (ms/layer):")
		pts := est.LatencyCurve()
		stride := len(pts) / 16
		if stride < 1 {
			stride = 1
		}
		for t := 0; t < len(pts); t += stride {
			fmt.Printf("  token %3d: %.2f\n", t, pts[t]*1e3)
		}
	}
}
