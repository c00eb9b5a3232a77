// Command lmo-serve runs the continuous-batching HTTP server over the
// functional offloading engine: requests POSTed to /generate join a bounded
// admission queue, get admitted into free KV slots at decode-step
// boundaries, and stream back either a JSON token list or SSE events.
// /healthz reports the circuit-breaker state (healthy/degraded/shedding,
// 503 while shedding); /stats reports queue depth, batch occupancy,
// TTFT/TPOT latency quantiles, tokens/s, and the overload-protection
// counters (spills, evictions, structured 429s, pressure level).
//
// The server estimates each request's peak arena footprint before admitting
// it and sheds load with structured 429/503 responses carrying Retry-After
// instead of OOMing.
//
// Usage:
//
//	lmo-serve [-addr :8080] [-model tiny|small] [-slots 4] [-queue 64]
//	          [-max-new 64] [-eos -1] [-kvbits 0|2|4|8] [-cpu-attn]
//	          [-workers 4] [-seed 42] [-faults spec] [-step-timeout dur]
//	          [-arena-mb 2048] [-hwm 0.85] [-lwm 0.65]
//	          [-tpot-budget dur] [-host-kv-mb 0] [-prefix-cache-mb 0]
//	          [-chunk-tokens 0] [-tenants "free=1,pro=2/3"]
//	          [-latency-samples 4096] [-adapt]
//
// With -chunk-tokens N, prompts longer than N are admitted incrementally:
// one N-token prefill chunk runs between decode steps, so a long arrival
// never stalls the live batch for more than one chunk's compute. Served
// tokens are bit-identical to monolithic admission.
//
// With -adapt, a background controller watches the TPOT estimator's windowed
// accuracy and the measured TPOT against a stable baseline; when the machine
// drifts (thermal throttling, co-tenants), it refits the performance model's
// hardware coefficients, re-runs the autotune search off the hot path, and
// hot-swaps the execution policy at a decode-step boundary — canarying the
// swap and rolling it back automatically if measured TPOT regresses. /stats
// gains an "adapt" block (state, drift factor, swap/commit/rollback
// counters).
//
// A non-empty -tenants enables weighted fair-share scheduling: it declares
// per-tenant active-slot quotas, queue depths, and weighted-round-robin
// shares; requests carrying a "tenant"
// field bill against their tenant and untagged requests bill to "default".
// /stats then reports per-tenant queued/active/completed counters.
//
// Example session:
//
//	lmo-serve &
//	curl -s localhost:8080/generate -d '{"prompt":[1,2,3],"max_new_tokens":8}'
//	curl -s -N localhost:8080/generate -d '{"prompt":[1,2,3],"stream":true}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"time"

	lmoffload "repro"
	"repro/internal/adapt"
	"repro/internal/adapt/tune"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "tiny", "executable model: tiny or small")
	slots := flag.Int("slots", 4, "concurrent decode slots (continuous-batch width)")
	queueDepth := flag.Int("queue", 64, "admission queue depth")
	maxNew := flag.Int("max-new", 64, "per-request generation cap")
	defaultNew := flag.Int("default-new", 16, "generation budget when a request omits max_new_tokens")
	eos := flag.Int("eos", -1, "EOS token ID terminating a stream early (-1 = off)")
	kvBits := flag.Int("kvbits", 0, "KV quantization bits (0 = off; quantized KV is lossy)")
	cpuAttn := flag.Bool("cpu-attn", false, "keep the KV cache host-resident and attention on the CPU")
	workers := flag.Int("workers", 4, "compute pool width")
	seed := flag.Int64("seed", 42, "weights seed")
	faultSpec := flag.String("faults", "", `fault injection rules, e.g. "weight-transfer:p=0.1,kv-corruption:p=0.05"`)
	stepTimeout := flag.Duration("step-timeout", 0, "per-step deadline (0 = none)")
	arenaMB := flag.Int64("arena-mb", 2048, "GPU arena capacity in MiB")
	hwm := flag.Float64("hwm", 0.85, "high watermark as a fraction of the arena's KV headroom")
	lwm := flag.Float64("lwm", 0.65, "low watermark (hysteresis floor) as a fraction of KV headroom")
	tpotBudget := flag.Duration("tpot-budget", 0, "reject admissions predicted to push TPOT past this (0 = off)")
	hostKVMB := flag.Int64("host-kv-mb", 0, "host-side KV byte budget in MiB (0 = unlimited)")
	prefixMB := flag.Int64("prefix-cache-mb", 0, "shared-prefix KV cache budget in MiB (0 = off); admissions reuse cached prompt prefixes and prefill only the suffix")
	chunkTokens := flag.Int("chunk-tokens", 0, "chunked prefill: admit prompts longer than this incrementally, one chunk between decode steps, bounding the TPOT spike a long arrival can inflict (0 = monolithic admission)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the serving run to this file on shutdown")
	tenants := flag.String("tenants", "", `enable weighted fair-share scheduling over tenants given as name=slots[/weight[/depth]] entries, e.g. "free=1,pro=2/3,batch=1/1/16" (slots 0 = suspended; requests tagged "tenant" bill per-tenant, untagged ones bill to "default")`)
	latencySamples := flag.Int("latency-samples", 0, "TTFT/TPOT latency reservoir capacity per ring (0 = default 4096)")
	adaptOn := flag.Bool("adapt", false, "online self-tuning: drift detection, background re-search, guarded policy hot-swap with canary rollback")
	flag.Parse()

	var cfg model.Config
	switch *modelName {
	case "tiny":
		cfg = model.Tiny()
	case "small":
		cfg = model.Small()
	default:
		fmt.Fprintf(os.Stderr, "lmo-serve: unknown model %q\n", *modelName)
		os.Exit(2)
	}

	pol := runtime.Policy{
		AttnOnCPU:   *cpuAttn,
		IntraOp:     *workers,
		Prefetch:    true,
		StepTimeout: *stepTimeout,
	}
	if *kvBits > 0 && !*cpuAttn {
		pol.QuantKV = true
		pol.KVCfg = quant.Config{Bits: *kvBits, GroupSize: 32}
	}

	m, err := model.NewModel(rand.New(rand.NewSource(*seed)), cfg)
	if err != nil {
		fatal(err)
	}
	pool := threadpool.MustNew(*workers)
	eng, err := runtime.NewEngine(m, pol, *arenaMB<<20, pool)
	if err != nil {
		fatal(err)
	}
	if *faultSpec != "" {
		rules, err := faults.ParseRules(*faultSpec)
		if err != nil {
			fatal(err)
		}
		inj, err := faults.New(*seed, rules)
		if err != nil {
			fatal(err)
		}
		eng.SetFaultInjector(inj)
	}

	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = *slots
	scfg.QueueDepth = *queueDepth
	scfg.MaxNewTokens = *maxNew
	scfg.DefaultNewTokens = *defaultNew
	scfg.EOS = *eos
	scfg.ArenaHighWater = *hwm
	scfg.ArenaLowWater = *lwm
	scfg.TPOTBudget = *tpotBudget
	scfg.HostKVBudget = *hostKVMB << 20
	scfg.PrefixCacheBytes = *prefixMB << 20
	scfg.ChunkTokens = *chunkTokens
	scfg.LatencySampleCap = *latencySamples
	if *tenants != "" {
		tcs, err := serve.ParseTenantSpec(*tenants)
		if err != nil {
			fatal(err)
		}
		scfg.Tenants = tcs
	}
	var col *perfmodel.EstCollector
	if *adaptOn {
		col = perfmodel.NewEstCollector()
		scfg.EstObserver = col
	}
	var rec *xtrace.Recorder
	if *traceFile != "" {
		rec = xtrace.NewRecorder(0)
		eng.SetTracer(rec)
	}
	sched, err := serve.New(eng, scfg)
	if err != nil {
		fatal(err)
	}
	var ctl *adapt.Controller
	if *adaptOn {
		work, err := lmoffload.NewWorkload(64, *maxNew, 64, 10)
		if err != nil {
			fatal(err)
		}
		searcher := &tune.AutoTuneSearcher{
			Plat:       lmoffload.SingleGPUA100(),
			Mod:        lmoffload.OPT30B,
			Work:       work,
			Base:       perfmodel.LMOffloadProfile(),
			MaxIters:   4,
			MaxIntraOp: *workers,
		}
		ctl, err = adapt.New(sched, col, searcher, adapt.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		if rec != nil {
			ctl.SetTracer(rec)
		}
		sched.SetAdaptStatsFunc(ctl.StatsMap)
		ctl.Start()
	}

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(sched)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "lmo-serve: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		if ctl != nil {
			ctl.Stop()
		}
		sched.Close()
		if rec != nil {
			if err := rec.WriteFile(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, "lmo-serve:", err)
			} else {
				fmt.Printf("trace: %d spans written to %s (%d dropped by the ring)\n",
					rec.Len(), *traceFile, rec.Dropped())
			}
		}
	}()
	fmt.Printf("lmo-serve: %s model, %d slots, queue %d, listening on %s\n",
		cfg.Name, *slots, *queueDepth, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// ListenAndServe returns the instant Shutdown begins; wait for the drain
	// (and the trace write) to finish before exiting.
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lmo-serve:", err)
	os.Exit(1)
}
