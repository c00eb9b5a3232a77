// Command lmo-cluster fronts N in-process engine replicas with the
// health-aware router: requests POSTed to /generate are scored against every
// replica (predicted drain + prefill of the uncached suffix + queue
// pressure), dispatched to the cheapest routable one, hedged to a second
// replica when the primary is degraded or blows through its predicted TTFT,
// and failed over — token-exactly — when a replica dies mid-request.
// /healthz reports fleet routability (503 when no replica is routable);
// /stats reports the router counters plus per-replica serving metrics.
//
// Every replica is built from the same seed, so the fleet models N identical
// deployments of one model; fault injection (per-replica windows toggled by
// the chaos harness) exercises the failover machinery.
//
// Usage:
//
//	lmo-cluster [-addr :8080] [-replicas 3] [-model tiny|small] [-slots 4]
//	            [-queue 64] [-max-new 64] [-default-new 16] [-eos -1]
//	            [-workers 4] [-seed 42] [-arena-mb 2048]
//	            [-prefix-cache-mb 0] [-faults spec] [-hedge]
//	            [-hedge-factor 3] [-max-attempts 0] [-trace file]
//
// Example session:
//
//	lmo-cluster -replicas 3 -hedge &
//	curl -s localhost:8080/generate -d '{"prompt":[1,2,3],"max_new_tokens":8}'
//	curl -s localhost:8080/healthz
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

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.Int("replicas", 3, "number of in-process engine replicas")
	modelName := flag.String("model", "tiny", "executable model: tiny or small")
	slots := flag.Int("slots", 4, "concurrent decode slots per replica")
	queueDepth := flag.Int("queue", 64, "admission queue depth per replica")
	maxNew := flag.Int("max-new", 64, "per-request generation cap")
	defaultNew := flag.Int("default-new", 16, "generation budget when a request omits max_new_tokens")
	eos := flag.Int("eos", -1, "EOS token ID terminating a stream early (-1 = off)")
	workers := flag.Int("workers", 4, "compute pool width per replica")
	seed := flag.Int64("seed", 42, "weights seed (shared: every replica is the identical deployment)")
	arenaMB := flag.Int64("arena-mb", 2048, "GPU arena capacity per replica in MiB")
	prefixMB := flag.Int64("prefix-cache-mb", 0, "shared-prefix KV cache budget per replica in MiB (0 = off); routing favors the replica holding the longest cached prefix")
	faultSpec := flag.String("faults", "", `per-replica fault injection rules, e.g. "weight-transfer:p=0.1"`)
	hedge := flag.Bool("hedge", false, "hedge slow or degraded primaries with a second attempt (first token wins)")
	hedgeFactor := flag.Float64("hedge-factor", 3, "hedge when observed TTFT exceeds this multiple of the prediction")
	maxAttempts := flag.Int("max-attempts", 0, "dispatch attempts per request across replicas (0 = one per replica)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON (route/hedge/failover spans) to this file on shutdown")
	flag.Parse()

	var cfg model.Config
	switch *modelName {
	case "tiny":
		cfg = model.Tiny()
	case "small":
		cfg = model.Small()
	default:
		fmt.Fprintf(os.Stderr, "lmo-cluster: unknown model %q\n", *modelName)
		os.Exit(2)
	}
	if *replicas <= 0 {
		fmt.Fprintln(os.Stderr, "lmo-cluster: need at least one replica")
		os.Exit(2)
	}

	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = *slots
	scfg.QueueDepth = *queueDepth
	scfg.MaxNewTokens = *maxNew
	scfg.DefaultNewTokens = *defaultNew
	scfg.EOS = *eos
	scfg.PrefixCacheBytes = *prefixMB << 20

	var rules map[faults.Site]faults.Rule
	if *faultSpec != "" {
		var err error
		rules, err = faults.ParseRules(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}

	var rec *xtrace.Recorder
	if *traceFile != "" {
		rec = xtrace.NewRecorder(0)
	}

	reps := make([]*cluster.Replica, *replicas)
	scheds := make([]*serve.Scheduler, *replicas)
	for i := range reps {
		// Same weights seed per replica: N identical deployments. The fault
		// stream is per-replica (seed+i) so chaos windows differ.
		m, err := model.NewModel(rand.New(rand.NewSource(*seed)), cfg)
		if err != nil {
			fatal(err)
		}
		pol := runtime.Policy{IntraOp: *workers, Prefetch: true}
		eng, err := runtime.NewEngine(m, pol, *arenaMB<<20, threadpool.MustNew(*workers))
		if err != nil {
			fatal(err)
		}
		var inj *faults.Injector
		if rules != nil {
			if inj, err = faults.New(*seed+int64(i), rules); err != nil {
				fatal(err)
			}
			eng.SetFaultInjector(inj)
		}
		if rec != nil {
			eng.SetTracer(rec)
		}
		s, err := serve.New(eng, scfg)
		if err != nil {
			fatal(err)
		}
		scheds[i] = s
		reps[i] = cluster.NewReplica(fmt.Sprintf("r%d", i), s, inj)
	}

	pol := cluster.DefaultPolicy()
	pol.HedgeFactor = *hedgeFactor
	c, err := cluster.New(reps, scfg, cluster.Options{Policy: pol, Hedge: *hedge, MaxAttempts: *maxAttempts})
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		c.SetTracer(rec)
	}

	srv := &http.Server{Addr: *addr, Handler: cluster.NewHandler(c)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "lmo-cluster: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		c.Wait()
		for _, s := range scheds {
			s.Close()
		}
		if rec != nil {
			if err := rec.WriteFile(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, "lmo-cluster:", err)
			} else {
				fmt.Printf("trace: %d spans written to %s (%d dropped by the ring)\n",
					rec.Len(), *traceFile, rec.Dropped())
			}
		}
	}()
	hedgeState := "off"
	if *hedge {
		hedgeState = "on"
	}
	fmt.Printf("lmo-cluster: %d x %s replicas, %d slots each, hedging %s, listening on %s\n",
		*replicas, cfg.Name, *slots, hedgeState, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lmo-cluster:", err)
	os.Exit(1)
}
