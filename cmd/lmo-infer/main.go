// Command lmo-infer runs the functional offloading engine on a real tiny
// transformer: actual tensors, actual group-wise quantization, the zig-zag
// schedule with asynchronous weight prefetch, and a capacity-enforced GPU
// arena. It verifies the offloaded output against the unoffloaded reference
// model and prints the I/O accounting.
//
// Fault tolerance is exercised through -faults (deterministic fault
// injection), -ckpt-every/-checkpoint/-resume (generation checkpointing),
// and -step-timeout (per-step deadlines).
//
// Usage:
//
//	lmo-infer [-model tiny|small] [-batch 4] [-prompt 8] [-gen 16]
//	          [-kvbits 0|2|4|8] [-wbits 0|2|4|8] [-cpu-attn] [-workers 4]
//	          [-faults spec] [-ckpt-every N] [-checkpoint file] [-resume file]
//	          [-step-timeout dur]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/threadpool"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

func main() {
	modelName := flag.String("model", "tiny", "executable model: tiny or small")
	batch := flag.Int("batch", 4, "sequences in the batch")
	prompt := flag.Int("prompt", 8, "prompt length")
	gen := flag.Int("gen", 16, "tokens to generate")
	kvBits := flag.Int("kvbits", 4, "KV quantization bits (0 = off)")
	wBits := flag.Int("wbits", 0, "weight quantization bits (0 = off)")
	cpuAttn := flag.Bool("cpu-attn", false, "offload attention to the CPU (keeps KV host-resident)")
	workers := flag.Int("workers", 4, "compute pool width")
	seed := flag.Int64("seed", 42, "weights/prompts seed")
	faultSpec := flag.String("faults", "", `fault injection rules, e.g. "weight-transfer:p=0.1,kv-corruption:p=0.05,worker-panic:p=0.02:n=3"`)
	stepTimeout := flag.Duration("step-timeout", 0, "per-step deadline (0 = none)")
	ckptEvery := flag.Int("ckpt-every", 0, "snapshot generation state every N decode steps (0 = off)")
	ckptFile := flag.String("checkpoint", "", "write the final snapshot to this file (requires -ckpt-every)")
	resumeFile := flag.String("resume", "", "resume generation from a checkpoint file instead of starting fresh")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	flag.Parse()

	var cfg model.Config
	switch *modelName {
	case "tiny":
		cfg = model.Tiny()
	case "small":
		cfg = model.Small()
	default:
		fmt.Fprintf(os.Stderr, "lmo-infer: unknown model %q\n", *modelName)
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
	if *wBits > 0 {
		pol.QuantWeights = true
		pol.WeightCfg = quant.Config{Bits: *wBits, GroupSize: 32}
	}

	rng := rand.New(rand.NewSource(*seed))
	work := workload.Job{PromptLen: *prompt, GenLen: *gen, GPUBatch: *batch, NumBatches: 1}
	if err := work.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lmo-infer:", err)
		os.Exit(2)
	}
	prompts := work.Prompts(rng, cfg.Vocab)

	m, err := model.NewModel(rand.New(rand.NewSource(*seed)), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-infer:", err)
		os.Exit(1)
	}
	pool := threadpool.MustNew(*workers)
	eng, err := runtime.NewEngine(m, pol, 1<<31, pool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-infer:", err)
		os.Exit(1)
	}

	var inj *faults.Injector
	if *faultSpec != "" {
		rules, err := faults.ParseRules(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(2)
		}
		if inj, err = faults.New(*seed, rules); err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(2)
		}
		eng.SetFaultInjector(inj)
	}
	if *ckptEvery > 0 {
		if err := eng.EnableCheckpointing(*ckptEvery); err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(2)
		}
	}
	var rec *xtrace.Recorder
	if *traceFile != "" {
		rec = xtrace.NewRecorder(0)
		eng.SetTracer(rec)
	}

	ctx := context.Background()
	var out [][]int
	if *resumeFile != "" {
		f, err := os.Open(*resumeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		ck, err := runtime.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		fmt.Printf("resuming from %s: step %d/%d, %d sequences\n", *resumeFile, ck.Step, ck.GenLen, len(ck.Prompts))
		out, err = eng.Resume(ctx, ck, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
	} else {
		out, err = eng.Generate(ctx, prompts, *gen)
		if err != nil {
			// Persist the last good snapshot so the run can be resumed past
			// the failure point — this is the scenario checkpoints exist for.
			if *ckptFile != "" {
				if ck := eng.LastCheckpoint(); ck != nil {
					if werr := writeCheckpoint(ck, *ckptFile); werr != nil {
						fmt.Fprintln(os.Stderr, "lmo-infer:", werr)
					} else {
						fmt.Fprintf(os.Stderr, "lmo-infer: partial checkpoint (step %d/%d) written to %s\n",
							ck.Step, ck.GenLen, *ckptFile)
					}
				}
			}
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("model %s: %d layers, hidden %d, %d heads, vocab %d\n",
		cfg.Name, cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Vocab)
	fmt.Printf("policy: cpu-attn=%v kv-quant=%v weight-quant=%v workers=%d\n\n",
		pol.AttnOnCPU, pol.QuantKV, pol.QuantWeights, *workers)
	for i, seq := range out {
		if i >= 4 {
			fmt.Printf("... (%d more sequences)\n", len(out)-4)
			break
		}
		fmt.Printf("seq %d: %v\n", i, seq)
	}
	if rec != nil {
		if err := rec.WriteFile(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s (%d dropped by the ring)\n", rec.Len(), *traceFile, rec.Dropped())
	}
	fmt.Printf("\nengine stats: %s\n", eng.Stats())
	if inj != nil {
		st := eng.Stats()
		fmt.Printf("faults: %s\n", inj)
		fmt.Printf("recovery: retries=%d cleared=%d degradations=%v checkpoints=%d\n",
			st.TotalRetries(), st.FaultsCleared, st.Degradations, st.Checkpoints)
	}

	if *ckptFile != "" {
		ck := eng.LastCheckpoint()
		if ck == nil {
			fmt.Fprintln(os.Stderr, "lmo-infer: no checkpoint captured (set -ckpt-every)")
			os.Exit(1)
		}
		if err := writeCheckpoint(ck, *ckptFile); err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint (step %d/%d) written to %s\n", ck.Step, ck.GenLen, *ckptFile)
	}

	// Verify against the unoffloaded reference when nothing is quantized and
	// the run started fresh. Fault recovery must be semantically transparent,
	// so this holds even under injection.
	if !pol.QuantKV && !pol.QuantWeights && *resumeFile == "" && len(out[0]) == *gen {
		ref, err := model.NewModel(rand.New(rand.NewSource(*seed)), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		want, err := ref.Generate(pool, *workers, prompts, *gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmo-infer:", err)
			os.Exit(1)
		}
		for i := range want {
			for j := range want[i] {
				if out[i][j] != want[i][j] {
					fmt.Fprintf(os.Stderr, "lmo-infer: VERIFICATION FAILED at seq %d token %d\n", i, j)
					os.Exit(1)
				}
			}
		}
		fmt.Println("verification: offloaded output matches the reference model exactly")
	}
}

// writeCheckpoint serializes ck to path, creating or truncating the file.
func writeCheckpoint(ck *runtime.Checkpoint, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := ck.Save(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
