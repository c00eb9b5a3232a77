// Command lmo-parallelism explores thread-level parallelism control (§4):
// it prints the Figure 5 sweeps, runs Algorithm 3, and reports the tuned
// setting against the PyTorch default.
//
// Usage:
//
//	lmo-parallelism [-model OPT-30B] [-gen 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/parallelism"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	modelName := flag.String("model", "OPT-30B", "model configuration")
	gen := flag.Int("gen", 8, "generation length")
	flag.Parse()

	mod, err := model.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(2)
	}
	plat := hw.SingleGPUA100()
	work := workload.Job{PromptLen: 64, GenLen: *gen, GPUBatch: 64, NumBatches: 10}
	machine, err := parallelism.NewMachineModel(plat.CPU)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	ctrl, err := parallelism.NewController(machine, plat.Link.BandwidthPerDir*0.5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	groups := parallelism.DefaultHeadGroups
	if groups > mod.Heads {
		groups = mod.Heads
	}
	og, err := parallelism.BuildAttentionGraph(mod, work, work.PromptLen+work.GenLen/2, groups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	transfers := []parallelism.TransferTask{
		{Name: "load_weight", Bytes: float64(mod.LayerWeightBytes()) * 0.45},
		{Name: "load_cache", Bytes: 0},
		{Name: "store_cache", Bytes: 0},
		{Name: "load_activation", Bytes: float64(mod.ActivationBytes(work))},
		{Name: "store_activation", Bytes: float64(mod.ActivationBytes(work))},
	}

	fmt.Printf("parallelism control: %s, %s, %d-core / %d-thread host\n\n", mod.Name, work, machine.Cores, machine.Threads)
	fmt.Printf("compute dependency graph: %d operators, max concurrency %d (Kahn levels)\n\n", len(og.Ops), og.MaxConcurrency())

	intra, err := ctrl.SweepIntraOp(og, transfers, []int{1, 2, 4, 8, 16, 32, 56})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	t := stats.NewTable("intra-op", "step ms")
	for _, p := range intra {
		t.AddRowf("%d\t%.2f", p.Parallelism, p.StepTime*1e3)
	}
	fmt.Println(t.String())

	def, err := ctrl.DefaultSetting(og, transfers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	tuned, err := ctrl.Optimize(og, transfers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmo-parallelism:", err)
		os.Exit(1)
	}
	imp := parallelism.Compare(def, tuned)
	fmt.Printf("default:  intra-op %d, inter-op %d, compute %.1f ms, step %.1f ms\n",
		def.IntraOp, def.InterOp, def.ComputeTime*1e3, def.StepTime*1e3)
	fmt.Printf("tuned:    intra-op %d, inter-op %d (compute %d + 5 transfer tasks), compute %.1f ms, step %.1f ms\n",
		tuned.IntraOp, tuned.InterOp, tuned.InterOpCompute, tuned.ComputeTime*1e3, tuned.StepTime*1e3)
	fmt.Printf("transfer threads: %v\n", tuned.TransferThreads)
	fmt.Printf("improvement: compute %.0f%%, step %.0f%% (paper: 32%% / 38%%)\n",
		imp.ComputeReduction*100, imp.StepReduction*100)
}
