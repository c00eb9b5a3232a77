package workload

import (
	"fmt"
	"math/rand"
)

// Job is one offline-inference job: every prompt in the batch shares the
// same prompt length and generation length, matching the paper's evaluation
// methodology (prompt length standardized at 64, generation length varied).
type Job struct {
	// PromptLen is s, the input sequence length.
	PromptLen int
	// GenLen is n, the number of tokens generated per prompt.
	GenLen int
	// GPUBatch is the per-iteration batch size resident on the GPU.
	GPUBatch int
	// NumBatches is the number of GPU batches traversing the layers together
	// in one zig-zag block.
	NumBatches int
}

// BlockSize returns bls, the zig-zag block size = GPUBatch × NumBatches.
func (w Job) BlockSize() int { return w.GPUBatch * w.NumBatches }

// TotalTokens returns the number of tokens the workload generates, the
// numerator of the throughput metric (tokens/s).
func (w Job) TotalTokens() int { return w.BlockSize() * w.GenLen }

// Validate reports malformed workloads.
func (w Job) Validate() error {
	switch {
	case w.PromptLen <= 0:
		return fmt.Errorf("workload: prompt length must be positive, got %d", w.PromptLen)
	case w.GenLen <= 0:
		return fmt.Errorf("workload: generation length must be positive, got %d", w.GenLen)
	case w.GPUBatch <= 0:
		return fmt.Errorf("workload: GPU batch must be positive, got %d", w.GPUBatch)
	case w.NumBatches <= 0:
		return fmt.Errorf("workload: batch count must be positive, got %d", w.NumBatches)
	}
	return nil
}

// String formats the workload in the paper's notation.
func (w Job) String() string {
	return fmt.Sprintf("s=%d n=%d bsz=%d bls=%d", w.PromptLen, w.GenLen, w.GPUBatch, w.BlockSize())
}

// PaperDefault is the motivation-study workload of §3.1: prompt 64,
// generation 128, GPU batch 64, block size 640.
func PaperDefault() Job {
	return Job{PromptLen: 64, GenLen: 128, GPUBatch: 64, NumBatches: 10}
}

// ParallelismStudy is the §4.1 workload: prompt 64, generation 8.
func ParallelismStudy() Job {
	return Job{PromptLen: 64, GenLen: 8, GPUBatch: 64, NumBatches: 10}
}

// MultiGPU is the §5.5 workload: prompt 256, generation 64.
func MultiGPU(gpus int) Job {
	// Weak scaling: batch doubles with GPU count, starting from 32.
	return Job{PromptLen: 256, GenLen: 64, GPUBatch: 32 * gpus, NumBatches: 4}
}

// GenLengthSweep returns the Table 3 generation-length axis.
func GenLengthSweep() []int { return []int{8, 16, 32, 64, 128} }

// Prompts produces deterministic synthetic token ID prompts for the
// functional runtime: batch rows of PromptLen tokens in [0, vocab).
func (w Job) Prompts(rng *rand.Rand, vocab int) [][]int {
	if vocab <= 0 {
		panic(fmt.Sprintf("workload: vocab must be positive, got %d", vocab))
	}
	out := make([][]int, w.BlockSize())
	for i := range out {
		row := make([]int, w.PromptLen)
		for j := range row {
			row[j] = rng.Intn(vocab)
		}
		out[i] = row
	}
	return out
}
