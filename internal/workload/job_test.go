package workload

import (
	"math/rand"
	"testing"
)

func TestPaperDefaultMatchesSection31(t *testing.T) {
	w := PaperDefault()
	if w.PromptLen != 64 || w.GenLen != 128 || w.GPUBatch != 64 {
		t.Errorf("PaperDefault = %+v", w)
	}
	if w.BlockSize() != 640 {
		t.Errorf("BlockSize = %d, want 640", w.BlockSize())
	}
	if w.TotalTokens() != 640*128 {
		t.Errorf("TotalTokens = %d, want %d", w.TotalTokens(), 640*128)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadWorkloads(t *testing.T) {
	bad := []Job{
		{PromptLen: 0, GenLen: 1, GPUBatch: 1, NumBatches: 1},
		{PromptLen: 1, GenLen: 0, GPUBatch: 1, NumBatches: 1},
		{PromptLen: 1, GenLen: 1, GPUBatch: 0, NumBatches: 1},
		{PromptLen: 1, GenLen: 1, GPUBatch: 1, NumBatches: 0},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid workload", w)
		}
	}
}

func TestGenLengthSweep(t *testing.T) {
	sweep := GenLengthSweep()
	want := []int{8, 16, 32, 64, 128}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", sweep, want)
		}
	}
}

func TestMultiGPUWeakScaling(t *testing.T) {
	w1, w4 := MultiGPU(1), MultiGPU(4)
	if w4.GPUBatch != 4*w1.GPUBatch {
		t.Errorf("weak scaling batch: 1 GPU %d, 4 GPUs %d", w1.GPUBatch, w4.GPUBatch)
	}
	if w1.PromptLen != 256 || w1.GenLen != 64 {
		t.Errorf("MultiGPU workload = %+v, want s=256 n=64", w1)
	}
}

func TestPromptsShapeAndRange(t *testing.T) {
	w := Job{PromptLen: 5, GenLen: 2, GPUBatch: 3, NumBatches: 2}
	prompts := w.Prompts(rand.New(rand.NewSource(1)), 11)
	if len(prompts) != 6 {
		t.Fatalf("prompt rows = %d, want 6", len(prompts))
	}
	for _, row := range prompts {
		if len(row) != 5 {
			t.Fatalf("prompt length = %d, want 5", len(row))
		}
		for _, tok := range row {
			if tok < 0 || tok >= 11 {
				t.Fatalf("token %d out of range", tok)
			}
		}
	}
}

func TestPromptsDeterministic(t *testing.T) {
	w := PaperDefault()
	a := w.Prompts(rand.New(rand.NewSource(9)), 100)
	b := w.Prompts(rand.New(rand.NewSource(9)), 100)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("Prompts not deterministic for equal seeds")
			}
		}
	}
}
