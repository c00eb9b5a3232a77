package parallelism

import (
	"testing"

	"repro/internal/model"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

func TestMeasureGraphProfileRecords(t *testing.T) {
	p := NewProfile(Xeon6330())
	pool := threadpool.MustNew(4)
	og, err := BuildAttentionGraph(model.OPT30B, workload.ParallelismStudy(), 68, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := MeasureGraphProfile(p, pool, og, []int{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Every operator now has a recorded (not modeled) time at the measured
	// widths, and the times are positive.
	for _, op := range og.Ops {
		if got := p.OpTime(op, 1); got <= 0 {
			t.Fatalf("op %s: non-positive measured time %g", op.Name, got)
		}
	}
	// Algorithm 3 runs on measured profiles too.
	ctrl, err := NewController(Xeon6330(), 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Profile = p
	if _, err := ctrl.Optimize(og, testTransfers()); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureValidation(t *testing.T) {
	p := NewProfile(Xeon6330())
	if err := MeasureBmmProfile(p, nil, []string{"x"}, 8, 8, []int{1}, 1); err == nil {
		t.Error("nil pool accepted")
	}
	pool := threadpool.MustNew(2)
	if err := MeasureBmmProfile(p, pool, []string{"x"}, 0, 8, []int{1}, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if err := MeasureBmmProfile(p, pool, []string{"x"}, 8, 8, []int{0}, 1); err == nil {
		t.Error("zero width accepted")
	}
}
