package xtrace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderSafe proves the compiled-in instrumentation contract: every
// method on a nil *Recorder is a no-op, never a panic.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record("x", LaneGPU, time.Now(), time.Millisecond, NoLabels)
	r.RecordAt("x", LaneGPU, 0, time.Millisecond, At(1, 2, 3))
	r.Event("x", LaneGPU, time.Now(), NoLabels)
	r.Reset()
	if got := r.Spans(); got != nil {
		t.Errorf("nil recorder Spans() = %v, want nil", got)
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Errorf("nil recorder Len/Dropped = %d/%d, want 0/0", r.Len(), r.Dropped())
	}
	if !r.Epoch().IsZero() {
		t.Errorf("nil recorder Epoch() = %v, want zero", r.Epoch())
	}
}

// TestRingWraparound fills a small ring past capacity and checks that the
// oldest spans are dropped, the drop counter is exact, and Spans returns
// the retained window oldest-first.
func TestRingWraparound(t *testing.T) {
	const capacity, total = 8, 21
	r := NewRecorder(capacity)
	for i := 0; i < total; i++ {
		r.RecordAt(fmt.Sprintf("s%d", i), LaneEngine, time.Duration(i), 1, At(i, -1, -1))
	}
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Dropped() != total-capacity {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), total-capacity)
	}
	spans := r.Spans()
	for i, s := range spans {
		want := fmt.Sprintf("s%d", total-capacity+i)
		if s.Name != want {
			t.Errorf("spans[%d] = %s, want %s (oldest retained first)", i, s.Name, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Errorf("after Reset: Len/Dropped = %d/%d, want 0/0", r.Len(), r.Dropped())
	}
}

// TestNegativeDurationClamped: a stepped system clock must not write
// negative durations into the trace.
func TestNegativeDurationClamped(t *testing.T) {
	r := NewRecorder(4)
	r.RecordAt("x", LaneGPU, 10, -5, NoLabels)
	if got := r.Spans()[0].Dur; got != 0 {
		t.Errorf("Dur = %v, want 0 (clamped)", got)
	}
}

// TestAggregate checks per-task stats, lane busy-union, wall, and coverage
// on a hand-built overlap pattern.
func TestAggregate(t *testing.T) {
	spans := []Span{
		{Name: TaskCompute, Lane: LaneGPU, Start: 0, Dur: 10},
		{Name: TaskCompute, Lane: LaneGPU, Start: 20, Dur: 6},
		{Name: TaskLoadWgt, Lane: LaneWeights, Start: 5, Dur: 10}, // overlaps compute[0..10]
		{Name: TaskDequantWgt, Lane: LaneWeights, Start: 6, Dur: 2},
	}
	sum := Aggregate(spans)
	if st := sum.Tasks[TaskCompute]; st.Count != 2 || st.Total != 16 || st.Min != 6 || st.Max != 10 {
		t.Errorf("compute stat = %+v, want count 2 total 16 min 6 max 10", st)
	}
	// dequant nests inside load_weight on the same lane: the lane union must
	// not double-count it.
	if got := sum.LaneBusy[LaneWeights]; got != 10 {
		t.Errorf("weights lane busy = %v, want 10 (nested span not double-counted)", got)
	}
	if sum.Wall != 26 {
		t.Errorf("Wall = %v, want 26", sum.Wall)
	}
	// Union of [0,10] ∪ [5,15] ∪ [20,26] = 15 + 6.
	if sum.Covered != 21 {
		t.Errorf("Covered = %v, want 21", sum.Covered)
	}
	if got := sum.Total(TaskLoadWgt); got != 10 {
		t.Errorf("Total(load_weight) = %v, want 10", got)
	}
	if got := sum.Total("absent"); got != 0 {
		t.Errorf("Total(absent) = %v, want 0", got)
	}
}

// TestArgmaxTask checks the empirical Eq. 2 argmax, including the
// earlier-name tie-break and zero-for-absent semantics.
func TestArgmaxTask(t *testing.T) {
	sum := Aggregate([]Span{
		{Name: TaskLoadWgt, Lane: LaneWeights, Start: 0, Dur: 7},
		{Name: TaskCompute, Lane: LaneGPU, Start: 0, Dur: 7},
		{Name: TaskLoadKV, Lane: LaneKVUp, Start: 0, Dur: 3},
	})
	if got := sum.ArgmaxTask(TaskCompute, TaskLoadWgt, TaskLoadKV); got != TaskCompute {
		t.Errorf("ArgmaxTask tie = %s, want %s (earlier name wins)", got, TaskCompute)
	}
	if got := sum.ArgmaxTask(TaskStoreKV, TaskLoadKV); got != TaskLoadKV {
		t.Errorf("ArgmaxTask = %s, want %s", got, TaskLoadKV)
	}
	if got := sum.ArgmaxTask(TaskStoreKV, TaskStoreAct); got != TaskStoreKV {
		t.Errorf("ArgmaxTask all-absent = %s, want first name", got)
	}
}

// TestAttribution checks that shared time splits equally and the totals sum
// to the union coverage of the named tasks.
func TestAttribution(t *testing.T) {
	spans := []Span{
		{Name: TaskCompute, Lane: LaneGPU, Start: 0, Dur: 10},
		{Name: TaskLoadWgt, Lane: LaneWeights, Start: 5, Dur: 10},
		{Name: "ignored", Lane: LaneCPU, Start: 0, Dur: 100},
	}
	attr := Attribution(spans, TaskCompute, TaskLoadWgt)
	// [0,5) compute alone, [5,10) shared 50/50, [10,15) load alone.
	if attr[TaskCompute] != 7 || attr[TaskLoadWgt] != 7 {
		t.Errorf("attribution = %v, want compute 7.5ns-ish... got compute %v load %v",
			attr, attr[TaskCompute], attr[TaskLoadWgt])
	}
	var total time.Duration
	for _, v := range attr {
		total += v
	}
	covered := coveredTime([]Span{spans[0], spans[1]})
	// Integer division of the shared interval may lose at most one tick per
	// boundary.
	if diff := covered - total; diff < 0 || diff > 2 {
		t.Errorf("attribution sum %v vs coverage %v (diff %v), want equal within rounding", total, covered, diff)
	}
	if _, ok := attr["ignored"]; ok {
		t.Error("unnamed task leaked into attribution")
	}
}

// TestDurations returns per-span samples in recording order.
func TestDurations(t *testing.T) {
	spans := []Span{
		{Name: TaskDecodeStep, Dur: 3},
		{Name: TaskCompute, Dur: 9},
		{Name: TaskDecodeStep, Dur: 5},
	}
	got := Durations(spans, TaskDecodeStep)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Durations = %v, want [3 5]", got)
	}
}

// TestConcurrentRecord hammers one recorder from many goroutines (run under
// -race): the ring must retain exactly capacity spans and account for every
// drop, and concurrent Spans/Len/Dropped readers must not race the writers.
func TestConcurrentRecord(t *testing.T) {
	const (
		capacity   = 64
		writers    = 8
		perWriter  = 500
		totalSpans = writers * perWriter
	)
	r := NewRecorder(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Spans()
				_ = r.Len()
				_ = r.Dropped()
			}
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				r.RecordAt(TaskCompute, LaneGPU, time.Duration(i), 1, At(i, w, -1))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	if r.Len() != capacity {
		t.Errorf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Dropped() != totalSpans-capacity {
		t.Errorf("Dropped = %d, want %d", r.Dropped(), totalSpans-capacity)
	}
}
