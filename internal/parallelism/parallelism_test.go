package parallelism

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

func testGraph(t *testing.T) *OpGraph {
	t.Helper()
	og, err := BuildAttentionGraph(model.OPT30B, workload.ParallelismStudy(), 68, DefaultHeadGroups)
	if err != nil {
		t.Fatal(err)
	}
	return og
}

func testTransfers() []TransferTask {
	// OPT-30B per-layer step volumes (order of magnitude from Table 1).
	return []TransferTask{
		{Name: "load_weight", Bytes: 550e6},
		{Name: "store_cache", Bytes: 18e6},
		{Name: "load_cache", Bytes: 0},
		{Name: "load_activation", Bytes: 9e6},
		{Name: "store_activation", Bytes: 9e6},
	}
}

func testController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(Xeon6330(), 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMachineModelFromCPU(t *testing.T) {
	m := Xeon6330()
	if m.Cores != 56 || m.Threads != 112 || m.Sockets != 2 {
		t.Errorf("machine geometry %d/%d/%d", m.Cores, m.Threads, m.Sockets)
	}
	if m.CoresPerSocket() != 28 {
		t.Errorf("CoresPerSocket = %d, want 28", m.CoresPerSocket())
	}
	if _, err := NewMachineModel(hw.CPU{}); err == nil {
		t.Error("NewMachineModel accepted empty CPU")
	}
}

func TestOpTimeSaturatesAfterEightThreads(t *testing.T) {
	m := Xeon6330()
	op := Op{Name: "bmm", Flops: 1e8, Bytes: 1e9} // heavily memory-bound
	t1 := m.OpTime(op, 1)
	t8 := m.OpTime(op, 8)
	t16 := m.OpTime(op, 16)
	if t8 >= t1 {
		t.Errorf("no speedup from 1 to 8 threads: %g >= %g", t8, t1)
	}
	if ratio := t1 / t8; ratio < 4 {
		t.Errorf("1->8 thread speedup %.1fx, want >= 4x", ratio)
	}
	// §4.1: stable beyond 8 — within 15% of the 8-thread time.
	if t16 > t8*1.05 || t16 < t8*0.80 {
		t.Errorf("memory-bound op should be ~flat past 8 threads: t8=%g t16=%g", t8, t16)
	}
}

func TestAttentionGraphStructure(t *testing.T) {
	og := testGraph(t)
	if og.MaxConcurrency() != DefaultHeadGroups {
		t.Errorf("max concurrency = %d, want %d head groups", og.MaxConcurrency(), DefaultHeadGroups)
	}
	// 3 ops per group plus concat.
	if want := 3*DefaultHeadGroups + 1; len(og.Ops) != want {
		t.Errorf("ops = %d, want %d", len(og.Ops), want)
	}
	if og.WorkingSetBytes() <= 0 {
		t.Error("non-positive working set")
	}
}

func TestAttentionGraphErrors(t *testing.T) {
	if _, err := BuildAttentionGraph(model.OPT30B, workload.ParallelismStudy(), 0, 12); err == nil {
		t.Error("zero sequence accepted")
	}
	if _, err := BuildAttentionGraph(model.OPT30B, workload.ParallelismStudy(), 68, 0); err == nil {
		t.Error("zero head groups accepted")
	}
	if _, err := BuildAttentionGraph(model.OPT30B, workload.ParallelismStudy(), 68, model.OPT30B.Heads+1); err == nil {
		t.Error("too many head groups accepted")
	}
}

func TestProfileRecordAndInterpolate(t *testing.T) {
	p := NewProfile(Xeon6330())
	op := Op{Name: "measured", Flops: 1, Bytes: 1}
	if err := p.Record("measured", 2, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := p.Record("measured", 8, 0.05); err != nil {
		t.Fatal(err)
	}
	if got := p.OpTime(op, 2); got != 0.2 {
		t.Errorf("exact lookup = %g, want 0.2", got)
	}
	if got := p.OpTime(op, 5); got <= 0.05 || got >= 0.2 {
		t.Errorf("interpolated value %g outside (0.05, 0.2)", got)
	}
	if got := p.OpTime(op, 1); got != 0.2 {
		t.Errorf("below-range clamp = %g, want 0.2", got)
	}
	if got := p.OpTime(op, 64); got != 0.05 {
		t.Errorf("above-range clamp = %g, want 0.05", got)
	}
	if err := p.Record("x", 0, 1); err == nil {
		t.Error("Record accepted width 0")
	}
	if err := p.Record("x", 1, 0); err == nil {
		t.Error("Record accepted non-positive time")
	}
}

func TestFigure5IntraOpShape(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	widths := []int{1, 2, 4, 8, 16, 32, 56}
	pts, err := c.SweepIntraOp(og, testTransfers(), widths)
	if err != nil {
		t.Fatal(err)
	}
	byWidth := map[int]float64{}
	for _, p := range pts {
		byWidth[p.Parallelism] = p.Throughput
	}
	// Rising region: 1 -> 8 must improve substantially.
	if byWidth[8] < byWidth[1]*2 {
		t.Errorf("intra-op 8 (%.3g) should be >= 2x intra-op 1 (%.3g)", byWidth[8], byWidth[1])
	}
	// Stable region: 16..56 within ±25% of the 8-thread value.
	for _, w := range []int{16, 32, 56} {
		r := byWidth[w] / byWidth[8]
		if r < 0.75 || r > 1.25 {
			t.Errorf("intra-op %d throughput ratio vs 8 = %.2f, want ~stable", w, r)
		}
	}
}

func TestFigure5InterOpShape(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	inters := []int{1, 2, 4, 8, 12, 16, 32, 64, 112}
	pts, err := c.SweepInterOp(og, testTransfers(), inters)
	if err != nil {
		t.Fatal(err)
	}
	byK := map[int]float64{}
	var bestK int
	var bestTput float64
	for _, p := range pts {
		byK[p.Parallelism] = p.Throughput
		if p.Throughput > bestTput {
			bestTput, bestK = p.Throughput, p.Parallelism
		}
	}
	// §4.1: best at 12.
	if bestK != 12 {
		t.Errorf("best inter-op = %d, want 12", bestK)
	}
	// Declines beyond the peak.
	if byK[112] >= byK[12] {
		t.Errorf("inter-op 112 (%.3g) should be below the peak at 12 (%.3g)", byK[112], byK[12])
	}
	// Rises toward the peak.
	if !(byK[1] < byK[4] && byK[4] < byK[12]) {
		t.Errorf("inter-op throughput not rising to the peak: %v", byK)
	}
}

func TestOptimizeMatchesPaperTuning(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	s, err := c.Optimize(og, testTransfers())
	if err != nil {
		t.Fatal(err)
	}
	// §5.4: LM-Offload uses 12 inter-op and 16 intra-op threads. Accept the
	// neighborhood: inter-op = head groups exactly, intra-op in [6, 24].
	if s.InterOpCompute != DefaultHeadGroups {
		t.Errorf("inter-op compute = %d, want %d", s.InterOpCompute, DefaultHeadGroups)
	}
	if s.InterOp != DefaultHeadGroups+reservedTransferThreads {
		t.Errorf("total inter-op = %d, want compute+5", s.InterOp)
	}
	if s.IntraOp < 6 || s.IntraOp > 24 {
		t.Errorf("intra-op = %d, want ~16", s.IntraOp)
	}
	// Thread budget respected.
	total := s.InterOpCompute * s.IntraOp
	for _, n := range s.TransferThreads {
		total += n
	}
	if total > c.Machine.Threads {
		t.Errorf("setting uses %d threads, machine has %d", total, c.Machine.Threads)
	}
	// Proportionality: the biggest transfer gets the most threads.
	if s.TransferThreads["load_weight"] < s.TransferThreads["store_cache"] {
		t.Errorf("load_weight (%d threads) should get >= store_cache (%d)",
			s.TransferThreads["load_weight"], s.TransferThreads["store_cache"])
	}
	for name, n := range s.TransferThreads {
		if n < 1 {
			t.Errorf("task %s got %d threads, want >= 1", name, n)
		}
	}
}

func TestFigure8Improvement(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	def, err := c.DefaultSetting(og, testTransfers())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := c.Optimize(og, testTransfers())
	if err != nil {
		t.Fatal(err)
	}
	imp := Compare(def, tuned)
	// §5.4: 32% compute-task reduction. Accept 15–60%.
	if imp.ComputeReduction < 0.15 || imp.ComputeReduction > 0.60 {
		t.Errorf("compute reduction = %.0f%%, want ~32%%", imp.ComputeReduction*100)
	}
	if imp.StepReduction < 0 {
		t.Errorf("tuned step time worse than default: %+v", imp)
	}
}

func TestTable5LLCMisses(t *testing.T) {
	m := Xeon6330()
	og := testGraph(t)
	ws := og.WorkingSetBytes()
	// Default: 112 inter-op pool threads, 56-wide ops, 12 active operators.
	defLoads, defStores := m.LLCMisses(112, 12, 56, ws)
	// Tuned: 12 inter-op, 8-wide ops.
	tunedLoads, tunedStores := m.LLCMisses(12, 12, 8, ws)
	if tunedLoads >= defLoads || tunedStores >= defStores {
		t.Errorf("parallelism control should reduce misses: loads %d->%d stores %d->%d",
			defLoads, tunedLoads, defStores, tunedStores)
	}
	// Table 5 reports ~38-40% reductions; accept 20-60%.
	lr := 1 - float64(tunedLoads)/float64(defLoads)
	if lr < 0.10 || lr > 0.70 {
		t.Errorf("load miss reduction = %.0f%%, want ~38%%", lr*100)
	}
	// Table 5: store misses exceed load misses (19B vs 10B).
	if defStores <= defLoads {
		t.Errorf("store misses (%d) should exceed load misses (%d)", defStores, defLoads)
	}
}

func TestBundleMergesSmallOps(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	bundled := og.Bundle(c.Profile, 8, 1.0) // huge threshold: everything chains
	if len(bundled.Ops) >= len(og.Ops) {
		t.Errorf("bundling did not reduce op count: %d -> %d", len(og.Ops), len(bundled.Ops))
	}
	// Total work is conserved.
	var before, after float64
	for _, op := range og.Ops {
		before += op.Flops + op.Bytes
	}
	for _, op := range bundled.Ops {
		after += op.Flops + op.Bytes
	}
	if before != after {
		t.Errorf("bundling lost work: %g -> %g", before, after)
	}
	// Concurrency is preserved (chains merge within groups, not across).
	if bundled.MaxConcurrency() != og.MaxConcurrency() {
		t.Errorf("bundling changed concurrency: %d -> %d", og.MaxConcurrency(), bundled.MaxConcurrency())
	}
	// Zero threshold leaves the graph unchanged.
	same := og.Bundle(c.Profile, 8, 0)
	if len(same.Ops) != len(og.Ops) {
		t.Errorf("zero-threshold bundle changed the graph: %d -> %d ops", len(og.Ops), len(same.Ops))
	}
}

func TestCPUEfficiencyBounds(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	def, _ := c.DefaultSetting(og, testTransfers())
	tuned, _ := c.Optimize(og, testTransfers())
	ed := c.CPUEfficiency(og, def)
	et := c.CPUEfficiency(og, tuned)
	if ed <= 0 || ed > 1 || et <= 0 || et > 1 {
		t.Fatalf("efficiencies out of range: default %g tuned %g", ed, et)
	}
	if et <= ed {
		t.Errorf("tuned efficiency (%.2f) should exceed default (%.2f)", et, ed)
	}
}

func TestOptimizeErrors(t *testing.T) {
	c := testController(t)
	og := testGraph(t)
	if _, err := c.Optimize(og, nil); err == nil {
		t.Error("Optimize accepted empty transfers")
	}
	if _, err := NewController(Xeon6330(), 0); err == nil {
		t.Error("NewController accepted zero bandwidth")
	}
	if _, err := c.SweepIntraOp(og, testTransfers(), []int{0}); err == nil {
		t.Error("SweepIntraOp accepted width 0")
	}
	if _, err := c.SweepInterOp(og, testTransfers(), []int{0}); err == nil {
		t.Error("SweepInterOp accepted inter-op 0")
	}
}

func TestAssignTransferThreadsExhaustsBudget(t *testing.T) {
	transfers := testTransfers()
	for _, free := range []int{5, 9, 20, 51} {
		got := assignTransferThreads(transfers, free)
		total := 0
		for _, n := range got {
			if n < 1 {
				t.Fatalf("free=%d: task got %d threads", free, n)
			}
			total += n
		}
		if total != free {
			t.Errorf("free=%d: assigned %d threads", free, total)
		}
	}
}
