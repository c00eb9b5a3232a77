package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the graph a -> {b, c} -> d with the given weights.
func diamond(wa, wb, wc, wd float64) (*DAG, [4]int) {
	g := New()
	a := g.AddNode("a", wa)
	b := g.AddNode("b", wb)
	c := g.AddNode("c", wc)
	d := g.AddNode("d", wd)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g, [4]int{a, b, c, d}
}

func TestTopoSortDiamond(t *testing.T) {
	g, n := diamond(1, 1, 1, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	if pos[n[0]] > pos[n[1]] || pos[n[0]] > pos[n[2]] || pos[n[1]] > pos[n[3]] || pos[n[2]] > pos[n[3]] {
		t.Errorf("order %v violates dependencies", order)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort accepted a cyclic graph")
	}
	if _, err := g.Levels(); err == nil {
		t.Error("Levels accepted a cyclic graph")
	}
	if _, err := g.MaxConcurrency(); err == nil {
		t.Error("MaxConcurrency accepted a cyclic graph")
	}
	if _, _, err := g.CriticalPath(); err == nil {
		t.Error("CriticalPath accepted a cyclic graph")
	}
	if _, err := g.ListScheduleMakespan(2); err == nil {
		t.Error("ListScheduleMakespan accepted a cyclic graph")
	}
}

func TestLevelsAndMaxConcurrency(t *testing.T) {
	g, _ := diamond(1, 1, 1, 1)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if len(levels[1]) != 2 {
		t.Errorf("middle level width = %d, want 2", len(levels[1]))
	}
	mc, err := g.MaxConcurrency()
	if err != nil {
		t.Fatal(err)
	}
	if mc != 2 {
		t.Errorf("MaxConcurrency = %d, want 2", mc)
	}
}

func TestMaxConcurrencyIndependentNodes(t *testing.T) {
	g := New()
	for i := 0; i < 7; i++ {
		g.AddNode("n", 1)
	}
	mc, err := g.MaxConcurrency()
	if err != nil {
		t.Fatal(err)
	}
	if mc != 7 {
		t.Errorf("MaxConcurrency = %d, want 7 for edge-free graph", mc)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g, n := diamond(1, 5, 2, 1)
	length, path, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if length != 7 {
		t.Errorf("critical path length = %g, want 7", length)
	}
	want := []int{n[0], n[1], n[3]}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestListScheduleSerialEqualsTotalWeight(t *testing.T) {
	g, _ := diamond(1, 5, 2, 1)
	ms, err := g.ListScheduleMakespan(1)
	if err != nil {
		t.Fatal(err)
	}
	if ms != g.TotalWeight() {
		t.Errorf("serial makespan = %g, want total weight %g", ms, g.TotalWeight())
	}
}

func TestListScheduleTwoSlotsDiamond(t *testing.T) {
	g, _ := diamond(1, 5, 2, 1)
	ms, err := g.ListScheduleMakespan(2)
	if err != nil {
		t.Fatal(err)
	}
	// a(1) then b and c in parallel (5), then d(1) => 7.
	if ms != 7 {
		t.Errorf("2-slot makespan = %g, want 7", ms)
	}
}

func TestListScheduleRejectsZeroSlots(t *testing.T) {
	g, _ := diamond(1, 1, 1, 1)
	if _, err := g.ListScheduleMakespan(0); err == nil {
		t.Error("ListScheduleMakespan(0) did not fail")
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if len(g.Successors(a)) != 1 {
		t.Errorf("duplicate edge stored: successors = %v", g.Successors(a))
	}
	if len(g.Predecessors(b)) != 1 {
		t.Errorf("duplicate edge stored: predecessors = %v", g.Predecessors(b))
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := New()
	g.AddNode("a", 1)
	defer func() {
		if recover() == nil {
			t.Error("AddEdge with unknown node did not panic")
		}
	}()
	g.AddEdge(0, 3)
}

// randomDAG builds a random DAG where edges only go from lower to higher IDs,
// guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int) *DAG {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("n", 0.1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestPropertyMakespanBounds(t *testing.T) {
	// For any DAG and slot count: critical path <= makespan <= total weight,
	// and makespan is non-increasing in the slot count.
	f := func(seed int64, nRaw uint8, slotsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%20)
		slots := 1 + int(slotsRaw%8)
		g := randomDAG(rng, n)
		cp, _, err := g.CriticalPath()
		if err != nil {
			return false
		}
		ms, err := g.ListScheduleMakespan(slots)
		if err != nil {
			return false
		}
		const eps = 1e-9
		// Note: makespan is NOT necessarily monotone in the slot count
		// (Graham's scheduling anomalies), so we only assert the two bounds.
		return ms >= cp-eps && ms <= g.TotalWeight()+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTopoOrderValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%30)
		g := randomDAG(rng, n)
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for id := 0; id < n; id++ {
			for _, s := range g.Successors(id) {
				if pos[id] >= pos[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnboundedSlotsHitCriticalPath(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%15)
		g := randomDAG(rng, n)
		cp, _, err := g.CriticalPath()
		if err != nil {
			return false
		}
		ms, err := g.ListScheduleMakespan(n) // one slot per node
		if err != nil {
			return false
		}
		return math.Abs(ms-cp) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
