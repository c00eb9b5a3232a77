package cachesim

import (
	"testing"
	"testing/quick"
)

// xeonLLC approximates one socket's last-level cache (42 MB, 12-way) with
// the nearest power-of-two set count: 48 MiB, 12-way, 64 B lines.
func xeonLLC(t *testing.T) *Cache {
	t.Helper()
	c, err := New(48<<20, 12, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		size  int64
		ways  int
		line  int64
		valid bool
	}{
		{48 << 20, 12, 64, true},
		{1 << 20, 16, 64, true},
		{0, 12, 64, false},
		{48 << 20, 0, 64, false},
		{48 << 20, 12, 0, false},
		{48 << 20, 12, 63, false},   // line not power of two
		{100, 12, 64, false},        // size not divisible
		{3 * 64 * 12, 12, 64, true}, // sets=3: modulo-indexed
		{42 << 20, 12, 64, true},    // 42 MB/12-way: non-power-of-two sets
		{33 << 20, 12, 64, true},    // 33 MB/12-way sliced LLC: 45056 sets
	}
	for _, tc := range cases {
		_, err := New(tc.size, tc.ways, tc.line)
		if (err == nil) != tc.valid {
			t.Errorf("New(%d, %d, %d) err=%v, want valid=%v", tc.size, tc.ways, tc.line, err, tc.valid)
		}
	}
}

// TestNonPowerOfTwoSets pins modulo set indexing on a non-power-of-two
// geometry: 2-way with 3 sets, so lines 0, 3, 6 share set 0 while lines 1
// and 2 land in their own sets.
func TestNonPowerOfTwoSets(t *testing.T) {
	c, err := New(3*2*64, 2, 64) // 3 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) uint64 { return uint64(i) * 64 }
	c.Access(line(0), false)
	c.Access(line(3), false)
	c.Access(line(0), false) // line 0 now MRU in set 0
	c.Access(line(6), false) // evicts line 3 (LRU of set 0)
	if !c.Access(line(0), false) {
		t.Error("line 0 evicted despite being MRU in its modulo-indexed set")
	}
	if c.Access(line(3), false) {
		t.Error("line 3 hit despite being the LRU victim")
	}
	// Other residues are independent sets: untouched lines are cold, and a
	// single access warms them without disturbing set 0.
	if c.Access(line(1), false) {
		t.Error("cold line in residue-1 set hit")
	}
	if !c.Access(line(1), false) {
		t.Error("warm line in residue-1 set missed")
	}
}

// TestRealisticSlicedLLC exercises a sliced server LLC's geometry:
// 33 MB / 12-way / 64 B lines = 45056 sets (2^12 x 11). Thirteen
// same-set lines exceed the associativity and evict the LRU.
func TestRealisticSlicedLLC(t *testing.T) {
	c, err := New(33<<20, 12, 64)
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(45056 * 64)
	for i := 0; i < 13; i++ {
		c.Access(uint64(i)*setStride, false)
	}
	if c.Access(0, false) {
		t.Error("oldest line survived 13 fills of a 12-way set")
	}
	if st := c.Stats(); st.LoadMisses != 14 {
		t.Errorf("load misses = %d, want 14 (every access cold or evicted)", st.LoadMisses)
	}
}

func TestAccessHitAfterMiss(t *testing.T) {
	c, err := New(1<<14, 2, 64) // 16 KB, 2-way
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("warm access missed")
	}
	st := c.Stats()
	if st.Loads != 2 || st.LoadMisses != 1 {
		t.Errorf("stats = %+v, want 2 loads / 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: three lines in one set evict the least recently used.
	c, err := New(2*64*4, 2, 64) // 4 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(4 * 64)
	a, b, d := uint64(0), setStride, 2*setStride // same set (set 0)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a now MRU
	c.Access(d, false) // evicts b
	if !c.Access(a, false) {
		t.Error("a was evicted despite being MRU")
	}
	if c.Access(b, false) {
		t.Error("b hit despite being the LRU victim")
	}
}

func TestWriteCountsSeparately(t *testing.T) {
	c := xeonLLC(t)
	c.Access(0, true)
	c.Access(0, true)
	st := c.Stats()
	if st.Stores != 2 || st.StoreMisses != 1 || st.Loads != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.StoreMissRate() != 0.5 {
		t.Errorf("store miss rate = %g, want 0.5", st.StoreMissRate())
	}
}

func TestResetClearsCountersKeepsContents(t *testing.T) {
	c := xeonLLC(t)
	c.Access(0x40, false)
	c.Reset()
	if st := c.Stats(); st.Loads != 0 || st.LoadMisses != 0 {
		t.Errorf("Reset left counters: %+v", st)
	}
	if !c.Access(0x40, false) {
		t.Error("Reset dropped cache contents")
	}
}

// TestTable5Mechanism: default threading's many fine streams must miss far
// more often than the controlled configuration on the same working set.
func TestTable5Mechanism(t *testing.T) {
	ws := int64(192 << 20) // attention working set slice per layer step

	def, err := ReplayAttention(xeonLLC(t), ws, DefaultThreadingStreams())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := ReplayAttention(xeonLLC(t), ws, ControlledThreadingStreams())
	if err != nil {
		t.Fatal(err)
	}

	// Loads: the controlled configuration's reuse passes hit; the default
	// configuration's thrash. Table 5 reports ~40% reductions.
	if def.LoadMissRate() <= ctl.LoadMissRate() {
		t.Errorf("default load miss rate %.3f not above controlled %.3f", def.LoadMissRate(), ctl.LoadMissRate())
	}
	red := 1 - ctl.LoadMissRate()/def.LoadMissRate()
	if red < 0.25 || red > 0.75 {
		t.Errorf("load miss-rate reduction = %.0f%%, want ~40%%", red*100)
	}
	// Store misses exceed load misses under the unfused path (Table 5: 19B
	// stores vs 10B loads) — intermediates are written as distinct lines.
	if def.StoreMisses <= def.LoadMisses {
		t.Errorf("store misses (%d) should exceed load misses (%d)", def.StoreMisses, def.LoadMisses)
	}
	// Total misses drop under parallelism control.
	if ctl.LoadMisses+ctl.StoreMisses >= def.LoadMisses+def.StoreMisses {
		t.Errorf("controlled total misses (%d) not below default (%d)",
			ctl.LoadMisses+ctl.StoreMisses, def.LoadMisses+def.StoreMisses)
	}
}

func TestReplayValidation(t *testing.T) {
	c := xeonLLC(t)
	if _, err := ReplayAttention(c, 0, DefaultThreadingStreams()); err == nil {
		t.Error("zero working set accepted")
	}
	bad := DefaultThreadingStreams()
	bad.Streams = 0
	if _, err := ReplayAttention(c, 1<<20, bad); err == nil {
		t.Error("zero streams accepted")
	}
	bad = DefaultThreadingStreams()
	bad.ReusePasses = 0
	if _, err := ReplayAttention(c, 1<<20, bad); err == nil {
		t.Error("zero passes accepted")
	}
	bad = DefaultThreadingStreams()
	bad.StoreRatio = -1
	if _, err := ReplayAttention(c, 1<<20, bad); err == nil {
		t.Error("negative store ratio accepted")
	}
}

// Property: misses never exceed accesses, and a second identical replay on a
// warm cache never misses more than the cold one.
func TestPropertyMissBounds(t *testing.T) {
	f := func(streamsRaw, passesRaw uint8) bool {
		streams := 1 + int(streamsRaw%30)
		passes := 1 + int(passesRaw%3)
		cfg := StreamConfig{Streams: streams, ChunkBytes: 8 << 10, ReusePasses: passes, StoreRatio: 0.5}
		c, err := New(1<<20, 8, 64)
		if err != nil {
			return false
		}
		st, err := ReplayAttention(c, 8<<20, cfg)
		if err != nil {
			return false
		}
		if st.LoadMisses > st.Loads || st.StoreMisses > st.Stores {
			return false
		}
		warm, err := ReplayAttention(c, 8<<20, cfg)
		if err != nil {
			return false
		}
		return warm.LoadMisses <= st.LoadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
