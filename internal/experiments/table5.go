package experiments

import (
	"repro/internal/cachesim"
	"repro/internal/parallelism"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table5Result reproduces Table 5: CPU last-level-cache misses during
// OPT-30B inference (n=8) under default threading versus parallelism
// control. Absolute counts come from the calibrated machine model summed
// over the whole run; the set-associative cache simulator demonstrates the
// thrashing mechanism with per-access miss rates.
type Table5Result struct {
	// Whole-run miss counts (machine model).
	DefaultLoads, DefaultStores int64
	TunedLoads, TunedStores     int64
	// Paper values (billions).
	PaperDefaultLoads, PaperDefaultStores float64
	PaperTunedLoads, PaperTunedStores     float64
	// Cache-simulator miss rates for the two stream shapes.
	SimDefault, SimControlled cachesim.Stats
}

// Table5 computes both views. Smoke replays an eighth of the working-set
// slice through an eighth of the LLC.
func Table5(s Scale) (*Table5Result, error) {
	mod, _ := motivationWorkload()
	work := workload.ParallelismStudy()
	m := parallelism.Xeon6330()
	seq := work.PromptLen + work.GenLen/2
	og, err := parallelism.BuildAttentionGraph(mod, work, seq, parallelism.DefaultHeadGroups)
	if err != nil {
		return nil, err
	}
	ws := og.WorkingSetBytes()
	// Whole run: every decode step touches the working set once per layer.
	steps := int64(mod.Layers) * int64(work.GenLen-1)

	dl, ds := m.LLCMisses(112, parallelism.DefaultHeadGroups, 56, ws)
	tl, ts := m.LLCMisses(12, parallelism.DefaultHeadGroups, 8, ws)
	out := &Table5Result{
		DefaultLoads: dl * steps, DefaultStores: ds * steps,
		TunedLoads: tl * steps, TunedStores: ts * steps,
		PaperDefaultLoads: 10e9, PaperDefaultStores: 19e9,
		PaperTunedLoads: 6e9, PaperTunedStores: 12e9,
	}

	// Mechanism demonstration on the real cache model: one socket's LLC,
	// a slice of the working set.
	llcBytes := int64(48 << 20)
	// Replay a representative slice of the working set; the rates are what
	// matter, and the full set would take minutes to stream.
	slice := ws / 8
	if slice > 192<<20 {
		slice = 192 << 20
	}
	if slice < 96<<20 {
		slice = 96 << 20
	}
	if s == Smoke {
		llcBytes, slice = llcBytes/8, slice/8
	}
	llc, err := cachesim.New(llcBytes, 12, 64)
	if err != nil {
		return nil, err
	}
	if out.SimDefault, err = cachesim.ReplayAttention(llc, slice, cachesim.DefaultThreadingStreams()); err != nil {
		return nil, err
	}
	llc2, err := cachesim.New(llcBytes, 12, 64)
	if err != nil {
		return nil, err
	}
	if out.SimControlled, err = cachesim.ReplayAttention(llc2, slice, cachesim.ControlledThreadingStreams()); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadReductionPct returns the modeled load-miss reduction (paper: 40%).
func (r *Table5Result) LoadReductionPct() float64 {
	if r.DefaultLoads == 0 {
		return 0
	}
	return (1 - float64(r.TunedLoads)/float64(r.DefaultLoads)) * 100
}

// StoreReductionPct returns the modeled store-miss reduction (paper: 37%).
func (r *Table5Result) StoreReductionPct() float64 {
	if r.DefaultStores == 0 {
		return 0
	}
	return (1 - float64(r.TunedStores)/float64(r.DefaultStores)) * 100
}

// Report renders the modeled counts as the table and the cache simulation
// as a note.
func (r *Table5Result) Report() *Report {
	t := stats.NewTable("parallelism control", "load misses", "store misses", "paper loads", "paper stores")
	t.AddRowf("disable (default)\t%.1fB\t%.1fB\t%.0fB\t%.0fB",
		float64(r.DefaultLoads)/1e9, float64(r.DefaultStores)/1e9, r.PaperDefaultLoads/1e9, r.PaperDefaultStores/1e9)
	t.AddRowf("enable\t%.1fB\t%.1fB\t%.0fB\t%.0fB",
		float64(r.TunedLoads)/1e9, float64(r.TunedStores)/1e9, r.PaperTunedLoads/1e9, r.PaperTunedStores/1e9)
	rep := &Report{Title: "Table 5: CPU last-level cache misses (OPT-30B, n=8)", Table: t}
	rep.note("load reduction %.0f%%, store reduction %.0f%% (paper: ~40%%/37%%)",
		r.LoadReductionPct(), r.StoreReductionPct())
	t2 := stats.NewTable("stream shape", "load miss rate", "store miss rate")
	t2.AddRowf("default threading\t%.3f\t%.3f", r.SimDefault.LoadMissRate(), r.SimDefault.StoreMissRate())
	t2.AddRowf("parallelism control\t%.3f\t%.3f", r.SimControlled.LoadMissRate(), r.SimControlled.StoreMissRate())
	rep.note("mechanism (set-associative LLC simulation, per-socket):\n%s", t2)
	return rep
}
