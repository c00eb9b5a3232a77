package parallelism

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// Op is one node of the compute task's operator dependency graph (Fig. 6),
// characterized by the work it performs — the inputs to the offline
// profiling model.
type Op struct {
	Name string
	// Flops is the floating-point work of the operator.
	Flops float64
	// Bytes is the memory traffic of the operator (reads + writes).
	Bytes float64
}

// OpGraph is the compute task's dependency structure plus the operator
// descriptions, ready for Algorithm 3.
type OpGraph struct {
	Ops []Op
	// DAG node IDs correspond to Ops indices.
	DAG *graph.DAG
	// HeadGroups is the width of the per-head-group fan-out.
	HeadGroups int
}

// DefaultHeadGroups is how many independent head-group operators the
// CPU-side attention exposes on the evaluation machine; it sets the graph's
// maximum concurrency, and therefore Algorithm 3's inter-op parallelism to
// the paper's tuned value of 12 (§5.4).
const DefaultHeadGroups = 12

// cpuAttnPasses is the effective number of memory passes PyTorch's unfused
// CPU attention makes over its operands, calibrated so the compute task's
// absolute time matches the §5.4 measurements.
const cpuAttnPasses = 20

// BuildAttentionGraph constructs the operator dependency graph of the
// CPU-offloaded attention computation for one transformer layer over one GPU
// batch (Fig. 6). FlexGen's CPU attention covers only the cache-resident
// part of the layer — the Q·Kᵀ batched matmul, the softmax, and the
// scores·V matmul; the Q/K/V/output projections and the MLP stay on the GPU
// (§2.2). PyTorch schedules each head group as an independent operator
// chain:
//
//	per head group g: QKᵀ(g) → scale+softmax(g) → scores·V(g)
//	all groups → concat
//
// Every operator is memory-bandwidth-bound (the per-head reduction dk is
// small), which is why intra-op scaling saturates around eight threads
// (Fig. 5, §4.1).
func BuildAttentionGraph(cfg model.Config, work workload.Job, seqLen, headGroups int) (*OpGraph, error) {
	if seqLen <= 0 {
		return nil, fmt.Errorf("parallelism: sequence length must be positive, got %d", seqLen)
	}
	if headGroups <= 0 || headGroups > cfg.Heads {
		return nil, fmt.Errorf("parallelism: head groups %d outside [1, %d]", headGroups, cfg.Heads)
	}
	// The compute task covers the whole zig-zag block: every GPU batch's
	// attention runs on the CPU within one layer step (Algorithm 1's k
	// loop).
	b := float64(work.BlockSize())
	s := float64(seqLen)
	// The CPU-side attention works on float32 copies, and PyTorch's unfused
	// path makes many passes over the data (fp16->fp32 conversion, score
	// materialization, masking, softmax temporaries); cpuAttnPasses folds
	// that amplification into the operator byte counts.
	const bytesPer = 4 * cpuAttnPasses

	g := graph.New()
	og := &OpGraph{DAG: g, HeadGroups: headGroups}
	add := func(op Op) int {
		og.Ops = append(og.Ops, op)
		return g.AddNode(op.Name, 0) // weights assigned later by the profiler
	}

	groupEnds := make([]int, 0, headGroups)
	perGroupHeads := float64(cfg.Heads) / float64(headGroups)
	dk := float64(cfg.HeadDim())
	for gi := 0; gi < headGroups; gi++ {
		// Q·Kᵀ: for each sequence and head, a (1 × dk) · (dk × s) product.
		qk := add(Op{
			Name:  fmt.Sprintf("qk_bmm_%d", gi),
			Flops: 2 * b * perGroupHeads * s * dk,
			Bytes: b * perGroupHeads * (s*dk + dk + s) * bytesPer,
		})
		sm := add(Op{
			Name:  fmt.Sprintf("softmax_%d", gi),
			Flops: 5 * b * perGroupHeads * s,
			Bytes: 2 * b * perGroupHeads * s * bytesPer,
		})
		g.AddEdge(qk, sm)
		av := add(Op{
			Name:  fmt.Sprintf("av_bmm_%d", gi),
			Flops: 2 * b * perGroupHeads * s * dk,
			Bytes: b * perGroupHeads * (s*dk + s + dk) * bytesPer,
		})
		g.AddEdge(sm, av)
		groupEnds = append(groupEnds, av)
	}

	concat := add(Op{
		Name:  "concat",
		Flops: 0,
		Bytes: 2 * b * float64(cfg.Hidden) * bytesPer,
	})
	for _, e := range groupEnds {
		g.AddEdge(e, concat)
	}
	return og, nil
}

// WorkingSetBytes estimates the aggregate data the graph touches — the LLC
// pressure the contention model and the Table 5 miss counts key off.
func (og *OpGraph) WorkingSetBytes() int64 {
	var total float64
	for _, op := range og.Ops {
		total += op.Bytes
	}
	return int64(total)
}

// MaxConcurrency returns the graph's maximum concurrency level (Kahn-based
// level analysis — Algorithm 3 line 4).
func (og *OpGraph) MaxConcurrency() int {
	mc, err := og.DAG.MaxConcurrency()
	if err != nil {
		// The builder only produces DAGs; a cycle is a programming error.
		panic(err)
	}
	return mc
}

// ApplyProfile assigns each node its profiled execution time at the given
// intra-op width so the DAG can be schedule-analyzed.
func (og *OpGraph) ApplyProfile(p *Profile, intraOp int) {
	for i, op := range og.Ops {
		og.DAG.SetWeight(i, p.OpTime(op, intraOp))
	}
}

// Bundle merges operators whose profiled time at the given width falls below
// threshold into their single predecessor where dependencies allow — the
// paper's small-operator bundling that avoids scheduling overhead and cache
// thrashing. It returns a new graph; the receiver is unchanged.
func (og *OpGraph) Bundle(p *Profile, intraOp int, threshold float64) *OpGraph {
	n := len(og.Ops)
	// Union-find over ops: a small op with exactly one predecessor merges
	// into that predecessor's bundle.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < n; i++ {
		preds := og.DAG.Predecessors(i)
		if len(preds) == 1 && p.OpTime(og.Ops[i], intraOp) < threshold {
			parent[find(i)] = find(preds[0])
		}
	}
	// Build the bundled graph.
	repr := map[int]int{} // root -> new ID
	out := &OpGraph{DAG: graph.New(), HeadGroups: og.HeadGroups}
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := repr[r]; !ok {
			repr[r] = out.DAG.AddNode(og.Ops[r].Name, 0)
			out.Ops = append(out.Ops, Op{Name: og.Ops[r].Name})
		}
		id := repr[r]
		out.Ops[id].Flops += og.Ops[i].Flops
		out.Ops[id].Bytes += og.Ops[i].Bytes
	}
	for i := 0; i < n; i++ {
		for _, s := range og.DAG.Successors(i) {
			a, b := repr[find(i)], repr[find(s)]
			if a != b {
				out.DAG.AddEdge(a, b)
			}
		}
	}
	return out
}
