package caesar

import (
	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/hashing"
)

// This file is the public face of the bulk query engine (internal/core's
// EstimateMany/QueryAll): whole-trace estimation as a first-class operation
// for the plain Estimator, and the shard grouping behind ShardedWindow's and
// EpochView's bulk queries (ShardedWindow.sumEpochs).
//
// Shared contract, everywhere below: the result has len(flows) with
// flows[i]'s estimate at index i; dst is reused as backing storage when
// cap(dst) >= len(flows) (contents overwritten), otherwise a new slice is
// allocated; and output is bit-identical to the corresponding scalar
// Estimate loop, for every method and worker count.

func coreMethod(m Method) core.Method {
	if m == MLM {
		return core.MLMMethod
	}
	return core.CSMMethod
}

// EstimateMany computes the estimate of every flow in flows by method m —
// bit-identical to calling Estimate in a loop, but with counter indices
// generated in blocks, gathers fused with the estimate arithmetic, and the
// noise and method constants hoisted out of the per-flow loop. With a
// reused dst the steady state allocates nothing per flow. It reuses the
// estimator's scratch and is not safe for concurrent use on one estimator;
// QueryAll handles parallelism.
func (est *Estimator) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return est.e.EstimateMany(flows, coreMethod(m), dst)
}

// QueryAll is the parallel whole-trace driver: contiguous flow chunks fan
// out across workers goroutines (workers <= 0 means GOMAXPROCS), each
// estimating its chunk in bulk and writing results at fixed offsets — so
// the output is bit-identical to the scalar loop (and to EstimateMany)
// regardless of worker count.
func (est *Estimator) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return est.e.QueryAll(flows, coreMethod(m), workers, dst)
}

// shardGroups is a counting sort of a flow list by owning shard, the
// grouping step of every sharded bulk query. Its backing slices are kept
// across calls, so repeated whole-trace queries allocate nothing per flow
// in steady state. Not safe for concurrent use: its owner, a ShardedWindow,
// uses it only under its query mutex.
type shardGroups struct {
	off   []int     // group s is flows[off[s]:off[s+1]]
	cur   []int     // scatter cursor per shard
	flows []FlowID  // the flows, grouped by shard, in input order within a group
	pos   []int32   // each grouped flow's position in the input
	vals  []float64 // one estimate per grouped flow
}

// group sorts flows into per-shard groups under r's routing.
func (g *shardGroups) group(r *hashing.ShardRouter, flows []FlowID) {
	n := r.Shards()
	off := resizeInts(g.off, n+1)
	clear(off)
	for _, f := range flows {
		off[r.Route(f)+1]++
	}
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	grouped := resizeFlowIDs(g.flows, len(flows))
	pos := resizeInt32s(g.pos, len(flows))
	cursor := resizeInts(g.cur, n)
	copy(cursor, off[:n])
	for i, f := range flows {
		s := r.Route(f)
		p := cursor[s]
		cursor[s] = p + 1
		grouped[p] = f
		pos[p] = int32(i)
	}
	g.off, g.cur, g.flows, g.pos = off, cursor, grouped, pos
	g.vals = resizeFloats(g.vals, len(flows))
}

func resizeFloats(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

func resizeInts(dst []int, n int) []int {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int, n)
}

func resizeInt32s(dst []int32, n int) []int32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int32, n)
}

func resizeFlowIDs(dst []FlowID, n int) []FlowID {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]FlowID, n)
}
