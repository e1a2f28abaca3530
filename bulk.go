package caesar

import (
	"github.com/caesar-sketch/caesar/internal/bulk"
	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/hashing"
)

// This file is the public face of the bulk query engine (internal/core's
// EstimateMany/QueryAll): whole-trace estimation as a first-class operation
// for the plain Estimator, the ShardedEstimator, and the sliding Window.
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

// EstimateMany computes every flow's estimate with one bulk pass per shard
// instead of one shard lookup and scalar query per flow: flows are grouped
// by owning shard (counting sort, so the grouping itself is deterministic
// and allocation-free in steady state), each shard's estimator runs its
// bulk engine over its group, and results scatter back to the flows'
// original positions. Flows owned by an unrecoverable quarantined shard
// estimate to 0, exactly like Estimate.
func (e *ShardedEstimator) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return e.queryAll(flows, m, 1, dst)
}

// QueryAll is EstimateMany with the per-shard bulk passes distributed
// across workers goroutines (workers <= 0 means GOMAXPROCS). Each shard is
// processed by exactly one worker — shard groups write disjoint result
// positions — so the output is bit-identical regardless of worker count.
func (e *ShardedEstimator) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return e.queryAll(flows, m, workers, dst)
}

func (e *ShardedEstimator) queryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	out := resizeFloats(dst, len(flows))
	if len(flows) == 0 {
		return out
	}
	n := len(e.ests)
	if n == 1 {
		if e.ests[0] == nil {
			clear(out)
			return out
		}
		return e.ests[0].e.QueryAll(flows, coreMethod(m), workers, out)
	}
	e.grp.group(e.owner.router, flows)

	// One bulk pass per shard. Each shard's group writes a disjoint slice of
	// vals and disjoint positions of out, so shards parallelize safely; a
	// shard's own estimator (and its scratch) is only ever touched by the
	// single worker that owns that shard. The single-worker path runs the
	// shard loop directly — handing a closure to bulk.Do would heap-allocate
	// it and break the steady-state zero-alloc contract.
	cm := coreMethod(m)
	if w := bulk.Workers(workers, n); w <= 1 {
		e.estimateShards(cm, 0, n, out)
	} else {
		bulk.Do(n, w, func(_, s0, s1 int) { e.estimateShards(cm, s0, s1, out) })
	}
	return out
}

// estimateShards runs the bulk pass for shards [s0, s1) against the current
// grouping, scattering results to their original positions in out.
func (e *ShardedEstimator) estimateShards(cm core.Method, s0, s1 int, out []float64) {
	g := &e.grp
	for s := s0; s < s1; s++ {
		lo, hi := g.off[s], g.off[s+1]
		if lo == hi {
			continue
		}
		pos := g.pos[lo:hi]
		if e.ests[s] == nil {
			for _, p := range pos {
				out[p] = 0
			}
			continue
		}
		part := e.ests[s].e.EstimateMany(g.flows[lo:hi], cm, g.vals[lo:hi])
		for j, p := range pos {
			out[p] = part[j]
		}
	}
}

// shardGroups is a counting sort of a flow list by owning shard, the
// grouping step of every sharded bulk query. Its backing slices are kept
// across calls, so repeated whole-trace queries allocate nothing per flow
// in steady state. Not safe for concurrent use: each owner (a
// ShardedEstimator, or a ShardedWindow under its query mutex) keeps its
// own.
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

// EstimateMany sums each flow's per-epoch bulk estimates over the sealed
// epochs, in sealed order — the accumulation order of the scalar Estimate —
// so the result is bit-identical to calling Estimate in a loop. One scratch
// slice per call is the only allocation beyond dst.
func (w *Window) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	out := resizeFloats(dst, len(flows))
	for i := range out {
		out[i] = 0
	}
	if len(flows) == 0 {
		return out
	}
	cm := coreMethod(m)
	scratch := make([]float64, len(flows))
	for i, n := 0, w.lc.Len(); i < n; i++ {
		scratch = w.lc.At(i).e.EstimateMany(flows, cm, scratch)
		for j, v := range scratch {
			out[j] += v
		}
	}
	return out
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
