// Package detect turns CAESAR estimates into measurement verdicts: top-K
// heavy hitters, threshold alerts for scanners and superspreaders, and
// epoch-over-epoch change detection. These are the three applications the
// paper's introduction motivates (caching/scheduling on elephant flows,
// intrusion detection on scanning speed, anomaly detection on traffic
// shifts), promoted from example programs into a library the live
// measurement service drives off every sealed epoch.
//
// A CAESAR sketch cannot enumerate the flows it has seen — randomized
// counter sharing stores no keys — so every detector takes an explicit
// candidate set; Candidates maintains one on the ingest path for a few
// bytes per flow. Each detector costs one bulk estimate pass over its n
// candidates (EstimateMany / QueryAll: one pass per epoch, not one hash
// round-trip per flow) plus work proportional to the answer it returns:
// O(n log k) to select the top k, O(m) to order m alerts or changes.
// Output is deterministic: results are fully ordered by descending value,
// with ties broken by ascending flow ID.
//
// Every query surface in the parent package satisfies the interfaces here:
// the single-sketch *caesar.Estimator, the live *caesar.ShardedWindow, and —
// the intended steady-state driver — each sealed caesar.EpochView.
package detect

import (
	"fmt"
	"math"
	"slices"
	"sort"

	caesar "github.com/caesar-sketch/caesar"
)

// Querier answers bulk point estimates: flows[i]'s estimate lands at
// dst[i]. It is the parent package's EstimateMany contract.
type Querier interface {
	EstimateMany(flows []caesar.FlowID, m caesar.Method, dst []float64) []float64
}

// ParallelQuerier additionally fans the bulk pass out across workers with
// bit-identical output; detectors use it when present and fall back to the
// serial pass otherwise.
type ParallelQuerier interface {
	Querier
	QueryAll(flows []caesar.FlowID, m caesar.Method, workers int, dst []float64) []float64
}

// IntervalQuerier answers point estimates with confidence intervals — the
// surface threshold detectors need to trade false positives against
// detection latency. The point estimate is the surface's CSM estimate, and
// the interval contains it; OverThreshold's prefilter relies on both.
type IntervalQuerier interface {
	EstimateWithInterval(flow caesar.FlowID, alpha float64) (float64, caesar.Interval)
}

// estimateAll runs the candidate scan through QueryAll when the surface
// supports it and workers asks for parallelism.
func estimateAll(q Querier, flows []caesar.FlowID, m caesar.Method, workers int, dst []float64) []float64 {
	if pq, ok := q.(ParallelQuerier); ok && workers != 1 {
		return pq.QueryAll(flows, m, workers, dst)
	}
	return q.EstimateMany(flows, m, dst)
}

// Flow is one ranked detector result.
type Flow struct {
	ID       caesar.FlowID
	Estimate float64
}

// TopK returns the k candidates with the largest estimates, descending,
// ties broken by ascending flow ID so the ranking is deterministic. k
// larger than the candidate set returns everything ranked. One bulk pass
// over the candidates; workers parallelizes it when q supports QueryAll
// (workers <= 0 means GOMAXPROCS, 1 forces the serial path). Selection
// keeps only the k best in a heap, so it costs O(n log k) on top of the
// pass.
func TopK(q Querier, candidates []caesar.FlowID, m caesar.Method, k, workers int) []Flow {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	ests := estimateAll(q, candidates, m, workers, nil)
	// h is a heap whose root is its lowest-ranked flow, so a later
	// candidate costs one comparison, plus a sift when it displaces the root.
	h := make(flowHeap, 0, min(k, len(candidates)))
	for i, f := range candidates {
		c := Flow{ID: f, Estimate: ests[i]}
		if len(h) < cap(h) {
			h = append(h, c)
			if len(h) == cap(h) {
				h.init()
			}
			continue
		}
		if c.ranksAbove(h[0]) {
			h[0] = c
			h.down(0)
		}
	}
	// Heapsort: each step moves the lowest-ranked survivor to the back.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h[:n].down(0)
	}
	return h
}

// ranksAbove reports whether f ranks before g: a larger estimate, or an
// equal one (−0 ties +0) and a smaller flow ID.
func (f Flow) ranksAbove(g Flow) bool {
	return f.Estimate > g.Estimate || f.Estimate == g.Estimate && f.ID < g.ID
}

// flowHeap is a binary heap with its lowest-ranked flow at the root.
type flowHeap []Flow

func (h flowHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] towards the leaves until no child ranks below it.
func (h flowHeap) down(i int) {
	for {
		low := i
		if c := 2*i + 1; c < len(h) && h[low].ranksAbove(h[c]) {
			low = c
		}
		if c := 2*i + 2; c < len(h) && h[low].ranksAbove(h[c]) {
			low = c
		}
		if low == i {
			return
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}

// Alert is one candidate whose estimate cleared a threshold.
type Alert struct {
	ID       caesar.FlowID
	Estimate float64 // point estimate
	Lo       float64 // lower confidence bound that cleared the threshold
}

// OverThreshold flags every candidate whose reliability-alpha confidence
// interval sits entirely above threshold — flagging on the lower bound
// rather than the point estimate keeps counter-sharing noise from minting
// false positives, the scan-detection discipline of the paper's intrusion
// use case. Results are ordered by descending estimate, ties by ascending
// flow ID.
//
// When q also answers bulk estimates (every surface in the parent package
// does), one EstimateMany pass takes the CSM point estimates first and
// only candidates whose estimate exceeds threshold get an interval query:
// the interval contains the estimate, so its lower bound cannot clear a
// threshold the estimate does not. The cost is one bulk pass, one interval
// query per surviving candidate, and O(m) to order m alerts. alpha must
// lie in (0, 1) whenever candidates is non-empty, or OverThreshold panics.
func OverThreshold(q IntervalQuerier, candidates []caesar.FlowID, alpha, threshold float64) []Alert {
	if len(candidates) == 0 {
		return nil
	}
	if alpha <= 0 || alpha >= 1 {
		// Checked here because the prefilter may leave no interval query
		// to reject it.
		panic(fmt.Sprintf("detect: OverThreshold needs 0 < alpha < 1, got %v", alpha))
	}
	var ests []float64
	survivors := 0
	bq, prefilter := q.(Querier)
	if prefilter {
		ests = bq.EstimateMany(candidates, caesar.CSM, nil)
		for _, est := range ests {
			if est > threshold {
				survivors++
			}
		}
	}
	alerts := make([]Alert, 0, survivors)
	for i, f := range candidates {
		if prefilter && !(ests[i] > threshold) {
			continue
		}
		est, iv := q.EstimateWithInterval(f, alpha)
		if iv.Lo > threshold {
			alerts = append(alerts, Alert{ID: f, Estimate: est, Lo: iv.Lo})
		}
	}
	return ranked(alerts, func(a *Alert) (float64, caesar.FlowID) { return a.Estimate, a.ID })
}

// Change is one candidate whose estimate moved between two measurement
// surfaces (typically two consecutive sealed epochs).
type Change struct {
	ID     caesar.FlowID
	Before float64
	After  float64
	Delta  float64 // After - Before
}

// Changes compares every candidate's estimate across two surfaces and
// returns those whose absolute change is at least minDelta, ordered by
// descending |Delta|, ties by ascending flow ID. Driving it with two
// consecutive sealed epochs of a window gives per-epoch change detection:
// a flow that bursts (or vanishes) between epochs surfaces immediately,
// and because every epoch hashes with an independent seed, the two
// estimates carry independent sharing noise rather than correlated bias.
// Two bulk passes total, workers as in TopK, plus O(m) to order m changes.
func Changes(before, after Querier, candidates []caesar.FlowID, m caesar.Method, minDelta float64, workers int) []Change {
	if len(candidates) == 0 {
		return nil
	}
	prev := estimateAll(before, candidates, m, workers, nil)
	cur := estimateAll(after, candidates, m, workers, nil)
	moved := func(d float64) bool { return d >= minDelta || -d >= minDelta }
	n := 0
	for i := range candidates {
		if moved(cur[i] - prev[i]) {
			n++
		}
	}
	out := make([]Change, 0, n)
	for i, f := range candidates {
		if d := cur[i] - prev[i]; moved(d) {
			out = append(out, Change{ID: f, Before: prev[i], After: cur[i], Delta: d})
		}
	}
	return ranked(out, func(c *Change) (float64, caesar.FlowID) { return math.Abs(c.Delta), c.ID })
}

// descBits maps x to bits whose unsigned order is descending float order,
// with −0 and +0 mapped alike. NaN has no place in that order; no detector
// ranks one.
func descBits(x float64) uint64 {
	if x == 0 {
		x = 0 // −0 ties +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return b // negative: a larger magnitude ranks later
	}
	return b ^ (1<<63 - 1) // positive: ahead of every negative, larger first
}

// ranked returns rows ordered by descending key, ties by ascending flow
// ID, where key reads a row's float key and flow ID. It is a stable LSD
// radix sort in two phases: the rows' order by ID (skipped when the rows
// already ascend by ID, as they do for a Candidates list), then a stable
// sort of that order by the keys' bits — O(m) for m rows. No rows give
// nil.
func ranked[T any](rows []T, key func(*T) (float64, caesar.FlowID)) []T {
	switch len(rows) {
	case 0:
		return nil
	case 1:
		return rows
	}
	order, spare := make([]radixItem, len(rows)), make([]radixItem, len(rows))
	idSorted := true
	for i := range rows {
		_, id := key(&rows[i])
		order[i] = radixItem{v: uint64(id), row: i}
		idSorted = idSorted && (i == 0 || order[i-1].v <= order[i].v)
	}
	if !idSorted {
		order, spare = radixSort(order, spare)
	}
	for j := range order {
		k, _ := key(&rows[order[j].row])
		order[j].v = descBits(k)
	}
	order, _ = radixSort(order, spare)
	out := make([]T, len(rows))
	for j, it := range order {
		out[j] = rows[it.row]
	}
	return out
}

// radixItem is one row's sort value and index.
type radixItem struct {
	v   uint64
	row int
}

// radixSort stably sorts src by v, 11 bits per pass from the least
// significant, skipping any digit that every item shares, with spare (of
// src's length) as the other buffer. It returns the sorted slice and the
// other buffer, which hold src's and spare's storage in either order.
// Eleven-bit digits need at most six passes where bytes need eight, which
// ordered 74,600 rows about 30% faster; the int32 counts cap src below 2³¹
// items, 32 GiB of them.
func radixSort(src, spare []radixItem) (sorted, other []radixItem) {
	const bits, digits = 11, 6
	var counts [digits][1 << bits]int32
	for _, it := range src {
		for d := range counts {
			counts[d][it.v>>(bits*d)&(1<<bits-1)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if slices.Contains(c[:], int32(len(src))) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		shift := bits * uint(d)
		for _, it := range src {
			b := it.v >> shift & (1<<bits - 1)
			spare[c[b]] = it
			c[b]++
		}
		src, spare = spare, src
	}
	return src, spare
}

// Candidates maintains the deduplicated flow set the detectors scan — the
// key memory the sketch itself deliberately does not keep. Add it on the
// ingest path (or from a sampled tap); Flows returns a sorted, stable
// candidate list. Not safe for concurrent use; give each producer its own
// and Merge them, mirroring the per-producer Ingester discipline.
type Candidates struct {
	seen  map[caesar.FlowID]struct{}
	flows []caesar.FlowID // sorted cache, nil when dirty
}

// Add records one flow in the candidate set.
func (c *Candidates) Add(f caesar.FlowID) {
	if c.seen == nil {
		c.seen = make(map[caesar.FlowID]struct{})
	}
	if _, ok := c.seen[f]; !ok {
		c.seen[f] = struct{}{}
		c.flows = nil
	}
}

// AddBatch records a batch of flows.
func (c *Candidates) AddBatch(flows []caesar.FlowID) {
	for _, f := range flows {
		c.Add(f)
	}
}

// Merge folds another candidate set into this one.
func (c *Candidates) Merge(other *Candidates) {
	for f := range other.seen {
		c.Add(f)
	}
}

// Len returns the number of distinct flows recorded.
func (c *Candidates) Len() int { return len(c.seen) }

// Flows returns the candidate set sorted ascending by flow ID. The slice
// is cached until an Add records a new flow, and Candidates never writes
// to a slice it has returned: the next Flows builds a fresh one. So a
// returned slice stays valid and unchanged after later Adds, and a caller
// that guards the set with a lock may read it after releasing the lock.
// Callers must not modify it.
func (c *Candidates) Flows() []caesar.FlowID {
	if c.flows == nil {
		c.flows = make([]caesar.FlowID, 0, len(c.seen))
		for f := range c.seen {
			c.flows = append(c.flows, f)
		}
		sort.Slice(c.flows, func(i, j int) bool { return c.flows[i] < c.flows[j] })
	}
	return c.flows
}
