// Package caesar implements CAESAR — Cache Assisted randomizEd ShAring
// counteRs (Liu et al., ICPP 2018) — a two-level counter architecture for
// per-flow network traffic measurement.
//
// A CAESAR sketch couples a small, fast on-chip flow cache with a large,
// slow array of off-chip SRAM counters that are randomly shared among
// flows. Packets update the cache; evicted per-flow counts are split across
// the flow's k hash-mapped shared counters. Offline, per-flow sizes are
// recovered by subtracting the expected sharing noise, with either moment
// (CSM) or maximum-likelihood (MLM) estimation, each with Gaussian
// confidence intervals.
//
// Quick start:
//
//	sk, err := caesar.New(caesar.Config{
//	    Counters:      1 << 16, // off-chip shared counters (L)
//	    CacheEntries:  1 << 12, // on-chip cache entries (M)
//	    CacheCapacity: 64,      // per-entry capacity (y)
//	})
//	// construction phase: one call per packet
//	sk.ObservePacket(caesar.FiveTuple{SrcIP: ..., DstIP: ..., ...})
//	// query phase
//	est := sk.Estimator()
//	size, interval := est.EstimateWithInterval(flowID, 0.95)
//
// Sketch is single-threaded. ShardedWindow is the concurrent surface: a
// sliding window of epochs, each ingested by a shard set with one worker
// goroutine per shard, queryable while it ingests, and checkpointed with
// WriteTo and ReadShardedWindow. A one-epoch window is the plain parallel
// sketch.
//
// The internal packages additionally implement the paper's baselines (RCS,
// CASE with its DISCO compression substrate), a synthetic heavy-tailed
// trace generator standing in for the paper's backbone capture, a hardware
// timing model standing in for its FPGA prototype, and the experiment
// harness that regenerates every figure and table of the evaluation — see
// DESIGN.md and EXPERIMENTS.md.
package caesar

import (
	"fmt"
	"io"

	"github.com/caesar-sketch/caesar/internal/cache"
	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/counters"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// FlowID identifies a flow, derived from its 5-tuple packet header.
type FlowID = hashing.FlowID

// FiveTuple is a packet's flow key: addresses, ports, and protocol.
type FiveTuple = hashing.FiveTuple

// Policy selects the cache replacement algorithm.
type Policy int

const (
	// LRU evicts the least recently used cache entry under pressure.
	LRU Policy = iota
	// Random evicts a uniformly random entry under pressure.
	Random
)

// Method selects the query-phase estimation method.
type Method int

const (
	// CSM is the Counter Sum estimation Method (moment estimation, the
	// paper's default).
	CSM Method = iota
	// MLM is the Maximum Likelihood estimation Method.
	MLM
)

// Interval is a confidence interval around an estimate.
type Interval = stats.Interval

// Config parameterizes a Sketch. The zero value of optional fields selects
// the paper's defaults.
type Config struct {
	// K is the number of shared counters mapped to each flow; default 3,
	// the paper's recommendation.
	K int
	// Counters is L, the number of off-chip shared counters. Required.
	Counters int
	// CounterBits is the off-chip counter width; default 32.
	CounterBits int
	// CacheEntries is M, the number of on-chip cache entries. Required.
	CacheEntries int
	// CacheCapacity is y, the per-entry count capacity. The paper sets
	// y = floor(2*n/Q), twice the expected mean flow size. Required.
	CacheCapacity uint64
	// Policy is the cache replacement algorithm; default LRU.
	Policy Policy
	// Seed makes the sketch deterministic; same seed, same behavior.
	Seed uint64
}

func (c Config) internal() core.Config {
	pol := cache.LRU
	if c.Policy == Random {
		pol = cache.Random
	}
	return core.Config{
		K:             c.K,
		L:             c.Counters,
		CounterBits:   c.CounterBits,
		CacheEntries:  c.CacheEntries,
		CacheCapacity: c.CacheCapacity,
		Policy:        pol,
		Seed:          c.Seed,
	}
}

// Stats reports a sketch's observability counters.
type Stats struct {
	// Packets observed so far.
	Packets int
	// CacheHits and CacheMisses partition the packets.
	CacheHits, CacheMisses int
	// OverflowEvictions, PressureEvictions and FlushEvictions count the
	// cache-to-SRAM handoffs by cause.
	OverflowEvictions, PressureEvictions, FlushEvictions int
	// SRAMWrites counts off-chip counter update operations.
	SRAMWrites int
	// CacheKB and SRAMKB give the memory footprint in the paper's
	// accounting (count bits only for the cache).
	CacheKB, SRAMKB float64

	// The remaining fields are populated only by ShardedWindow.Stats (and
	// EpochView.Stats): the loss
	// ledger and worker-pool health of the overload-hardened ingest path
	// (docs/ROBUSTNESS.md). Every packet handed to an ingest entry point is
	// either counted in Packets (applied to a shard sketch) or in exactly
	// one Dropped* bucket, so
	//
	//	packets observed == Packets + DroppedPackets
	//
	// holds exactly at all times after Close.

	// DroppedPackets is the sum of the Dropped* causes below.
	DroppedPackets uint64
	// DroppedOverflow counts packets rejected by the Drop overflow policy
	// on a full shard queue.
	DroppedOverflow uint64
	// DroppedSampled counts packets thinned by the Sample overflow policy.
	DroppedSampled uint64
	// DroppedQuarantine counts packets abandoned by (or routed to) a shard
	// whose worker was quarantined after a panic.
	DroppedQuarantine uint64
	// DroppedTimeout counts packets given up on by a RotateContext or
	// CloseContext deadline.
	DroppedTimeout uint64
	// DroppedAfterClose counts packets observed through a handle after
	// Close — a documented counted no-op, not a panic.
	DroppedAfterClose uint64
	// DroppedInjected counts packets suppressed by a BeforeEnqueue hook
	// (fault injection).
	DroppedInjected uint64
	// DroppedBatches counts whole batches discarded in one step (any cause).
	DroppedBatches uint64
	// QuarantinedShards is the number of shards whose worker has been
	// quarantined; Health summarizes it.
	QuarantinedShards int
	// Health is the worker pool's failure state (Healthy when this Stats
	// did not come from a ShardedWindow).
	Health Health
	// EffectiveLossRate is DroppedPackets/(DroppedPackets+Packets) — the
	// ingest path's measured analogue of the paper's RCS loss rate ρ.
	EffectiveLossRate float64
}

// Sketch is a CAESAR sketch in its online construction phase. It is not
// safe for concurrent use; ShardedWindow shards flows across worker
// goroutines for parallel ingest.
type Sketch struct {
	s *core.Sketch
}

// New builds a sketch from cfg.
func New(cfg Config) (*Sketch, error) {
	s, err := core.New(cfg.internal())
	if err != nil {
		return nil, err
	}
	return &Sketch{s: s}, nil
}

// Observe records one packet of the given flow.
func (sk *Sketch) Observe(flow FlowID) { sk.s.Observe(flow) }

// ObservePacket parses a 5-tuple and records one packet of its flow.
func (sk *Sketch) ObservePacket(t FiveTuple) { sk.s.ObservePacket(t) }

// ObserveBatch records one packet for each flow in the batch, in order. It
// is equivalent to calling Observe in a loop but amortizes the per-call
// overhead, which matters at line rate.
func (sk *Sketch) ObserveBatch(flows []FlowID) { sk.s.ObserveBatch(flows) }

// Add accounts an arbitrary number of units (e.g. a packet's bytes, for
// flow-volume measurement) to the flow in one shot. When counting bytes,
// set CacheCapacity in bytes too — the paper notes size and volume share
// the same distribution up to magnitude (Section 3.1).
func (sk *Sketch) Add(flow FlowID, units uint64) { sk.s.Add(flow, units) }

// Flush ends the construction phase, dumping all cached counts to the
// off-chip counters. It is idempotent; Observe panics after Flush.
func (sk *Sketch) Flush() { sk.s.Flush() }

// NumPackets returns the number of packets observed.
func (sk *Sketch) NumPackets() uint64 { return sk.s.NumPackets() }

// Stats returns the observability counters.
func (sk *Sketch) Stats() Stats {
	cs := sk.s.CacheStats()
	cacheKB, sramKB := sk.s.MemoryKB()
	return Stats{
		Packets:           cs.Packets,
		CacheHits:         cs.Hits,
		CacheMisses:       cs.Misses,
		OverflowEvictions: cs.OverflowEvictions,
		PressureEvictions: cs.PressureEvictions,
		FlushEvictions:    cs.FlushEvictions,
		SRAMWrites:        sk.s.SRAM().Writes(),
		CacheKB:           cacheKB,
		SRAMKB:            sramKB,
	}
}

// WriteCounters serializes the off-chip counter array so the query phase
// can run elsewhere (flushing first if needed). Load it with ReadEstimator.
func (sk *Sketch) WriteCounters(w io.Writer) error {
	sk.s.Flush()
	return sk.s.SRAM().Write(w)
}

// Estimator returns the offline query view over this sketch (flushing the
// cache first if the caller has not).
func (sk *Sketch) Estimator() *Estimator {
	return &Estimator{e: sk.s.Estimator()}
}

// Merge folds another sketch's counters into this one, enabling distributed
// measurement: build sketches with the *same* Config (in particular the
// same Seed, so flows map to the same counters) at different observation
// points, then merge them for network-wide per-flow estimates. Both
// sketches are flushed; the source remains readable but should not ingest
// further. An error is returned when the configurations are incompatible.
func (sk *Sketch) Merge(src *Sketch) error {
	a, b := sk.s.Config(), src.s.Config()
	if a != b {
		return fmt.Errorf("caesar: merge requires identical configs (%+v vs %+v)", a, b)
	}
	sk.s.Flush()
	src.s.Flush()
	return sk.s.MergeSRAM(src.s)
}

// Estimator answers per-flow size queries against the off-chip counters.
type Estimator struct {
	e *core.Estimator
}

// ReadEstimator reconstructs a query view from a counter dump written by
// WriteCounters. The configuration values must match the construction run:
// k, seed, cache capacity y, and the total packet count.
func ReadEstimator(r io.Reader, k int, seed uint64, cacheCapacity uint64, packets uint64) (*Estimator, error) {
	arr, err := counters.ReadArray(r)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEstimator(arr, kOrDefault(k), seed, cacheCapacity, float64(packets))
	if err != nil {
		return nil, err
	}
	return &Estimator{e: e}, nil
}

func kOrDefault(k int) int {
	if k == 0 {
		return core.DefaultK
	}
	return k
}

// SetDistribution supplies optional flow-population knowledge — the flow
// count Q and the flow-size second moment E(z²) — which widens confidence
// intervals with the counter-membership variance term (recommended under
// heavy-tailed traffic; see DESIGN.md).
func (est *Estimator) SetDistribution(q float64, sizeSecondMoment float64) {
	est.e.Q = q
	est.e.SizeSecondMoment = sizeSecondMoment
}

// Estimate returns the flow's estimated size using the given method. The
// estimate is unbiased and may be negative for flows drowned in sharing
// noise; clamp at zero if a point size is all you need.
func (est *Estimator) Estimate(flow FlowID, m Method) float64 {
	if m == MLM {
		return est.e.MLM(flow)
	}
	return est.e.CSM(flow)
}

// EstimateWithInterval returns the CSM estimate together with its
// reliability-alpha confidence interval (e.g. alpha = 0.95).
func (est *Estimator) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	return est.e.CSMInterval(flow, alpha)
}

// intervalAt is EstimateWithInterval at a precomputed z = stats.ZAlpha(alpha),
// so a windowed query looks the quantile up once for all its epochs.
func (est *Estimator) intervalAt(flow FlowID, z float64) (float64, Interval) {
	return est.e.CSMIntervalAt(flow, z)
}

// MLMInterval returns the MLM estimate with its confidence interval.
func (est *Estimator) MLMInterval(flow FlowID, alpha float64) (float64, Interval) {
	return est.e.MLMInterval(flow, alpha)
}

// CacheMemoryKB returns the paper-accounting size of a cache with m entries
// of capacity y: m·log2(y) bits.
func CacheMemoryKB(m int, y uint64) float64 { return cache.MemoryKB(m, y) }

// CounterMemoryKB returns the size of l counters of the given bit width.
func CounterMemoryKB(l, bits int) float64 { return counters.MemoryKB(l, bits) }
