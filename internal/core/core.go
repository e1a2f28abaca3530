// Package core implements CAESAR — Cache Assisted randomizEd ShAring
// counteRs — the primary contribution of the paper (Sections 3–5).
//
// Construction phase (online, Section 3.1): packets update an on-chip flow
// cache; evicted values e = p·k + q are spread over the flow's k
// hash-mapped off-chip SRAM counters (p to every counter, the q remainder
// units one by one to uniformly random counters among the k).
//
// Query phase (offline, Section 3.2): read the flow's k counters — its
// logical sub-SRAM S_f — remove the expected noise from sharing flows, and
// estimate the flow size with CSM (moment estimation, Equation 20) or MLM
// (maximum likelihood, the closed-form root in Section 5.2), each with a
// Gaussian confidence interval (Equations 26 and 32).
package core

import (
	"fmt"
	"math"

	"github.com/caesar-sketch/caesar/internal/cache"
	"github.com/caesar-sketch/caesar/internal/counters"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// Config parameterizes a CAESAR sketch.
type Config struct {
	// K is the number of mapped SRAM counters per flow. The paper finds
	// small k works best ("e.g., 3", Section 4.2); DefaultK is used if 0.
	K int
	// L is the number of off-chip SRAM counters.
	L int
	// CounterBits is the SRAM counter width (log2 of the paper's l);
	// defaults to 32.
	CounterBits int
	// CacheEntries is M, the number of on-chip cache entries.
	CacheEntries int
	// CacheCapacity is y, the per-entry count capacity; the paper sets
	// y = floor(2·n/Q) (Section 6.2).
	CacheCapacity uint64
	// Policy is the cache replacement algorithm (LRU or Random).
	Policy cache.Policy
	// Seed makes hashing and random unit placement deterministic.
	Seed uint64
}

// DefaultK is the paper's recommended number of counters per flow.
const DefaultK = 3

// maxK bounds K: the paper's analysis assumes k << y and empirically uses
// single-digit k; 64 is far beyond anything useful and keeps the eviction
// scratch space on the stack.
const maxK = 64

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.CounterBits == 0 {
		c.CounterBits = 32
	}
	return c
}

func (c Config) validate() error {
	if c.K < 1 || c.K > maxK {
		return fmt.Errorf("core: K must be in [1,%d], got %d", maxK, c.K)
	}
	if c.L < c.K {
		return fmt.Errorf("core: L (%d) must be >= K (%d)", c.L, c.K)
	}
	if c.CacheEntries < 1 {
		return fmt.Errorf("core: CacheEntries must be >= 1, got %d", c.CacheEntries)
	}
	if c.CacheCapacity < 1 {
		return fmt.Errorf("core: CacheCapacity must be >= 1, got %d", c.CacheCapacity)
	}
	return nil
}

// Sketch is a CAESAR instance in its construction phase.
type Sketch struct {
	cfg     Config
	cache   *cache.Cache
	sram    *counters.Array
	sel     *hashing.KSelector
	rng     *hashing.PRNG
	idxBuf  []uint32
	flushed bool
	// units is the total mass observed (packets in size mode, bytes in
	// volume mode) — the estimator's noise term is built from it.
	units uint64
	// mergedPackets and mergedUnits account for sketches folded in via
	// MergeSRAM.
	mergedPackets uint64
	mergedUnits   uint64
	// est caches the default query-phase view for Estimate; invalidated
	// whenever the SRAM contents change after a flush (MergeSRAM).
	est *Estimator
}

// New builds a CAESAR sketch from cfg.
func New(cfg Config) (*Sketch, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sram, err := counters.NewArray(cfg.L, cfg.CounterBits)
	if err != nil {
		return nil, err
	}
	s := &Sketch{
		cfg:    cfg,
		sram:   sram,
		sel:    hashing.NewKSelector(cfg.K, cfg.L, cfg.Seed),
		rng:    hashing.NewPRNG(cfg.Seed ^ 0xdecafbad),
		idxBuf: make([]uint32, 0, cfg.K),
	}
	s.cache, err = cache.New(cache.Config{
		Entries:  cfg.CacheEntries,
		Capacity: cfg.CacheCapacity,
		Policy:   cfg.Policy,
		Seed:     cfg.Seed,
		OnEvict:  s.onEvict,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the (defaulted) configuration.
func (s *Sketch) Config() Config { return s.cfg }

// Observe processes one packet of the given flow (construction hot path).
//
//caesar:hotpath per-packet entry point; guarded at runtime by TestSketchObserveZeroAllocs
func (s *Sketch) Observe(flow hashing.FlowID) {
	if s.flushed {
		panic("core: Observe after Flush; construction phase is over")
	}
	s.units++
	s.cache.Observe(flow)
}

// ObserveBatch processes a batch of packets, one unit each. It hoists the
// construction-phase check out of the per-packet loop and hands the batch
// to the cache's block path, which hashes every home position up front
// before the first probe — bit-identical to calling Observe in a loop, at
// roughly half the per-packet hash latency.
//
//caesar:hotpath batch ingest entry point
func (s *Sketch) ObserveBatch(flows []hashing.FlowID) {
	if s.flushed {
		panic("core: Observe after Flush; construction phase is over")
	}
	s.units += uint64(len(flows))
	s.cache.ObserveBlock(flows)
}

// Add accounts units to the flow in one shot — the flow-volume (byte
// counting) mode of Section 3.1. Size the cache capacity y in the same
// units (e.g. 2x the mean flow volume).
//
//caesar:hotpath per-packet volume-mode entry point
func (s *Sketch) Add(flow hashing.FlowID, units uint64) {
	if s.flushed {
		panic("core: Add after Flush; construction phase is over")
	}
	s.units += units
	s.cache.Add(flow, units)
}

// ObservePacket processes a parsed packet header.
func (s *Sketch) ObservePacket(t hashing.FiveTuple) {
	s.Observe(t.ID())
}

// onEvict implements the Section 3.1 split update: e = p·k + q, add p to
// all k mapped counters, then place each of the q remainder units on a
// uniformly random counter among the k. Each mapped counter receives at
// most one off-chip write per eviction (increments are coalesced).
//
//caesar:hotpath runs on every cache eviction, inside the Observe path
func (s *Sketch) onEvict(flow hashing.FlowID, value uint64, _ cache.Reason) {
	k := uint64(s.cfg.K)
	p := value / k
	q := int(value % k)
	s.idxBuf = s.sel.Select(flow, s.idxBuf[:0])

	// extra[i] counts remainder units landing on mapped counter i.
	// K <= maxK is enforced at construction, so the array stays on-stack.
	var extra [maxK]int
	for j := 0; j < q; j++ {
		extra[s.rng.Intn(s.cfg.K)]++
	}
	for i, idx := range s.idxBuf {
		if inc := p + uint64(extra[i]); inc > 0 {
			s.sram.Add(int(idx), inc)
		}
	}
}

// Flush ends the construction phase: every cache entry is dumped to the
// SRAM counters (Section 3.2's precondition for querying).
func (s *Sketch) Flush() {
	if s.flushed {
		return
	}
	s.cache.Flush()
	s.flushed = true
	// The cache dump changed the counters; drop any cached query view. (A
	// view cannot exist before the first Flush — Estimator() flushes before
	// building one — but the invariant "every counter/mass mutation
	// invalidates s.est" is cheap to keep unconditional.)
	s.est = nil
}

// NumPackets returns n, the number of packets observed so far (including
// packets merged in from other sketches).
func (s *Sketch) NumPackets() uint64 {
	return uint64(s.cache.Stats().Packets) + s.mergedPackets
}

// Units returns the total observed mass — equal to NumPackets in
// packet-counting mode, the byte total in volume mode. The sharing-noise
// term is Units-based, so volume-mode estimates de-noise correctly.
func (s *Sketch) Units() uint64 { return s.units + s.mergedUnits }

// SRAM exposes the off-chip counter array (for dumps and inspection).
func (s *Sketch) SRAM() *counters.Array { return s.sram }

// CacheStats returns the on-chip cache observability counters.
func (s *Sketch) CacheStats() cache.Stats { return s.cache.Stats() }

// MemoryKB reports (cacheKB, sramKB) using the paper's accounting.
func (s *Sketch) MemoryKB() (cacheKB, sramKB float64) {
	return cache.MemoryKB(s.cfg.CacheEntries, s.cfg.CacheCapacity), s.sram.MemoryKB()
}

// MergeSRAM adds src's flushed counters (and packet accounting) into this
// sketch. Both sketches must be flushed and share hashing configuration;
// the public caesar.Sketch.Merge wrapper enforces that.
func (s *Sketch) MergeSRAM(src *Sketch) error {
	if !s.flushed || !src.flushed {
		return fmt.Errorf("core: merge requires both sketches flushed")
	}
	if err := s.sram.Merge(src.sram); err != nil {
		return err
	}
	s.mergedPackets += src.NumPackets()
	s.mergedUnits += src.Units()
	s.est = nil // total mass and counters changed; rebuild on next Estimate
	return nil
}

// Estimate returns the flow's estimated size by the paper's default query
// method (CSM), flushing the construction phase first if needed. For MLM or
// confidence intervals, use Estimator().
func (s *Sketch) Estimate(flow hashing.FlowID) float64 {
	if s.est == nil {
		s.est = s.Estimator()
	}
	return s.est.CSM(flow)
}

// EstimateMany is the bulk counterpart of Estimate: the default CSM query
// for every flow in flows, written to out[i] for flows[i]. It shares the
// cached query view with Estimate (and the same invalidation rules: Flush,
// MergeSRAM, and snapshot ReadFrom all drop it). dst is reused when it has
// capacity; see Estimator.EstimateMany for the exact contract.
func (s *Sketch) EstimateMany(flows []hashing.FlowID, dst []float64) []float64 {
	if s.est == nil {
		s.est = s.Estimator()
	}
	return s.est.EstimateMany(flows, CSMMethod, dst)
}

// Estimator returns the query-phase view over this sketch's SRAM. It
// flushes the cache first if the caller has not already done so.
func (s *Sketch) Estimator() *Estimator {
	s.Flush()
	return &Estimator{
		K:         s.cfg.K,
		Y:         s.cfg.CacheCapacity,
		TotalMass: float64(s.Units()),
		sel:       s.sel,
		sram:      s.sram,
	}
}

// Estimator answers offline queries against a (possibly deserialized) SRAM
// counter array.
type Estimator struct {
	// K is the number of counters per flow.
	K int
	// Y is the cache entry capacity y used during construction.
	Y uint64
	// TotalMass is Qμ — in a lossless run, exactly n, the packet count.
	TotalMass float64

	// Q and SizeSecondMoment are optional distribution knowledge in the
	// spirit of Section 4.1 (which assumes the flow-size distribution, and
	// hence μ and σ², are known a priori). When both are set (> 0), the
	// confidence intervals add the counter-membership variance term
	// Q·E(z²)/L that the paper's Equation (22) derivation omits — under
	// heavy-tailed flow sizes that term dominates, and without it the
	// Equation (26)/(32) intervals under-cover badly (see EXPERIMENTS.md).
	Q                float64
	SizeSecondMoment float64

	sel  *hashing.KSelector
	sram *counters.Array

	idxBuf []uint32
	valBuf []uint64
}

// NewEstimator builds a query-phase view over an existing counter array,
// e.g. one loaded from disk. seed must match the construction seed and y
// the construction cache capacity.
func NewEstimator(sram *counters.Array, k int, seed uint64, y uint64, totalMass float64) (*Estimator, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if sram.Len() < k {
		return nil, fmt.Errorf("core: SRAM has %d counters, need >= k=%d", sram.Len(), k)
	}
	if y < 1 {
		return nil, fmt.Errorf("core: y must be >= 1, got %d", y)
	}
	if totalMass < 0 || math.IsNaN(totalMass) {
		return nil, fmt.Errorf("core: invalid total mass %v", totalMass)
	}
	return &Estimator{
		K:         k,
		Y:         y,
		TotalMass: totalMass,
		sel:       hashing.NewKSelector(k, sram.Len(), seed),
		sram:      sram,
	}, nil
}

// L returns the number of SRAM counters.
func (e *Estimator) L() int { return e.sram.Len() }

// aggregateNoise returns k·Qμ/L, the expected total noise over a flow's k
// counters.
//
// Note on the constant: the paper's Equation (15) states the per-counter
// noise as Qμ/(Lk), making the aggregate Qμ/L (Equation 20). But a sharing
// flow f̄ touches a specific counter S_f[r] with probability k/L (its k
// distinct counters out of L) and contributes z/k on average when it does,
// so the per-counter noise is E(Z) = (k/L)·(z/k) = z/L and the aggregate is
// k·Qμ/L — which is also exactly the noise term the original RCS estimator
// (Li et al., INFOCOM'11) subtracts, and CAESAR is explicitly "based on
// RCS". We implement the consistent version: with the paper's constant the
// estimator is measurably biased by (k−1)·Qμ/L, violating the paper's own
// unbiasedness claim (Equation 21), while this version passes empirical
// unbiasedness tests. See EXPERIMENTS.md for the measurement.
func (e *Estimator) aggregateNoise() float64 {
	return float64(e.K) * e.TotalMass / float64(e.sram.Len())
}

// subSRAM loads the flow's k counter values into the scratch buffer.
func (e *Estimator) subSRAM(flow hashing.FlowID) []uint64 {
	e.idxBuf = e.sel.Select(flow, e.idxBuf[:0])
	e.valBuf = e.sram.SubSRAM(e.idxBuf, e.valBuf[:0])
	return e.valBuf
}

// CSM estimates the flow size by the Counter Sum estimation Method
// (Equation 20 with the corrected noise constant, see aggregateNoise):
// x̂ = Σ S_f[r] − k·Qμ/L. The estimate is unbiased (Equation 21) and may be
// negative for small flows drowned in noise.
func (e *Estimator) CSM(flow hashing.FlowID) float64 {
	var sum uint64
	for _, w := range e.subSRAM(flow) {
		sum += w
	}
	return float64(sum) - e.aggregateNoise()
}

// MLM estimates the flow size by the Maximum Likelihood estimation Method:
// the closed-form root of the score equation in Section 5.2,
// x̂ = ½(√((k−1)⁴/y² + 4k·Σw_i²) − (k−1)²/y) − k·Qμ/L.
// (The paper's solution estimates T = x + noise and subtracts the aggregate
// noise; the corrected aggregate is k·Qμ/L, see aggregateNoise.)
func (e *Estimator) MLM(flow hashing.FlowID) float64 {
	k := float64(e.K)
	y := float64(e.Y)
	var sumSq float64
	for _, w := range e.subSRAM(flow) {
		fw := float64(w)
		sumSq += fw * fw
	}
	km1sq := (k - 1) * (k - 1)
	disc := km1sq*km1sq/(y*y) + 4*k*sumSq
	return 0.5*(math.Sqrt(disc)-km1sq/y) - e.aggregateNoise()
}

// VarCSM returns the theoretical CSM variance at true size x
// (Equation 22 with the corrected noise magnitude):
// (x + k·Qμ/L)·k(k−1)²/y.
func (e *Estimator) VarCSM(x float64) float64 {
	k := float64(e.K)
	y := float64(e.Y)
	km1sq := (k - 1) * (k - 1)
	return (x + e.aggregateNoise()) * k * km1sq / y
}

// deltaX returns Δ_X of Section 5 at true size x, the per-counter variance:
// (x + k·Qμ/L)·(k−1)²/(yk).
func (e *Estimator) deltaX(x float64) float64 {
	k := float64(e.K)
	y := float64(e.Y)
	km1sq := (k - 1) * (k - 1)
	return (x + e.aggregateNoise()) * km1sq / (y * k)
}

// membershipVarPerCounter returns the per-counter variance contribution of
// random counter sharing: each of the Q−1 other flows lands on a given
// counter with probability k/L and contributes ≈ z/k when it does, giving
// Var ≈ Q·E(z²)/(kL) per counter. Zero when the distribution knowledge is
// not configured.
func (e *Estimator) membershipVarPerCounter() float64 {
	if e.Q <= 0 || e.SizeSecondMoment <= 0 {
		return 0
	}
	return e.Q * e.SizeSecondMoment / (float64(e.K) * float64(e.sram.Len()))
}

// FullVarCSM is VarCSM plus the counter-membership variance over the k
// counters (Q·E(z²)/L), available when Q and SizeSecondMoment are set.
func (e *Estimator) FullVarCSM(x float64) float64 {
	return e.VarCSM(x) + float64(e.K)*e.membershipVarPerCounter()
}

// VarMLM returns the theoretical MLM variance at true size x
// (Equation 31): 2k²Δ² / (2Δ + (k−1)⁴/y²).
func (e *Estimator) VarMLM(x float64) float64 {
	k := float64(e.K)
	y := float64(e.Y)
	d := e.deltaX(x)
	km1 := k - 1
	denom := 2*d + km1*km1*km1*km1/(y*y)
	if denom <= 0 {
		return 0
	}
	return 2 * k * k * d * d / denom
}

// CSMInterval returns the CSM estimate with its reliability-alpha
// confidence interval (Equation 26), with the unknown true x replaced by
// the estimate as usual in practice (estimates below 0 are clamped to 0
// inside the variance only, which must be nonnegative). When the estimator
// carries distribution knowledge (Q, SizeSecondMoment), the membership
// variance is included; otherwise this is the paper's interval verbatim.
func (e *Estimator) CSMInterval(flow hashing.FlowID, alpha float64) (float64, stats.Interval) {
	return e.CSMIntervalAt(flow, stats.ZAlpha(alpha))
}

// CSMIntervalAt is CSMInterval at a precomputed z quantile
// (stats.ZAlpha(alpha)), for callers that widen many estimates at one
// reliability and would otherwise repeat the inverse-normal evaluation per
// flow.
func (e *Estimator) CSMIntervalAt(flow hashing.FlowID, z float64) (float64, stats.Interval) {
	est := e.CSM(flow)
	return est, e.csmIntervalAt(est, z)
}

// csmIntervalAt widens a CSM estimate into its confidence interval given a
// precomputed z quantile. Shared by the scalar and bulk interval paths so
// they are bit-identical by construction.
func (e *Estimator) csmIntervalAt(est, z float64) stats.Interval {
	half := z * math.Sqrt(e.FullVarCSM(math.Max(est, 0)))
	return stats.Interval{Lo: est - half, Hi: est + half}
}

// MLMInterval returns the MLM estimate with its reliability-alpha
// confidence interval (Equation 32), widened by the membership variance
// when distribution knowledge is configured.
func (e *Estimator) MLMInterval(flow hashing.FlowID, alpha float64) (float64, stats.Interval) {
	est := e.MLM(flow)
	return est, e.mlmIntervalAt(est, stats.ZAlpha(alpha))
}

// mlmIntervalAt is csmIntervalAt's MLM counterpart.
func (e *Estimator) mlmIntervalAt(est, z float64) stats.Interval {
	v := e.VarMLM(math.Max(est, 0)) + float64(e.K)*e.membershipVarPerCounter()
	half := z * math.Sqrt(v)
	return stats.Interval{Lo: est - half, Hi: est + half}
}

// Method selects a query-phase estimation method.
type Method int

const (
	// CSMMethod is the Counter Sum estimation Method (the paper's default).
	CSMMethod Method = iota
	// MLMMethod is the Maximum Likelihood estimation Method.
	MLMMethod
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case CSMMethod:
		return "CSM"
	case MLMMethod:
		return "MLM"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Estimate dispatches to the chosen method.
func (e *Estimator) Estimate(flow hashing.FlowID, m Method) float64 {
	switch m {
	case MLMMethod:
		return e.MLM(flow)
	default:
		return e.CSM(flow)
	}
}
