package caesar

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/caesar-sketch/caesar/internal/bulk"
	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// ShardedWindow is the package's concurrent measurement surface: a
// sliding window of epochs, each ingested in parallel by its own shard
// set. Producers ingest at line rate through per-producer handles while
// queries answer from the sealed epochs, and Rotate moves packets from one
// side to the other without stopping either. A one-epoch window is the
// plain parallel sketch: ingest, Close (which seals the only epoch), query.
//
// # Shards
//
// An epoch's shard set fans ingestion out over nshards independent CAESAR
// sketches, one worker goroutine per shard, with flows routed by hash so
// every flow lives in exactly one shard. This is the software analogue of
// replicating the measurement pipeline across switch ports: shards share
// nothing, so ingest scales with cores while every per-flow guarantee of a
// single sketch still holds within its shard. The per-epoch budget in
// Config is divided among shards: every shard gets Counters/nshards
// counters and CacheEntries/nshards cache entries, and the division
// remainders go one per shard to the first shards, so the per-shard totals
// sum exactly to the configured budget.
//
// # Epoch rotation and the seal barrier
//
// Each epoch is a complete shard set (workers, queues, loss ledger).
// Rotation is double-buffered:
//
//  1. The next epoch's shard set is built while the current one keeps
//     ingesting — producers never wait on construction.
//  2. Every WindowIngester handle is swapped onto the next epoch. The swap
//     holds each handle's mutex just long enough to exchange a pointer, so
//     a producer stalls for at most one in-flight Observe.
//  3. The seal barrier: the old epoch is closed, which drains every one of
//     its handles (including partially-filled producer buffers), waits for
//     its shard workers, and flushes every shard's cache to its counters —
//     while producers are already ingesting into the next epoch.
//  4. The old shard set is sealed: its flushed shards, loss ledger and
//     per-shard query views become a sealed epoch, which joins the query
//     ring; the oldest sealed epoch is retired once the ring holds
//     `epochs`. The shard set itself (workers, rings, handles) is not kept.
//
// Because the seal is the shard set's shutdown, every packet that entered a
// handle is either applied to the sealed epoch's counters or counted in its
// drop ledger, and the window-wide invariant
//
//	packets observed == NumPackets() + DroppedPackets()
//
// holds exactly after Close, across any number of rotations and epoch
// retirements (retired epochs fold their totals into cumulative counters
// before leaving the ring). The chaos suite pins this under concurrent
// multi-handle ingest and worker panics injected mid-seal; docs/ROBUSTNESS.md
// describes the overflow policies, quarantine and deadline-bounded seals.
//
// # Concurrency contract
//
// Observe/ObserveBatch on distinct WindowIngester handles never contend.
// Rotate, Close, and Ingester minting serialize with each other. Queries
// (Estimate*, EstimateMany, QueryAll, and EpochView queries) are safe to
// call from any goroutine at any time — including during rotation — and
// serialize internally on one query mutex, because the per-shard
// estimators reuse scratch buffers. Sealed epochs are immutable, so a
// query never races ingest.
type ShardedWindow struct {
	cfg     Config
	nshards int
	epochs  int // the most sealed epochs the ring holds
	opts    ShardedOptions

	// ids derives flow IDs for the tuple ingest paths under opts.FlowHash.
	// It is keyed from the *base* cfg.Seed, not the per-epoch strided
	// seeds, and every epoch's shard set is built with it, so a flow keeps
	// one ID for the life of the window — windowed estimates sum the same
	// FlowID across sealed epochs, which only works if rotation never
	// re-keys the tuple hash.
	ids tupleHasher

	// mu serializes lifecycle transitions: Rotate, Close, and handle
	// minting. The packet path never takes it.
	mu      sync.Mutex
	handles []*WindowIngester
	closed  bool

	// ringMu guards the epoch lifecycle: the open epoch's shard set, the
	// sealed epochs and the rotation count below, and the retired-epoch
	// accumulators. Rotate takes the write side only for the final ring
	// push; queries take the read side briefly to snapshot the ring. Every
	// write also holds mu, so Rotate, Close and Ingester read cur and
	// rotations under mu alone.
	ringMu sync.RWMutex
	// cur is the open epoch's shard set, nil after Close.
	cur *sharded
	// sealed are the sealed epochs that back queries, oldest first, at most
	// epochs of them.
	sealed []*sealedEpoch
	// rotations counts every epoch ever sealed, retired ones included.
	rotations int

	// Cumulative totals of epochs retired from the ring, so the ledger
	// invariant spans the whole run, not just the epochs still queryable.
	retiredPackets uint64
	retiredDropped uint64
	retiredStats   Stats

	// queryMu serializes queries: sealed shard estimators reuse scratch
	// buffers, so concurrent queries must not interleave on them.
	// epochScratch is the epoch list a query runs over, and grp and sums are
	// the bulk queries' shard grouping and per-flow sums.
	queryMu      sync.Mutex
	epochScratch []*sealedEpoch
	grp          shardGroups
	sums         []float64
}

// NewShardedWindow builds a sliding window of `epochs` sealed epochs over
// nshards-way parallel ingest with default ingest options. nshards = 0
// selects GOMAXPROCS shards. cfg is the per-epoch budget: each live epoch
// owns a full shard set, and rotation double-buffers two of them briefly.
func NewShardedWindow(epochs, nshards int, cfg Config) (*ShardedWindow, error) {
	return NewShardedWindowOptions(epochs, nshards, cfg, ShardedOptions{})
}

// NewShardedWindowOptions is NewShardedWindow with explicit ingest options;
// the options (overflow policy, flow hash, hooks) apply to every epoch's
// shard set.
func NewShardedWindowOptions(epochs, nshards int, cfg Config, opts ShardedOptions) (*ShardedWindow, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("caesar: sharded window needs >= 1 epoch, got %d", epochs)
	}
	w := &ShardedWindow{cfg: cfg, nshards: nshards, epochs: epochs, opts: opts, ids: newTupleHasher(opts.FlowHash, cfg.Seed)}
	first, err := w.newEpochSharded(0)
	if err != nil {
		return nil, err
	}
	w.nshards = len(first.shards) // pin the GOMAXPROCS default for later epochs
	w.cur = first
	return w, nil
}

// newEpochSharded builds the shard set for the rotation-th epoch. Each
// rotation advances the epoch seed by nshards+1 seed strides, so that no
// (epoch, shard) pair ever reuses another pair's hash seed — newSharded
// derives shard i's seed at offset i from the epoch seed, and the next
// epoch starts beyond shard n-1's offset. Rotation 0 takes the base seed,
// and the seed depends only on the rotation ordinal, so a restored window
// resumes with exactly the seeds the writer would have used.
func (w *ShardedWindow) newEpochSharded(rotation int) (*sharded, error) {
	per := w.cfg
	stride := w.nshards + 1
	if stride < 2 {
		stride = 2
	}
	per.Seed = w.cfg.Seed + uint64(rotation*stride)*seedStride
	return newSharded(w.nshards, per, w.opts, w.ids)
}

// NumShards returns the per-epoch shard count.
func (w *ShardedWindow) NumShards() int { return w.nshards }

// EpochsSealed returns how many sealed epochs currently back queries.
func (w *ShardedWindow) EpochsSealed() int {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	return len(w.sealed)
}

// Rotations returns how many epochs have been sealed in total, including
// retired ones.
func (w *ShardedWindow) Rotations() int {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	return w.rotations
}

// Ingester returns a new per-producer ingest handle bound to the window.
// The handle survives rotations: Rotate re-points it at the next epoch's
// shard set, so producers hold one handle for the life of the window.
// Minting from a closed window panics.
func (w *ShardedWindow) Ingester() *WindowIngester {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("caesar: Ingester after Close")
	}
	wi := &WindowIngester{h: w.cur.Ingester()}
	w.handles = append(w.handles, wi)
	return wi
}

// HashTuple derives the flow ID the window's ingest paths would assign to
// the tuple: the keyed fast hash when opts.FlowHash == FlowHashFast, the
// paper-faithful SHA-1 ⊕ APHash derivation otherwise. The mapping is keyed
// from the base seed and fixed for the life of the window, so callers can
// hash once and query the same FlowID across rotations.
func (w *ShardedWindow) HashTuple(t FiveTuple) FlowID { return w.ids.id(t) }

// WindowIngester is a per-producer ingest handle that follows the window
// across rotations. It wraps the current epoch's handle; Rotate swaps
// the wrapped handle under the same mutex the packet path holds, so a
// call's packets (a whole block included) are never split between epochs
// and a swap never loses buffered packets (the old epoch's seal barrier
// drains them).
type WindowIngester struct {
	mu sync.Mutex
	h  *ingester // current epoch's handle, guarded by mu
}

// Observe records one packet in the window's current epoch. After the
// window closes, packets land in the final epoch's DroppedAfterClose
// ledger: a counted no-op that keeps the ledger invariant exact.
func (wi *WindowIngester) Observe(flow FlowID) { wi.observe([]FlowID{flow}, nil) }

// ObserveBatch records a batch of packets in the window's current epoch
// under one handle lock acquisition.
func (wi *WindowIngester) ObserveBatch(flows []FlowID) { wi.observe(flows, nil) }

// ObservePacket parses a 5-tuple and records one packet of its flow,
// deriving the flow ID with the window's configured FlowHash.
func (wi *WindowIngester) ObservePacket(t FiveTuple) { wi.observe(nil, []FiveTuple{t}) }

// ObservePackets is the fused tuple-level block ingest path of the windowed
// service: one call hashes the whole block of raw 5-tuples with the
// window-stable FlowHash and routes it into the current epoch.
func (wi *WindowIngester) ObservePackets(tuples []FiveTuple) { wi.observe(nil, tuples) }

// observe hands one call's packets to the current epoch's handle.
//
//caesar:hotpath the ingest entry of the live measurement service
func (wi *WindowIngester) observe(flows []FlowID, tuples []FiveTuple) {
	wi.mu.Lock()
	wi.h.observe(flows, tuples)
	wi.mu.Unlock()
}

// Flush pushes the handle's partially-filled buffers to the current
// epoch's shard workers, bounding how long a trickle of packets can stay
// invisible to queries of the *next* sealed epoch.
func (wi *WindowIngester) Flush() {
	wi.mu.Lock()
	wi.h.Flush()
	wi.mu.Unlock()
}

// swap re-points the handle at the next epoch. Holding wi.mu orders the
// swap after any in-flight Observe on the old epoch, so the old epoch's
// close barrier sees every packet this handle accepted for it.
func (wi *WindowIngester) swap(h *ingester) {
	wi.mu.Lock()
	wi.h = h
	wi.mu.Unlock()
}

// Rotate seals the current epoch and starts the next one. Producers keep
// ingesting throughout: the next epoch's shard set is built first, every
// handle is swapped onto it, and only then does the seal barrier drain and
// flush the old epoch. Queries gain the sealed epoch atomically once the
// barrier completes. Uses no deadline — with the Block overflow policy a
// wedged consumer can stall the seal; use RotateContext to bound it.
func (w *ShardedWindow) Rotate() error {
	return w.RotateContext(context.Background())
}

// RotateContext is Rotate with a deadline for the seal barrier. When ctx
// expires mid-seal, the old epoch's shutdown machinery takes over: blocked
// senders give up, undrained packets are counted in the sealed epoch's
// DroppedTimeout, and wedged shards are quarantined — the sealed epoch
// still joins the ring, answering from whatever state drained in time,
// and the ledger invariant holds exactly. The next epoch ingests normally
// either way. Returns ctx's error when the seal was cut short.
func (w *ShardedWindow) RotateContext(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("caesar: Rotate after Close")
	}
	next, err := w.newEpochSharded(w.rotations + 1)
	if err != nil {
		return err
	}
	old := w.cur
	// Arm the old epoch's abort latch before the swap: under Block, a
	// producer waiting on a full ring behind a wedged worker holds its
	// handle's mutex, and only the abort releases that wait.
	defer context.AfterFunc(ctx, old.triggerAbort)()
	for _, wi := range w.handles {
		wi.swap(next.Ingester())
	}
	closeErr := old.closeWith(ctx)
	w.sealInto(old, next)
	return closeErr
}

// sealInto seals the closed shard set into the query ring and installs
// next as the current epoch, retiring the oldest sealed epoch once the ring
// is full and folding its totals into the cumulative counters. Called with
// w.mu held; takes the ring write lock only for the push itself.
func (w *ShardedWindow) sealInto(old *sharded, next *sharded) {
	ep := old.seal(w.rotations)
	w.ringMu.Lock()
	if len(w.sealed) == w.epochs {
		retired := w.sealed[0]
		w.retiredPackets += retired.NumPackets()
		w.retiredDropped += retired.DroppedPackets()
		accumulateStats(&w.retiredStats, retired.Stats())
		// Delete zeroes the vacated slot, so the backing array keeps no
		// retired epoch.
		w.sealed = slices.Delete(w.sealed, 0, 1)
	}
	w.sealed = append(w.sealed, ep)
	w.rotations++
	w.cur = next
	w.ringMu.Unlock()
}

// Close seals the current epoch into the ring (folding its packets into
// the queryable window) and stops ingestion. Idempotent. Packets observed
// through a handle after Close are counted no-ops in the final epoch's
// ledger, so the accounting invariant stays exact. Use CloseContext to
// bound the final seal barrier.
func (w *ShardedWindow) Close() error {
	return w.CloseContext(context.Background())
}

// CloseContext is Close with a deadline for the final seal barrier, with
// RotateContext's cut-short semantics.
func (w *ShardedWindow) CloseContext(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	old := w.cur
	closeErr := old.closeWith(ctx)
	w.sealInto(old, nil)
	return closeErr
}

// NumPackets returns the packets applied across the window's lifetime:
// retired epochs plus the sealed ring. The still-open epoch is excluded —
// its counts cannot be read consistently while workers apply batches —
// so the figure is exact after Close (or covers everything up to the last
// Rotate before it).
func (w *ShardedWindow) NumPackets() uint64 {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := w.retiredPackets
	for _, ep := range w.sealed {
		n += ep.NumPackets()
	}
	return n
}

// DroppedPackets returns the packets counted as dropped across the
// window's lifetime: retired epochs, the sealed ring, and the still-open
// epoch's live ledger (its counters are atomics, so the read is safe at
// any time).
func (w *ShardedWindow) DroppedPackets() uint64 {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := w.retiredDropped
	for _, ep := range w.sealed {
		n += ep.DroppedPackets()
	}
	if w.cur != nil {
		n += w.cur.ledger.stats().dropped()
	}
	return n
}

// EffectiveLossRate returns dropped / (applied + dropped) over the
// window's lifetime — the live analogue of the paper's RCS loss rate ρ.
func (w *ShardedWindow) EffectiveLossRate() float64 {
	return lossRate(w.DroppedPackets(), w.NumPackets())
}

// Health reports the current epoch's worker-pool state, or the final
// sealed epoch's after Close.
func (w *ShardedWindow) Health() Health {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	if w.cur != nil {
		return w.cur.ledger.health()
	}
	if n := len(w.sealed); n > 0 {
		return w.sealed[n-1].ledger.health()
	}
	return Healthy
}

// Stats aggregates observability counters over the window's lifetime:
// retired epochs, the sealed ring, and the still-open epoch's loss ledger
// (only its atomic drop counters are read — per-shard cache statistics of
// the open epoch are deferred until its seal). DroppedPackets and
// EffectiveLossRate are recomputed over the aggregate.
func (w *ShardedWindow) Stats() Stats {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	agg := w.retiredStats
	for _, ep := range w.sealed {
		accumulateStats(&agg, ep.Stats())
	}
	var last *ledger
	if w.cur != nil {
		last = w.cur.ledger
		accumulateStats(&agg, last.stats())
	} else if n := len(w.sealed); n > 0 {
		last = w.sealed[n-1].ledger
	}
	if last != nil {
		agg.Health = last.health()
		agg.QuarantinedShards = last.quarantined()
	}
	agg.DroppedPackets = agg.dropped()
	agg.EffectiveLossRate = lossRate(agg.DroppedPackets, uint64(agg.Packets))
	return agg
}

// accumulateStats adds src's additive counters into dst. DroppedPackets and
// EffectiveLossRate are derived, and Health and QuarantinedShards are
// point-in-time states; callers set those after accumulation.
func accumulateStats(dst *Stats, src Stats) {
	dst.Packets += src.Packets
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.OverflowEvictions += src.OverflowEvictions
	dst.PressureEvictions += src.PressureEvictions
	dst.FlushEvictions += src.FlushEvictions
	dst.SRAMWrites += src.SRAMWrites
	dst.CacheKB += src.CacheKB
	dst.SRAMKB += src.SRAMKB
	dst.DroppedOverflow += src.DroppedOverflow
	dst.DroppedSampled += src.DroppedSampled
	dst.DroppedQuarantine += src.DroppedQuarantine
	dst.DroppedTimeout += src.DroppedTimeout
	dst.DroppedAfterClose += src.DroppedAfterClose
	dst.DroppedInjected += src.DroppedInjected
	dst.DroppedBatches += src.DroppedBatches
}

// dropped returns the sum of the per-cause drop counters.
func (st Stats) dropped() uint64 {
	return st.DroppedOverflow + st.DroppedSampled + st.DroppedQuarantine +
		st.DroppedTimeout + st.DroppedAfterClose + st.DroppedInjected
}

// snapshotEpochs copies the sealed ring, oldest first, into the query
// scratch. Called with queryMu held; takes the ring read lock only for the
// copy, so queries never block a rotation's seal barrier. The caller clears
// the returned scratch before it releases queryMu, so the scratch never
// keeps an epoch reachable after a later rotation retires it.
func (w *ShardedWindow) snapshotEpochs() []*sealedEpoch {
	w.ringMu.RLock()
	w.epochScratch = append(w.epochScratch[:0], w.sealed...)
	w.ringMu.RUnlock()
	return w.epochScratch
}

// Estimate returns the flow's estimated packet count summed over the
// sealed epochs. The still-open epoch is not included; Rotate (or Close)
// folds it in. Safe for concurrent use at any time, including during
// rotation.
func (w *ShardedWindow) Estimate(flow FlowID, m Method) float64 {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	epochs := w.snapshotEpochs()
	defer clear(epochs)
	var sum float64
	for _, ep := range epochs {
		sum += ep.Estimate(flow, m)
	}
	return sum
}

// EstimateWithInterval returns the windowed CSM estimate with a
// reliability-alpha confidence interval; per-epoch variances add because
// epochs hash with independent seeds.
func (w *ShardedWindow) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	z := stats.ZAlpha(alpha)
	epochs := w.snapshotEpochs()
	defer clear(epochs)
	var sum, varsum float64
	for _, ep := range epochs {
		est, iv := ep.intervalAt(flow, z)
		sum += est
		half := iv.Width() / 2
		varsum += (half / z) * (half / z)
	}
	half := z * math.Sqrt(varsum)
	return sum, Interval{Lo: sum - half, Hi: sum + half}
}

// EstimateLossAdjusted scales Estimate by 1/(1-EffectiveLossRate), the
// paper's Figure 7 correction, over the window's lifetime loss rate.
func (w *ShardedWindow) EstimateLossAdjusted(flow FlowID, m Method) float64 {
	return lossAdjusted(w.Estimate(flow, m), w.EffectiveLossRate())
}

// EstimateMany computes every flow's windowed estimate: the flows are
// grouped by owning shard once, then each group gets one bulk pass per
// sealed epoch. flows[i]'s estimate lands at index i, and the result is
// bit-identical to calling Estimate in a loop. dst is reused when it has
// capacity, and with a reused dst the steady state allocates nothing.
// Safe for concurrent use (queries serialize internally).
func (w *ShardedWindow) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return w.queryAllWindow(flows, m, 1, dst)
}

// QueryAll is EstimateMany with each epoch's per-shard bulk passes fanned
// out across workers goroutines (workers <= 0 means GOMAXPROCS). Output is
// bit-identical regardless of worker count.
func (w *ShardedWindow) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return w.queryAllWindow(flows, m, workers, dst)
}

func (w *ShardedWindow) queryAllWindow(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	epochs := w.snapshotEpochs()
	defer clear(epochs)
	return w.sumEpochs(epochs, flows, m, workers, dst)
}

// sumEpochs is the one bulk-query path of the window and its epoch views:
// every flow's estimate summed over epochs, in order, landing at the flow's
// input position in the result (dst reused when it has capacity). Each sum
// starts at +0 and adds the epochs' estimates in turn, as the scalar
// Estimate does, so the result is bit-identical to it; for a one-epoch list
// that is +0 + x, which is x bit for bit because CSM and MLM never return
// −0. Called with queryMu held: the shard grouping and the sums are query
// scratch.
func (w *ShardedWindow) sumEpochs(epochs []*sealedEpoch, flows []FlowID, m Method, workers int, dst []float64) []float64 {
	out := resizeFloats(dst, len(flows))
	clear(out)
	if len(flows) == 0 || len(epochs) == 0 {
		return out
	}
	cm := coreMethod(m)
	n := len(epochs[0].ests)
	if n == 1 {
		// One shard owns every flow, so there is nothing to group; each
		// epoch's estimator fans flow chunks out across workers itself. An
		// unrecoverable shard estimates 0, which adds nothing.
		part := w.sums
		for _, ep := range epochs {
			est := ep.ests[0]
			if est == nil {
				continue
			}
			part = est.e.QueryAll(flows, cm, workers, part)
			for i, v := range part {
				out[i] += v
			}
		}
		w.sums = part
		return out
	}

	// Every epoch routes with shardRouteSeed over the same shard count
	// (ReadShardedWindow rejects a snapshot whose epochs disagree), so one
	// grouping serves them all. Workers own whole shards — shard groups
	// write disjoint positions of out — and the serial path runs the shard
	// loop directly: handing a closure to bulk.Do would heap-allocate it and
	// break the steady-state zero-alloc contract.
	w.grp.group(epochs[0].router, flows)
	w.sums = resizeFloats(w.sums, len(flows))
	if nw := bulk.Workers(workers, n); nw <= 1 {
		w.sumShards(epochs, cm, 0, n, out)
	} else {
		bulk.Do(n, nw, func(_, s0, s1 int) { w.sumShards(epochs, cm, s0, s1, out) })
	}
	return out
}

// sumShards runs, for each shard in [s0, s1), that shard's bulk pass in
// every sealed epoch, in sealed order, accumulating into the grouped sums,
// then scatters each flow's sum to its input position in out. An
// unrecoverable shard estimates 0, and adding 0 to a sum that started at +0
// changes no bit, so its epoch is skipped.
func (w *ShardedWindow) sumShards(epochs []*sealedEpoch, cm core.Method, s0, s1 int, out []float64) {
	g := &w.grp
	for s := s0; s < s1; s++ {
		lo, hi := g.off[s], g.off[s+1]
		if lo == hi {
			continue
		}
		sum := w.sums[lo:hi]
		clear(sum)
		for _, ep := range epochs {
			est := ep.ests[s]
			if est == nil {
				continue
			}
			part := est.e.EstimateMany(g.flows[lo:hi], cm, g.vals[lo:hi])
			for j, v := range part {
				sum[j] += v
			}
		}
		for j, p := range g.pos[lo:hi] {
			out[p] = sum[j]
		}
	}
}

// Epochs returns a point-in-time view of the sealed epochs, oldest first.
// Views stay valid after later rotations (sealed epochs are immutable);
// a view's epoch may however already have been retired from the ring.
func (w *ShardedWindow) Epochs() []EpochView {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	views := make([]EpochView, 0, len(w.sealed))
	for _, ep := range w.sealed {
		views = append(views, EpochView{w: w, ep: ep})
	}
	return views
}

// LastSealed returns a view of the most recently sealed epoch, or ok=false
// when nothing has been sealed yet. The degraded read path in caesar-serve
// answers from this epoch (with loss-adjusted estimates and staleness
// headers) while the live epoch is unhealthy.
func (w *ShardedWindow) LastSealed() (EpochView, bool) {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := len(w.sealed)
	if n == 0 {
		return EpochView{}, false
	}
	return EpochView{w: w, ep: w.sealed[n-1]}, true
}

// EpochView is a frozen query handle over one sealed epoch — the unit the
// detectors consume (per-epoch heavy hitters, epoch-over-epoch change
// detection). All query methods serialize on the window's query mutex.
type EpochView struct {
	w  *ShardedWindow
	ep *sealedEpoch
}

// Rotation returns the epoch's 0-based ordinal since window construction.
func (v EpochView) Rotation() int { return v.ep.rotation }

// NumPackets returns the packets applied to this epoch's counters.
func (v EpochView) NumPackets() uint64 { return v.ep.NumPackets() }

// DroppedPackets returns this epoch's counted drops, by all causes.
func (v EpochView) DroppedPackets() uint64 { return v.ep.DroppedPackets() }

// Stats returns this epoch's full observability counters and loss ledger.
func (v EpochView) Stats() Stats { return v.ep.Stats() }

// Covered reports whether the flow's owning shard produced a query view in
// this epoch (false only for shards the seal built no view for).
func (v EpochView) Covered(flow FlowID) bool { return v.ep.Covered(flow) }

// Estimate returns the flow's estimated count within this epoch alone.
func (v EpochView) Estimate(flow FlowID, m Method) float64 {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.ep.Estimate(flow, m)
}

// EstimateWithInterval returns the epoch-local CSM estimate and interval.
// Flows that are not Covered return (0, zero interval). An alpha outside
// (0,1) panics for every flow, covered or not, as it does in
// ShardedWindow.EstimateWithInterval.
func (v EpochView) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.ep.intervalAt(flow, stats.ZAlpha(alpha))
}

// EstimateMany bulk-estimates every flow within this epoch alone;
// flows[i]'s estimate lands at index i.
func (v EpochView) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return v.QueryAll(flows, m, 1, dst)
}

// QueryAll is EstimateMany with the per-shard passes parallelized across
// workers goroutines; output is bit-identical at any worker count. The
// epoch goes through the window's bulk path as a one-epoch list kept in
// the query scratch (a slice literal here would allocate per call), and
// leaves it on return: the view's epoch may already be retired, and the
// window's scratch must not keep it reachable.
func (v EpochView) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	w := v.w
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	w.epochScratch = append(w.epochScratch[:0], v.ep)
	defer clear(w.epochScratch)
	return w.sumEpochs(w.epochScratch, flows, m, workers, dst)
}
