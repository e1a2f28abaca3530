package caesar

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/spsc"
)

// sharded is one epoch's shard set inside a ShardedWindow: n independent
// CAESAR sketches, one worker goroutine per shard, with flows routed by
// hash so every flow lives in exactly one shard, and the configured budget
// divided among them (ShardedWindow's doc states the division).
//
// Packets enter through ingester handles. Each producer should hold its
// own: handles buffer privately per shard and hand full batches to the
// shard workers through their own SPSC rings, so they never contend with
// each other. A handle is also safe to share, in which case its callers
// serialize on its mutex. The window's seal is closeWith, which drains the
// workers (and every outstanding handle) and flushes the shards, then seal,
// which hands the flushed shards and the loss ledger to a sealedEpoch. The
// shard set is ingest machinery only: once sealed, nothing queries it, and
// it is garbage as soon as its last worker exits.
//
// # Overload and fault tolerance
//
// The ingest path degrades in bounded, accounted ways instead of failing
// silently (docs/ROBUSTNESS.md). The paper itself evaluates measurement
// under loss — RCS at empirical rates 2/3 and 9/10 because off-chip SRAM
// cannot keep line rate — and the same discipline applies here: every
// packet handed to an ingest entry point is either applied to a shard
// sketch or counted in the ledger, never lost without a trace. The
// sealed epoch's invariant
//
//	packets observed == NumPackets() + Stats().DroppedPackets
//
// holds exactly under queue overflow, worker panics, shutdown deadlines,
// and post-Close ingestion; the chaos suite (chaos_test.go) pins it under
// injected faults. Loss is surfaced as Stats().EffectiveLossRate, and the
// window's EstimateLossAdjusted corrects for it, mirroring the paper's
// lossy-RCS evaluation where estimates cover the recorded fraction of each
// flow.
type sharded struct {
	opts   ShardedOptions
	shards []*Sketch
	// ringShards hold the per-shard SPSC ring sets. Each registered
	// ingester owns one ring per shard, so every ring has exactly one
	// producer (the handle, serialized by its own mutex) and one consumer
	// (the shard worker).
	ringShards []*ringShard
	// router maps flows to shards: one seeded Mix64 and an exact
	// multiply-based modulo, with a block variant that pipelines the hashes
	// for a whole batch. Bit-identical to the historical
	// MixWithSeed(flow, seed) % n routing.
	router *hashing.ShardRouter

	// ids derives flow IDs for the tuple-level entry points under
	// opts.FlowHash.
	ids tupleHasher

	// batchPool recycles full batches handed to the shard workers back to
	// the producers, so steady-state ingest allocates no buffers.
	batchPool sync.Pool

	mu      sync.Mutex
	handles []*ingester // registered producer handles, guarded by mu
	closed  bool        // guarded by mu

	// abort is closed (once) when a deadline-bounded shutdown gives up on
	// stragglers: blocked producers fall out of their ring pushes and workers
	// discard still-queued batches, each counting its packets as timed-out
	// drops, so CloseContext's wait is bounded by the one batch a worker
	// may already be applying.
	abort     chan struct{}
	abortOnce sync.Once

	// ledger is the epoch's loss ledger. The sealed epoch keeps the same
	// one: a worker that a deadline-cut seal abandoned still counts drops
	// into it after the seal.
	ledger *ledger

	// workerExited[i] is closed when shard i's worker goroutine returns; a
	// deadline-bounded shutdown uses it to tell which shards are safe to
	// flush and query.
	workerExited []chan struct{}
}

// OverflowPolicy selects what a producer does when a shard's queue is full.
// The paper's own evaluation treats bounded, accounted loss as a first-class
// operating regime (RCS under 2/3 and 9/10 loss, Figure 7); Drop and Sample
// bring that regime to the ingest path, with every discarded packet counted
// so the estimator can report the effective loss rate.
type OverflowPolicy int

const (
	// Block waits for queue space: lossless, at the cost of backpressure
	// propagating to producers (the historical behavior, and the default).
	Block OverflowPolicy = iota
	// Drop discards the full batch when the shard queue has no space and
	// counts its packets in Stats.DroppedOverflow. Ingest latency stays
	// bounded; estimates cover the recorded fraction of each flow.
	Drop
	// Sample thins an overflowing batch to one packet in 8 before enqueueing
	// it (the enqueue of the thinned remainder may still block briefly).
	// The discarded packets are counted in Stats.DroppedSampled.
	Sample
)

// String names the policy for logs and reports.
func (p OverflowPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Sample:
		return "sample"
	default:
		return fmt.Sprintf("overflowpolicy(%d)", int(p))
	}
}

// Health is the coarse failure state of an epoch's shard workers (see
// ShardedWindow.Health). It only ever moves forward: Healthy → Degraded →
// Quarantined.
type Health int

const (
	// Healthy means every shard worker is live.
	Healthy Health = iota
	// Degraded means at least one shard has been quarantined after a worker
	// panic; surviving shards keep ingesting and answering queries, and the
	// quarantined shards' traffic is counted as dropped.
	Degraded
	// Quarantined means every shard worker has been quarantined; the epoch
	// can still seal and serve whatever state the shards held at the time
	// of their faults.
	Quarantined
)

// String names the health state for logs and reports.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// FlowHash selects the tuple → flow-ID derivation used by the tuple-level
// ingest entry points (WindowIngester.ObservePacket and ObservePackets, and
// ShardedWindow.HashTuple). Entry points that take pre-hashed FlowIDs
// (Observe, ObserveBatch) are unaffected: the choice only matters where the
// window itself turns packet headers into identifiers.
type FlowHash int

const (
	// FlowHashSHA1 (the default) derives flow IDs the way the paper does
	// (Section 6.1): SHA-1 over the 13-byte 5-tuple folded with APHash.
	// It is the reproduction-faithful choice — internal/expt and caesar-sim
	// always use it, so every committed result and golden fixture is pinned
	// to these IDs — but it costs ~180 ns/packet, roughly 7× the entire
	// rest of the ingest pipeline.
	FlowHashSHA1 FlowHash = iota
	// FlowHashFast derives flow IDs with hashing.FlowIDer: a keyed
	// SipHash-2-4 specialized to the 5-tuple, seeded from Config.Seed, at a
	// few ns/packet (with a block variant that pipelines independent hash
	// states). Statistically validated against SHA-1 — avalanche, bucket
	// uniformity, million-flow collision-freeness, and the abl-flowhash
	// accuracy experiment — but the IDs live in a different namespace:
	// never mix the two hashes within one measurement run.
	FlowHashFast
)

// String names the flow-hash selection for logs and flags.
func (f FlowHash) String() string {
	switch f {
	case FlowHashSHA1:
		return "sha1"
	case FlowHashFast:
		return "fast"
	default:
		return fmt.Sprintf("flowhash(%d)", int(f))
	}
}

// tupleHasher is a FlowHash choice bound to its key: the one place that
// decides between the paper's SHA-1 ⊕ APHash and the keyed fast hash.
type tupleHasher struct {
	fast bool
	ider hashing.FlowIDer
}

// newTupleHasher keys fh's derivation from seed (only the fast hash is
// keyed).
func newTupleHasher(fh FlowHash, seed uint64) tupleHasher {
	return tupleHasher{fast: fh == FlowHashFast, ider: hashing.NewFlowIDer(seed)}
}

// id derives one tuple's flow ID.
//
//caesar:hotpath per-packet flow-ID derivation on the tuple ingest path
func (th *tupleHasher) id(t FiveTuple) FlowID {
	if th.fast {
		return th.ider.ID(t)
	}
	return t.ID()
}

// block appends the flow IDs of tuples to dst; the fast hash pipelines
// independent hash states across the block (FlowIDer.IDBlock).
//
//caesar:hotpath block flow-ID derivation on the fused tuple ingest path
func (th *tupleHasher) block(dst []FlowID, tuples []FiveTuple) []FlowID {
	if th.fast {
		return th.ider.IDBlock(dst, tuples)
	}
	//caesar:ignore allocfree slices.Grow is a no-op once the caller's scratch has reached steady-state capacity
	dst = slices.Grow(dst, len(tuples))
	for _, t := range tuples {
		//caesar:ignore allocfree dst was pre-grown by len(tuples) just above; the append writes into reserved capacity
		dst = append(dst, t.ID())
	}
	return dst
}

// ShardedHooks are optional instrumentation and fault-injection points on
// the ingest path. Production deployments leave them zero; the chaos suite
// wires internal/faultinject's deterministic faults through them with no
// build tags. Hook functions must be safe for concurrent use: BeforeEnqueue
// runs on producer goroutines, OnWorkerBatch on shard workers.
type ShardedHooks struct {
	// BeforeEnqueue runs on the producer path before a full batch is
	// offered to its shard's queue. Returning false suppresses the batch,
	// whose packets are counted in Stats.DroppedInjected; sleeping here
	// models an ingest-path stall.
	BeforeEnqueue func(shard, packets int) bool
	// OnWorkerBatch runs on the shard worker immediately before a batch is
	// applied to the shard sketch. Sleeping models a slow consumer; a panic
	// exercises the quarantine machinery exactly like a real worker fault.
	OnWorkerBatch func(shard, packets int)
	// OnQuarantine fires once per shard of each epoch, on whichever
	// goroutine first quarantines it (worker recover, flush, estimator, or a
	// deadline-bounded seal), with the reason: the recovered panic value, or
	// the deadline that abandoned a still-running worker. The self-healing
	// service layer uses it to log the fault and kick the supervisor
	// without polling.
	// Must not block and must not call back into the window.
	OnQuarantine func(shard int, reason string)
}

// ShardedOptions selects the ingest plane's runtime behavior. The zero
// value is the lossless Block policy, the paper's SHA-1 flow IDs, and no
// hooks.
type ShardedOptions struct {
	// OverflowPolicy selects the full-queue behavior: Block (default,
	// lossless), Drop, or Sample.
	OverflowPolicy OverflowPolicy
	// FlowHash selects the tuple → flow-ID derivation of the tuple-level
	// ingest entry points: FlowHashSHA1 (default, paper-faithful) or
	// FlowHashFast (keyed SipHash-2-4, seeded from Config.Seed). Snapshots
	// store pre-hashed FlowIDs, so the choice is persisted with them:
	// ReadShardedWindowOptions rejects a checkpoint written under the other
	// FlowHash, whose flow IDs would address different flows.
	FlowHash FlowHash
	// Hooks installs fault-injection and instrumentation callbacks; the
	// zero value installs none.
	Hooks ShardedHooks

	// batchSize and queueDepth replace the ingest constants below when
	// nonzero; the package's tests set them to force overflow through tiny
	// rings.
	batchSize, queueDepth int
}

// The ingest constants; tests override the first two through
// ShardedOptions' unexported fields.
const (
	// shardBatchSize is the number of flow IDs a handle accumulates per
	// shard before handing the batch to the shard worker.
	shardBatchSize = 256
	// shardQueueDepth is the capacity in batches of each handle's ring to
	// each shard; once a shard falls this far behind a handle,
	// OverflowPolicy decides what the handle does. Swept for the SPSC rings
	// (queue_depth_sweep in BENCH_PR8.json): throughput is flat from 16 to
	// 256 batches within run-to-run noise.
	shardQueueDepth = 64
	// shardSampleRate is the Sample policy's keep ratio: 1 in 8.
	shardSampleRate = 8
)

func (o ShardedOptions) withDefaults() ShardedOptions {
	if o.batchSize == 0 {
		o.batchSize = shardBatchSize
	}
	if o.queueDepth == 0 {
		o.queueDepth = shardQueueDepth
	}
	return o
}

func (o ShardedOptions) validate() error {
	if o.OverflowPolicy < Block || o.OverflowPolicy > Sample {
		return fmt.Errorf("caesar: unknown ShardedOptions.OverflowPolicy %d", o.OverflowPolicy)
	}
	if o.FlowHash < FlowHashSHA1 || o.FlowHash > FlowHashFast {
		return fmt.Errorf("caesar: unknown ShardedOptions.FlowHash %d", o.FlowHash)
	}
	return nil
}

type shardBatch []FlowID

// shardRouteSeed is the fixed seed of the flow → shard hash. It predates the
// ShardRouter; the router reproduces MixWithSeed(flow, shardRouteSeed) % n
// bit-for-bit, so snapshots and golden results are unaffected.
const shardRouteSeed = 0x5ad5ad

// paddedCounter is an atomic.Uint64 alone on its 64-byte cache line. The
// drop-ledger counters are bumped from producer goroutines, shard workers,
// and the shutdown path concurrently; as plain adjacent atomics, counters for
// unrelated causes (or neighboring shards) would share a line and ping-pong
// it between cores under overload — exactly when the ledger is hottest.
type paddedCounter struct {
	atomic.Uint64
	_ [56]byte
}

// ledger is one epoch's loss ledger: every packet that entered an ingest
// entry point but will never reach a shard sketch, counted by cause and by
// shard, and which shards were quarantined. Every cause counts packets
// except batches, which counts whole batches discarded in one step. All
// counters are padded atomics: drops are recorded from producer goroutines,
// shard workers, and the shutdown path concurrently, and padding keeps one
// cause's traffic from invalidating another's cache line.
type ledger struct {
	overflow   paddedCounter // Drop policy: batch rejected on a full queue
	sampled    paddedCounter // Sample policy: packets thinned on overflow
	quarantine paddedCounter // packets abandoned by or routed to a quarantined shard
	timeout    paddedCounter // deadline-bounded seal casualties (RotateContext/CloseContext)
	afterClose paddedCounter // Observe/ObserveBatch after Close (counted no-op)
	injected   paddedCounter // batches suppressed by a BeforeEnqueue hook
	batches    paddedCounter // whole batches dropped, all causes

	// shardDropped[i] counts dropped packets that were destined for shard
	// i. Padded: neighboring shards' workers bump adjacent counters under
	// overload, and 8-byte atomics sharing a line would ping-pong it.
	shardDropped []paddedCounter
	// shardDown[i] is 1 once shard i's worker has been quarantined.
	shardDown []atomic.Uint32
}

// newLedger returns an empty ledger for n shards.
func newLedger(n int) *ledger {
	return &ledger{shardDropped: make([]paddedCounter, n), shardDown: make([]atomic.Uint32, n)}
}

// stats builds a Stats carrying only the per-cause counters, which are
// safe to read while workers are still applying batches.
func (l *ledger) stats() Stats {
	return Stats{
		DroppedOverflow:   l.overflow.Load(),
		DroppedSampled:    l.sampled.Load(),
		DroppedQuarantine: l.quarantine.Load(),
		DroppedTimeout:    l.timeout.Load(),
		DroppedAfterClose: l.afterClose.Load(),
		DroppedInjected:   l.injected.Load(),
		DroppedBatches:    l.batches.Load(),
	}
}

// quarantined counts the shards whose worker has been quarantined.
func (l *ledger) quarantined() int {
	n := 0
	for i := range l.shardDown {
		n += int(l.shardDown[i].Load())
	}
	return n
}

// health reports the worker pool's failure state. A fresh shard set is
// Healthy; the state only moves forward.
func (l *ledger) health() Health {
	down := l.quarantined()
	switch {
	case down == 0:
		return Healthy
	case down < len(l.shardDown):
		return Degraded
	default:
		return Quarantined
	}
}

// seedStride is the golden-ratio odd constant that spaces hash seeds: shard
// i of a shard set hashes under the set's seed plus i strides, and each
// rotation's shard set starts beyond the previous one's last shard, so no
// (epoch, shard) pair reuses another's seed and their sharing noises
// decorrelate.
const seedStride = 0x9e3779b97f4a7c15

// newSharded builds n shards from a total-budget config (n = 0 selects
// GOMAXPROCS shards) and starts their workers. The tuple hasher is supplied
// by the caller: a ShardedWindow hands every epoch its base-seed hasher, so
// a flow keeps one ID across rotations.
func newSharded(n int, cfg Config, opts ShardedOptions, ids tupleHasher) (*sharded, error) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("caesar: shard count must be >= 1, got %d", n)
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	counterBase, counterRem := cfg.Counters/n, cfg.Counters%n
	entryBase, entryRem := cfg.CacheEntries/n, cfg.CacheEntries%n
	if counterBase < 1 || entryBase < 1 {
		return nil, fmt.Errorf("caesar: budget too small for %d shards (counters=%d cacheEntries=%d)",
			n, cfg.Counters, cfg.CacheEntries)
	}
	s := &sharded{
		opts:         opts,
		shards:       make([]*Sketch, n),
		ringShards:   make([]*ringShard, n),
		router:       hashing.NewShardRouter(n, shardRouteSeed),
		ids:          ids,
		abort:        make(chan struct{}),
		ledger:       newLedger(n),
		workerExited: make([]chan struct{}, n),
	}
	for i := range s.shards {
		// Spread the division remainders across the first shards so no part
		// of the configured budget is silently dropped.
		per := cfg
		per.Counters = counterBase
		if i < counterRem {
			per.Counters++
		}
		per.CacheEntries = entryBase
		if i < entryRem {
			per.CacheEntries++
		}
		per.Seed = cfg.Seed + uint64(i)*seedStride
		sk, err := New(per)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sk
		s.ringShards[i] = newRingShard()
		s.workerExited[i] = make(chan struct{})
	}
	for i := range s.shards {
		go s.worker(i)
	}
	return s, nil
}

// applyBatch runs one batch through shard i under recover, reporting
// whether the shard survived. On a panic, the packets of the batch that
// were not applied before the fault are counted as quarantine drops, so the
// observed == counted + dropped invariant holds at packet granularity even
// for a fault in the middle of a batch.
func (s *sharded) applyBatch(i int, batch shardBatch) (ok bool) {
	sk := s.shards[i]
	before := sk.NumPackets()
	defer func() {
		if r := recover(); r != nil {
			applied := sk.NumPackets() - before
			short := uint64(len(batch)) - applied
			s.ledger.quarantine.Add(short)
			s.ledger.shardDropped[i].Add(short)
			s.ledger.batches.Add(1)
			s.quarantineShard(i, fmt.Sprintf("%v", r))
			ok = false
		}
	}()
	if hook := s.opts.Hooks.OnWorkerBatch; hook != nil {
		hook(i, len(batch))
	}
	sk.ObserveBatch(batch)
	s.putBatch(batch)
	return true
}

// quarantineShard marks shard i down; the first quarantine of a shard
// hands its reason to the OnQuarantine hook.
func (s *sharded) quarantineShard(i int, reason string) {
	if s.ledger.shardDown[i].CompareAndSwap(0, 1) {
		if hook := s.opts.Hooks.OnQuarantine; hook != nil {
			hook(i, reason)
		}
	}
}

// aborted reports whether a deadline-bounded shutdown has tripped the abort
// latch.
func (s *sharded) aborted() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// triggerAbort trips the abort latch exactly once.
func (s *sharded) triggerAbort() {
	s.abortOnce.Do(func() { close(s.abort) })
}

// dropBatch accounts one whole batch of n packets destined for shard i as
// dropped for the given cause.
func (s *sharded) dropBatch(i, n int, cause *paddedCounter) {
	cause.Add(uint64(n))
	s.ledger.shardDropped[i].Add(uint64(n))
	s.ledger.batches.Add(1)
}

// getBatch returns an empty batch with batchSize capacity, recycled from
// the pool when one is available.
func (s *sharded) getBatch() shardBatch {
	if bp, _ := s.batchPool.Get().(*shardBatch); bp != nil {
		return (*bp)[:0]
	}
	//caesar:ignore allocfree cold fallback when the pool is empty; the steady state recycles batches through putBatch
	return make(shardBatch, 0, s.opts.batchSize)
}

// putBatch returns a consumed batch to the pool.
func (s *sharded) putBatch(b shardBatch) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	//caesar:ignore allocfree stores a *shardBatch pointer in the iface data word; pointer-to-any conversion does not heap-allocate
	s.batchPool.Put(&b)
}

// Ingester returns a new per-producer ingest handle. Handles own private
// per-shard fill buffers, so producers holding distinct handles never
// contend with each other on the packet path — the handle's mutex is
// uncontended except at the closeWith rendezvous. closeWith drains every
// handle's buffered packets. Minting a new handle from a closed shard set
// is a programming error and panics; observing through an existing handle
// after closeWith is a counted no-op.
func (s *sharded) Ingester() *ingester {
	batches := make([]shardBatch, len(s.shards))
	rings := make([]*spsc.Ring[shardBatch], len(s.shards))
	for i := range batches {
		batches[i] = s.getBatch()
		rings[i] = spsc.New[shardBatch](s.opts.queueDepth)
	}
	h := &ingester{s: s, rings: rings, batches: batches}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("caesar: Ingester after Close")
	}
	// Register the handle's private SPSC rings with the shard workers.
	// Registration must stay inside the closed check's critical section:
	// closeWith sets closed under mu before it closes the per-shard closing
	// latches, so a ring registered here is always seen (and drained) by its
	// worker before that worker may exit.
	for i, r := range rings {
		s.ringShards[i].register(r)
	}
	s.handles = append(s.handles, h)
	return h
}

// ingester is a per-producer ingest handle for one shard set; a
// WindowIngester wraps the current epoch's. It is safe for concurrent use,
// but its point is the opposite: give each producer goroutine its own
// handle and the packet path never contends — ingest is a buffered append
// behind a mutex no other producer touches, and only a full batch (every
// 256 packets per shard) reaches shared state.
type ingester struct {
	s *sharded

	// rings are this handle's private SPSC hand-off rings, one per shard.
	// The handle is the sole producer of each — every push and the eventual
	// Close happen under mu — and the shard worker is the sole consumer,
	// which is exactly the SPSC contract.
	rings []*spsc.Ring[shardBatch]

	mu       sync.Mutex
	batches  []shardBatch // per-shard private fill buffers, guarded by mu
	routeBuf []uint32     // block-routing scratch, guarded by mu
	idBuf    []FlowID     // tuple block-hashing scratch, guarded by mu
	closed   bool         // guarded by mu
}

// observe is the one ingest body behind every WindowIngester entry point:
// it hashes the tuples when given tuples instead of flows, computes the
// shard of every flow as one block (RouteBlock: the routing hashes are
// data-independent, so the tight loop pipelines where a per-packet
// hash→buffer sequence would serialize on each hash's latency;
// bit-identical to Route per flow), appends each flow to its shard's
// buffer, and enqueues every buffer that fills.
//
// After Close, every call is a counted no-op: the packets are discarded
// and accounted in Stats.DroppedAfterClose, so racing producers that lose
// the Close rendezvous keep the observed == counted + dropped invariant
// instead of crashing the process.
//
//caesar:hotpath the ingest body of every WindowIngester entry point
func (h *ingester) observe(flows []FlowID, tuples []FiveTuple) {
	if len(flows) == 0 && len(tuples) == 0 {
		return
	}
	h.mu.Lock()
	if len(tuples) > 0 {
		h.idBuf = h.s.ids.block(h.idBuf[:0], tuples)
		flows = h.idBuf
	}
	h.routeBuf = h.s.router.RouteBlock(flows, h.routeBuf[:0])
	if h.closed {
		for _, i := range h.routeBuf {
			h.s.dropAfterClose(int(i))
		}
		h.mu.Unlock()
		return
	}
	for j, flow := range flows {
		i := int(h.routeBuf[j])
		//caesar:ignore allocfree per-shard batches are minted with batchSize capacity and swapped out exactly at len==cap, so this append never grows
		b := append(h.batches[i], flow)
		if len(b) == cap(b) {
			h.batches[i] = h.s.getBatch()
			h.enqueue(i, b)
		} else {
			h.batches[i] = b
		}
	}
	h.mu.Unlock()
}

// dropAfterClose accounts one post-Close packet destined for shard i.
func (s *sharded) dropAfterClose(i int) {
	s.ledger.afterClose.Add(1)
	s.ledger.shardDropped[i].Add(1)
}

// Flush pushes the handle's partially-filled buffers to the shard workers
// without closing the handle, bounding how long a trickle of packets can
// sit invisible in a producer's buffers. The pushes respect the overflow
// policy, exactly like a full batch. No-op after Close.
func (h *ingester) Flush() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for i, b := range h.batches {
		if len(b) > 0 {
			h.batches[i] = h.s.getBatch()
			h.enqueue(i, b)
		}
	}
}

// enqueue hands one full batch to shard i's worker through the handle's
// ring, applying the overflow policy. Hook suppression and policy drops are
// counted; a blocking push can be cut short only by the shutdown abort
// latch, in which case the batch counts as a timeout drop. Called with h.mu
// held, which is what makes it safe against closeWith: closeWith cannot
// drain this handle (and therefore cannot close its rings) until h.mu is
// released, so the push always lands on an open ring.
//
//caesar:hotpath hands off one full batch per batchSize packets
func (h *ingester) enqueue(i int, b shardBatch) {
	s := h.s
	if hook := s.opts.Hooks.BeforeEnqueue; hook != nil && !hook(i, len(b)) {
		s.dropBatch(i, len(b), &s.ledger.injected)
		s.putBatch(b)
		return
	}
	switch s.opts.OverflowPolicy {
	case Drop:
		if !h.tryPush(i, b) {
			s.dropBatch(i, len(b), &s.ledger.overflow)
			s.putBatch(b)
		}
	case Sample:
		if !h.tryPush(i, b) {
			h.pushWait(context.Background(), i, s.thinBatch(i, b))
		}
	default: // Block
		h.pushWait(context.Background(), i, b)
	}
}

// thinBatch applies the Sample policy to an overflowing batch in place: one
// packet in every shardSampleRate is kept (the write index never catches the
// read index) and the discarded remainder is accounted to shard i.
func (s *sharded) thinBatch(i int, b shardBatch) shardBatch {
	kept := b[:0]
	for j := 0; j < len(b); j += shardSampleRate {
		//caesar:ignore allocfree kept reuses b's backing array and its write index never passes the read index, so this append never grows
		kept = append(kept, b[j])
	}
	thinned := len(b) - len(kept)
	s.ledger.sampled.Add(uint64(thinned))
	s.ledger.shardDropped[i].Add(uint64(thinned))
	return kept
}

// drain marks the handle closed and pushes its buffered packets to the
// shard workers, waiting for ring space (shutdown wants maximum fidelity,
// so neither the overflow policy nor the BeforeEnqueue hook applies here).
// The pushes give up when ctx expires or the abort latch trips, counting
// the remaining buffers as timed-out drops. Called only by closeWith;
// reports whether any buffer was dropped on the deadline.
func (h *ingester) drain(ctx context.Context) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.closed = true
	hit := false
	for i, b := range h.batches {
		switch {
		case len(b) == 0:
		case hit:
			// The deadline already fired: count without re-waiting.
			h.s.dropBatch(i, len(b), &h.s.ledger.timeout)
		default:
			hit = !h.pushWait(ctx, i, b)
		}
		h.batches[i] = nil
	}
	// Close this handle's rings (a producer-side operation, legal here under
	// h.mu): the shard workers will pop whatever the rings still hold, then
	// observe Drained once the per-shard closing latch trips.
	for _, r := range h.rings {
		r.Close()
	}
	return hit
}

// closeWith drains every registered ingester handle, stops the workers,
// and flushes every shard's cache to its counters: the first half of the
// seal of RotateContext and CloseContext, before seal. Under a context
// that never expires it never gives up on queued work: with the Block
// policy it waits for stalled consumers indefinitely. When ctx expires
// before the drain completes, the abort latch trips: blocked producers
// give up, workers discard still-queued batches, and every abandoned
// packet is counted in Stats.DroppedTimeout — so a stalled consumer cannot
// hang shutdown, and nothing is silently lost. A worker wedged mid-batch
// (a goroutine cannot be killed) is abandoned after a short grace and its
// shard quarantined; when it eventually finishes, its applied packets
// surface in the sealed epoch's NumPackets and the rest of its queue
// drains as counted drops, restoring the exact accounting invariant.
// Returns nil when everything drained in time, or ctx's error when the
// deadline cut the drain short; the shard set is closed either way, and
// its sealed epoch answers from the shards whose workers finished.
// Idempotent: later calls return nil.
func (s *sharded) closeWith(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	handles := s.handles
	s.handles = nil
	s.mu.Unlock()
	// Trip the abort latch the moment the deadline fires, for the whole
	// duration of the close. This is what keeps the handle drains below
	// deadlock-free — a producer blocked inside enqueue holds its handle
	// mutex while waiting for ring space, so the drain cannot take that
	// mutex until the abort releases the blocked push.
	defer context.AfterFunc(ctx, s.triggerAbort)()
	timedOut := false
	// Drain the handles: each drain takes the handle mutex, so it serializes
	// after any in-flight ingest call on that handle, and marks the handle
	// closed so later observers get the documented counted no-op.
	for _, h := range handles {
		if h.drain(ctx) {
			timedOut = true
		}
	}
	for _, rs := range s.ringShards {
		// Trip the per-shard closing latch: every handle has been drained (and
		// its rings closed) above, and no handle can be minted after the
		// closed flag we set under mu, so the ring set each worker sees is
		// final — the worker wakes if parked, drains what remains, and exits.
		//caesar:ignore atomicdiscipline closeWith runs once (guarded by the closed flag under mu), so nothing can race this close
		close(rs.closing)
	}
	if !s.awaitWorkers(ctx) {
		timedOut = true
	}
	for i := range s.shards {
		if s.workerDone(i) {
			s.safeFlush(i)
		} else {
			// The deadline abandoned this worker mid-batch (wedged consumer).
			// Its shard cannot be flushed or queried safely while the worker
			// may still touch it, so it joins the quarantine; when the worker
			// eventually finishes, its applied packets surface in NumPackets
			// and the remaining queue drains as counted drops.
			s.quarantineShard(i, "shutdown deadline exceeded with the worker still running")
		}
	}
	if s.aborted() && ctx.Err() != nil {
		// The deadline tripped the abort mid-close: blocked senders counted
		// their batches as timeout drops even if every explicit wait above
		// happened to finish — report the cut-short close either way.
		timedOut = true
	}
	if timedOut {
		return fmt.Errorf("caesar: close cut short by deadline, timed-out packets counted as dropped: %w", ctx.Err())
	}
	return nil
}

// workerDone reports whether shard i's worker goroutine has returned.
func (s *sharded) workerDone(i int) bool {
	select {
	case <-s.workerExited[i]:
		return true
	default:
		return false
	}
}

// awaitWorkers waits for every shard worker to exit. If ctx expires first
// it trips the abort latch — turning workers into counting drains — grants
// one short grace for anything not truly wedged, and then abandons the
// wait: a consumer wedged mid-batch cannot hang a deadline-bounded shutdown
// (its shard is quarantined instead). Reports whether every worker exited
// before the deadline.
func (s *sharded) awaitWorkers(ctx context.Context) bool {
	var grace <-chan time.Time
	for _, exited := range s.workerExited {
		if grace == nil {
			select {
			case <-exited:
				continue
			case <-ctx.Done():
				s.triggerAbort()
				grace = time.After(10 * time.Millisecond)
			}
		}
		select {
		case <-exited:
		case <-grace:
			return false
		}
	}
	return grace == nil
}

// safeFlush flushes shard i's cache under recover: a shard whose state was
// torn by a worker fault must not take down the shutdown of the survivors.
// A panicking flush quarantines the shard (if the worker fault had not
// already).
func (s *sharded) safeFlush(i int) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantineShard(i, fmt.Sprintf("flush: %v", r))
		}
	}()
	s.shards[i].Flush()
}

// lossRate returns dropped / (dropped + applied), the ingest path's
// analogue of the paper's RCS loss rate ρ; 0 for a lossless run.
func lossRate(dropped, applied uint64) float64 {
	if dropped == 0 {
		return 0
	}
	return float64(dropped) / (float64(dropped) + float64(applied))
}

// lossAdjusted is the Figure 7 correction est/(1-rho): the raw estimate
// when nothing was lost, 0 when everything was.
func lossAdjusted(est, rho float64) float64 {
	switch {
	case rho <= 0:
		return est
	case rho >= 1:
		return 0
	}
	return est / (1 - rho)
}

// seal builds the sealed epoch of a closed shard set: its flushed shards,
// router and loss ledger, and one query view per shard. Only a closed shard
// set is sealed, so no handle or worker applies packets to a shard with a
// view. Quarantined shards answer from their last consistent state; a shard
// whose state is unrecoverable gets a nil view (its flows estimate 0, and
// Covered reports false for them). The sealed epoch keeps none of the
// ingest machinery, so the shard set is garbage once its workers exit.
func (s *sharded) seal(rotation int) *sealedEpoch {
	ests := make([]*Estimator, len(s.shards))
	for i, sk := range s.shards {
		ests[i] = s.safeEstimator(i, sk)
	}
	return &sealedEpoch{rotation: rotation, router: s.router, shards: s.shards, ests: ests, ledger: s.ledger}
}

// safeEstimator builds shard i's query view under recover: a shard whose
// state was torn by a worker fault yields a nil view instead of taking the
// whole query phase down.
func (s *sharded) safeEstimator(i int, sk *Sketch) (est *Estimator) {
	if !s.workerDone(i) {
		// A deadline-abandoned worker may still be applying a batch; its
		// shard was quarantined by the timed-out close and cannot be read
		// until the worker exits.
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.quarantineShard(i, fmt.Sprintf("estimator: %v", r))
			est = nil
		}
	}()
	return sk.Estimator()
}
