package caesar

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-sketch/caesar/internal/spsc"
)

// Ring tuning. The producer constants govern what a full ring costs a
// blocked producer; the worker constant governs how long an idle worker spins
// before parking on its wake channel.
const (
	// ringWorkerSpins is how many empty sweeps a shard worker tolerates
	// (yielding between them) before it publishes its parked flag and blocks.
	// Sized so a worker bridges the gap between two batches from a producer
	// running at line rate without ever touching the scheduler.
	ringWorkerSpins = 64
	// ringPushSpins is how many failed pushes a producer yields through
	// before backing off to sleeps; past this point the consumer is a full
	// ring behind and latency is dominated by its progress, not ours.
	ringPushSpins = 16
	// ringPushSleep is the producer's backoff once spinning gives up. Long
	// enough to cost nothing in CPU, short enough that a recovering consumer
	// restores line rate within microseconds.
	ringPushSleep = 50 * time.Microsecond
)

// workerSpins is ringWorkerSpins, collapsed to a single yield on single-CPU
// machines. Spinning only pays when the idle worker's yields can overlap a
// producer running on another core; with one core every extra Gosched from
// an idle worker is a timeslice taken from the producer that would refill
// its ring (at 4 workers the sweep-yield loop was costing a slow producer
// ~35% of the CPU), so there one yield to hand the core over is optimal.
var workerSpins = func() int {
	if runtime.NumCPU() == 1 {
		return 1
	}
	return ringWorkerSpins
}()

// ringShard is the consumer side of one shard's ring set: the rings of every
// registered ingester for that shard, plus the worker's parking machinery.
//
// Parking is a Dekker-style flag/re-check protocol. The worker publishes
// parked=1, then re-checks every ring before blocking on wake; a producer
// that completes a push checks parked and, if it wins the Swap back to 0,
// delivers a token on wake. Under Go's sequentially consistent atomics one of
// the two always observes the other: either the worker's re-check sees the
// pushed batch, or the producer's parked load sees 1 and wakes it — a missed
// wakeup would require the push to precede the re-check while the parked
// store both precedes the push's flag load and follows the re-check, which no
// total order allows.
type ringShard struct {
	mu sync.Mutex
	// rings is append-only, guarded by mu; gen is bumped on every append so
	// the worker can re-snapshot without taking mu on the hot path.
	rings []*spsc.Ring[shardBatch]
	gen   atomic.Uint64

	// parked is the worker's "I am about to block" flag (see above). Padded
	// away from the fields producers read on every push.
	_      [64]byte
	parked atomic.Uint32
	_      [60]byte

	// wake carries at most one token from a producer to the parked worker.
	wake chan struct{}
	// closing is closed by closeWith once every handle has been drained; the
	// worker exits when it observes closing with all rings drained.
	closing chan struct{}
}

func newRingShard() *ringShard {
	return &ringShard{
		wake:    make(chan struct{}, 1),
		closing: make(chan struct{}),
	}
}

// register adds a freshly minted handle ring to the shard's set. Callers hold
// s.mu (see sharded.Ingester), which orders registration against closeWith's
// closed flag; the gen bump is what the worker actually watches.
func (rs *ringShard) register(r *spsc.Ring[shardBatch]) {
	rs.mu.Lock()
	rs.rings = append(rs.rings, r)
	rs.gen.Add(1)
	rs.mu.Unlock()
}

// wakeWorker delivers a wake token if the worker has published its parked
// flag. Winning the Swap back to 0 makes exactly one producer responsible for
// the token, so the buffered channel never blocks a producer.
//
//caesar:hotpath one atomic load per delivered batch in the common case
func (rs *ringShard) wakeWorker() {
	if rs.parked.Load() != 0 && rs.parked.Swap(0) != 0 {
		select {
		case rs.wake <- struct{}{}:
		default:
		}
	}
}

// closingClosed reports whether the shutdown latch has tripped.
func (rs *ringShard) closingClosed() bool {
	select {
	case <-rs.closing:
		return true
	default:
		return false
	}
}

// tryPush offers one batch to this handle's ring for shard i and wakes the
// shard worker if it parked. Producer-side: caller holds h.mu.
//
//caesar:hotpath the lock-free batch hand-off
func (h *ingester) tryPush(i int, b shardBatch) bool {
	//caesar:ignore allocfree spsc.Ring.TryPush is annotated //caesar:hotpath and allocation-free (cursor math plus a slot store); the generic instantiation defeats the cross-package certification lookup
	if !h.rings[i].TryPush(b) {
		return false
	}
	h.s.ringShards[i].wakeWorker()
	return true
}

// pushWait delivers a batch with backpressure: it offers b to shard i's
// ring until the push lands, ctx expires, or the shutdown abort latch
// trips, in which case the batch is counted as a timed-out drop. The wait
// spins briefly (the common stall is the worker finishing one batch), then
// backs off to sleeps. Reports whether the push landed. Producer-side:
// caller holds h.mu.
func (h *ingester) pushWait(ctx context.Context, i int, b shardBatch) bool {
	s := h.s
	for spins := 0; ; {
		if h.tryPush(i, b) {
			return true
		}
		if ctx.Err() != nil || s.aborted() {
			s.dropBatch(i, len(b), &s.ledger.timeout)
			s.putBatch(b)
			return false
		}
		if spins < ringPushSpins {
			spins++
			runtime.Gosched()
		} else {
			// A full ring normally means the worker is awake and behind, but
			// nudge it anyway: the flag check is one load, and it closes the
			// (unreachable in steady state) window where a worker parks just
			// as its rings fill.
			s.ringShards[i].wakeWorker()
			time.Sleep(ringPushSleep)
		}
	}
}

// worker consumes shard i's ring set. A batch is applied under recover
// (applyBatch): a panicking shard is quarantined and the worker degrades
// into a counting drain, so producers blocked on its rings (and closeWith)
// never hang on a dead consumer and every abandoned packet is accounted. It
// returns only after the closing latch has tripped and every ring it has
// ever been shown is closed and empty, so once workerExited[i] closes every
// batch it was handed is either applied or counted.
func (s *sharded) worker(i int) {
	//caesar:ignore atomicdiscipline worker i is the sole closer of its own exit latch; no other goroutine ever closes or sends on workerExited[i]
	defer close(s.workerExited[i])
	rs := s.ringShards[i]
	var rings []*spsc.Ring[shardBatch]
	snapGen := ^uint64(0) // force the first snapshot
	quarantined := false
	idle := 0
	for {
		if g := rs.gen.Load(); g != snapGen {
			snapGen = g
			rs.mu.Lock()
			rings = append(rings[:0], rs.rings...)
			rs.mu.Unlock()
		}
		// Sweep: at most one batch per ring per pass keeps producers fair —
		// a handle pushing at line rate cannot starve its neighbors.
		progressed := false
		for _, r := range rings {
			b, ok := r.TryPop()
			if !ok {
				continue
			}
			progressed = true
			switch {
			case quarantined:
				// This shard's sketch panicked: degrade into a counting
				// drain.
				s.dropBatch(i, len(b), &s.ledger.quarantine)
				s.putBatch(b)
			case s.aborted():
				// Deadline-bounded shutdown gave up on queued work: count it
				// instead of applying it.
				s.dropBatch(i, len(b), &s.ledger.timeout)
				s.putBatch(b)
			default:
				if !s.applyBatch(i, b) {
					quarantined = true
				}
			}
		}
		if progressed {
			idle = 0
			continue
		}
		// Nothing to pop anywhere. Exit once shutdown has begun and the ring
		// set is final and fully drained; gen must still match so a ring
		// registered between our snapshot and the closed flag is never
		// abandoned (closing only trips after registration stops).
		if rs.closingClosed() && rs.gen.Load() == snapGen && allDrained(rings) {
			return
		}
		if idle < workerSpins {
			idle++
			runtime.Gosched()
			continue
		}
		// Park. Publish the flag, then re-check every wake source before
		// blocking — see the ringShard doc for why this cannot miss a wakeup.
		rs.parked.Store(1)
		if anyReady(rings) || rs.closingClosed() || rs.gen.Load() != snapGen || s.aborted() {
			rs.parked.Store(0)
			idle = 0
			continue
		}
		select {
		case <-rs.wake:
		case <-rs.closing:
		case <-s.abort:
		}
		rs.parked.Store(0)
		idle = 0
	}
}

// anyReady reports whether any ring holds a batch.
func anyReady(rings []*spsc.Ring[shardBatch]) bool {
	for _, r := range rings {
		if !r.Empty() {
			return true
		}
	}
	return false
}

// allDrained reports whether every ring is closed and empty.
func allDrained(rings []*spsc.Ring[shardBatch]) bool {
	for _, r := range rings {
		if !r.Drained() {
			return false
		}
	}
	return true
}
