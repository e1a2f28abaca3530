// Package spsc provides a bounded lock-free single-producer single-consumer
// ring buffer, the per-(ingest handle, shard) hand-off queue behind
// ShardedWindow's line-rate ingest path.
//
// The design is the classic cached-cursor SPSC queue (Rigtorp-style):
//
//   - head and tail are monotonically increasing uint64 cursors; the slot for
//     cursor c is buf[c & mask] with a power-of-two capacity, so the full and
//     empty conditions are tail-head == cap and tail == head with no wasted
//     slot and no ABA concern (wrapping a uint64 at line rate takes decades).
//   - the producer owns tail and keeps a private cache of head; it reloads
//     the shared head only when the cached copy says the ring looks full.
//     The consumer mirrors this with a private cache of tail. In steady state
//     each side touches the shared cursor of the other only once per
//     capacity-sized burst, so the cursors' cache lines stay in the M state
//     of their owning core instead of ping-ponging.
//   - head, tail, and the closed flag live on separate cache lines (64-byte
//     padding) so producer and consumer never falsely share a line.
//
// All cross-goroutine loads and stores go through sync/atomic, which in Go
// guarantees sequential consistency — strictly stronger than the
// acquire/release ordering the algorithm needs (publish the element store
// before the tail store; observe the tail store before the element load) —
// and is the memory model the race detector understands.
package spsc

import (
	"sync/atomic"
)

// cacheLine is the assumed size of a CPU cache line. 64 bytes is correct for
// every amd64 and most arm64 parts; being wrong only costs a little padding.
const cacheLine = 64

// noCopy triggers `go vet -copylocks` on value copies of Ring, which would
// silently split the producer and consumer onto different cursor sets.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Ring is a bounded lock-free SPSC queue of T. Exactly one goroutine may call
// the producer methods (TryPush, Close) and exactly one goroutine the
// consumer methods (TryPop); any number may call the observers (Closed,
// Empty, Len, Cap). The zero value is unusable — use New.
type Ring[T any] struct {
	_ noCopy

	buf  []T
	mask uint64

	// Consumer cursor, owned (stored) by the consumer only.
	head atomic.Uint64
	_    [cacheLine - 8]byte

	// Producer cursor, owned (stored) by the producer only.
	tail atomic.Uint64
	_    [cacheLine - 8]byte

	// closed is set once by the producer; the consumer drains then stops.
	closed atomic.Uint32
	_      [cacheLine - 4]byte

	// headCache is the producer's private copy of head. Not atomic: only the
	// producer touches it.
	headCache uint64
	_         [cacheLine - 8]byte

	// tailCache is the consumer's private copy of tail. Not atomic: only the
	// consumer touches it.
	tailCache uint64
	_         [cacheLine - 8]byte
}

// New returns a ring holding up to capacity elements. Capacity is rounded up
// to the next power of two, with a floor of 1 (a one-slot ring has mask 0, and
// the monotone cursors still tell full from empty). It panics if capacity is
// negative or rounds beyond 2^62 (a programming error; real queue depths are
// tiny).
func New[T any](capacity int) *Ring[T] {
	if capacity < 0 {
		panic("spsc: negative capacity")
	}
	c := uint64(1)
	for c < uint64(capacity) {
		c <<= 1
		if c > 1<<62 {
			panic("spsc: capacity too large")
		}
	}
	return &Ring[T]{buf: make([]T, c), mask: c - 1}
}

// Cap returns the fixed capacity of the ring.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// TryPush appends v and reports whether it fit. It must only be called by the
// producer goroutine. Pushing to a closed ring panics: Close is a producer
// method, so this can only be a use-after-close bug on the producer side.
//
//caesar:hotpath the per-batch hand-off into a shard worker
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() != 0 {
		panic("spsc: push on closed ring")
	}
	tail := r.tail.Load()
	if tail-r.headCache == uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if tail-r.headCache == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	return true
}

// TryPop removes the oldest element and reports whether one was present. It
// must only be called by the consumer goroutine.
//
//caesar:hotpath the shard worker's dequeue
func (r *Ring[T]) TryPop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.tailCache {
		r.tailCache = r.tail.Load()
		if head == r.tailCache {
			return zero, false
		}
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero // drop the reference so the GC can reclaim it
	r.head.Store(head + 1)
	return v, true
}

// Close marks the ring closed. Producer method; idempotent. Elements already
// in the ring remain poppable — closed means "no more pushes", not "empty".
func (r *Ring[T]) Close() { r.closed.Store(1) }

// Closed reports whether Close has been called. Safe from any goroutine.
func (r *Ring[T]) Closed() bool { return r.closed.Load() != 0 }

// Empty reports whether the ring currently holds no elements. Safe from any
// goroutine, but inherently racy unless the caller knows the producer has
// stopped (e.g. after Closed() returns true).
func (r *Ring[T]) Empty() bool { return r.head.Load() == r.tail.Load() }

// Drained reports whether the ring is closed and empty — the consumer's exit
// condition. The order of the two loads matters: closed is read first, so a
// concurrent push-then-close cannot slip between the checks and be missed.
func (r *Ring[T]) Drained() bool { return r.Closed() && r.Empty() }

// Len returns the number of buffered elements. Racy by nature; intended for
// stats and tests.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }
