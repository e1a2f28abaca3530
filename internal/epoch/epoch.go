// Package epoch implements the epoch lifecycle of the sliding measurement
// window: a current epoch that ingests, a fixed-capacity ring of sealed
// epochs that answer queries, and the per-rotation hash-seed derivation
// that decorrelates sharing noise across epochs.
//
// Its one user is caesar.ShardedWindow, which seals a whole shard set
// (workers, queues, loss ledger) into a per-shard query view. The package
// stays generic over the current and sealed epoch types, which keeps the
// lifecycle — rotate, retire the oldest when the ring is full, count
// rotations forever — testable without the ingest plane.
package epoch

import "fmt"

// seedStride is the golden-ratio odd constant used to derive per-epoch
// (and, inside an epoch's shard set, per-shard) hash seeds: consecutive
// rotations get seeds far apart in the mixer's input space, so epochs map
// flows to independent counter sets and their sharing noises decorrelate.
const seedStride = 0x9e3779b97f4a7c15

// Seed derives the hash seed for the rotation-th epoch (rotation 0 is the
// first epoch) from the configured base seed. The derivation depends only
// on the rotation ordinal, so a window restored from a snapshot resumes
// with exactly the seeds the writer would have used.
func Seed(base uint64, rotation int) uint64 {
	return base + uint64(rotation)*seedStride
}

// Lifecycle tracks one current epoch of type C and a ring of at most
// `capacity` sealed epochs of type S, oldest first. It owns the rotation
// count; it does not know how to seal a C into an S — the caller performs
// the seal (flushing caches, draining workers, building estimators) and
// hands the lifecycle the sealed value together with the next current
// epoch.
//
// Lifecycle is not safe for concurrent use; callers that rotate and query
// from different goroutines (ShardedWindow) provide their own locking.
type Lifecycle[C, S any] struct {
	capacity  int
	cur       C
	sealed    []S // ring buffer, sealed[(start+i)%capacity] is the i-th oldest
	start     int
	n         int
	rotations int
}

// NewLifecycle builds a lifecycle retaining up to capacity sealed epochs,
// with first as the current epoch.
func NewLifecycle[C, S any](capacity int, first C) (*Lifecycle[C, S], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("epoch: lifecycle needs capacity >= 1, got %d", capacity)
	}
	return &Lifecycle[C, S]{
		capacity: capacity,
		cur:      first,
		sealed:   make([]S, capacity),
	}, nil
}

// Capacity returns the maximum number of sealed epochs retained.
func (l *Lifecycle[C, S]) Capacity() int { return l.capacity }

// Current returns the current (still-ingesting) epoch.
func (l *Lifecycle[C, S]) Current() C { return l.cur }

// Len returns how many sealed epochs currently back queries.
func (l *Lifecycle[C, S]) Len() int { return l.n }

// Rotations returns how many epochs have been sealed in total, including
// any that have since been retired from the ring.
func (l *Lifecycle[C, S]) Rotations() int { return l.rotations }

// Rotate seals the given value as the newest epoch, installs next as the
// current epoch, and retires the oldest sealed epoch when the ring is
// full. It returns the retired epoch (zero S and false when the ring had
// room).
func (l *Lifecycle[C, S]) Rotate(sealed S, next C) (retired S, wasRetired bool) {
	if l.n == l.capacity {
		retired = l.sealed[l.start]
		var zero S
		l.sealed[l.start] = zero
		l.start = (l.start + 1) % l.capacity
		l.n--
		wasRetired = true
	}
	l.sealed[(l.start+l.n)%l.capacity] = sealed
	l.n++
	l.rotations++
	l.cur = next
	return retired, wasRetired
}

// At returns the i-th sealed epoch, oldest first; i must be in [0, Len()).
func (l *Lifecycle[C, S]) At(i int) S {
	if i < 0 || i >= l.n {
		panic(fmt.Sprintf("epoch: sealed index %d out of range [0, %d)", i, l.n))
	}
	return l.sealed[(l.start+i)%l.capacity]
}

// AppendSealed appends the sealed epochs, oldest first, to dst and returns
// the extended slice — the iteration primitive for queries that want a
// stable view without holding the caller's lock.
func (l *Lifecycle[C, S]) AppendSealed(dst []S) []S {
	for i := 0; i < l.n; i++ {
		dst = append(dst, l.sealed[(l.start+i)%l.capacity])
	}
	return dst
}

// RestoreLifecycle rebuilds a lifecycle from snapshot state: the sealed
// epochs (oldest first), the all-time rotation count, and the current
// epoch. rotations must be at least len(sealed) — a window cannot have
// sealed more epochs than it rotated.
func RestoreLifecycle[C, S any](capacity int, sealed []S, rotations int, cur C) (*Lifecycle[C, S], error) {
	l, err := NewLifecycle[C, S](capacity, cur)
	if err != nil {
		return nil, err
	}
	if len(sealed) > capacity {
		return nil, fmt.Errorf("epoch: %d sealed epochs exceed capacity %d", len(sealed), capacity)
	}
	if rotations < len(sealed) {
		return nil, fmt.Errorf("epoch: rotation count %d below sealed epoch count %d", rotations, len(sealed))
	}
	copy(l.sealed, sealed)
	l.n = len(sealed)
	l.rotations = rotations
	return l, nil
}
