package caesar

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/sketch"
	"github.com/caesar-sketch/caesar/internal/snapfile"
)

// This file implements checkpoint/restore for the public API, layered on
// the CSNP snapshot container (docs/SNAPSHOT.md). Snapshots realize the
// paper's two-phase architecture as two processes: a construction process
// observes traffic and writes its end-of-epoch state; a query process loads
// it — anywhere, any time later — and computes bit-identical estimates and
// confidence intervals.

// WriteTo serializes the sketch's complete end-of-epoch state, flushing the
// construction phase first. It implements io.WriterTo; load the snapshot
// with ReadSketch (or Sketch.ReadFrom) for estimates bit-identical to this
// sketch's.
func (sk *Sketch) WriteTo(w io.Writer) (int64, error) {
	return sk.s.WriteTo(w)
}

// ReadFrom replaces the sketch with the state read from a snapshot written
// by WriteTo. It implements io.ReaderFrom; on error the receiver is left
// unchanged. The loaded sketch is in its query phase: Observe panics.
func (sk *Sketch) ReadFrom(r io.Reader) (int64, error) {
	ns, n, err := core.ReadSketch(r)
	if err != nil {
		return n, err
	}
	sk.s = ns
	return n, nil
}

// ReadSketch loads a snapshot written by Sketch.WriteTo into a fresh sketch.
func ReadSketch(r io.Reader) (*Sketch, error) {
	s, _, err := core.ReadSketch(r)
	if err != nil {
		return nil, err
	}
	return &Sketch{s: s}, nil
}

// Estimate returns the flow's estimated size by the paper's default query
// method (CSM), flushing the construction phase first if needed. Use
// Estimator for MLM or confidence intervals.
func (sk *Sketch) Estimate(flow FlowID) float64 { return sk.s.Estimate(flow) }

// EstimateMany is the bulk counterpart of Estimate: the default CSM query
// for every flow in flows, with flows[i]'s estimate at index i of the
// result. It is bit-identical to calling Estimate in a loop and shares the
// same cached query view (invalidated by Flush, Merge, and ReadFrom). dst
// is reused as backing storage when it has capacity; see
// Estimator.EstimateMany for the full contract.
func (sk *Sketch) EstimateMany(flows []FlowID, dst []float64) []float64 {
	return sk.s.EstimateMany(flows, dst)
}

// encodeState writes the closed shard set's complete state — shard count,
// every shard sketch, and the loss ledger — as sections into e. It is the
// payload of each sealed epoch inside a ShardedWindow snapshot.
func (s *sharded) encodeState(e *sketch.Encoder) {
	e.Section("conf", func(e *sketch.Encoder) { e.Int(len(s.shards)) })
	for _, sk := range s.shards {
		e.Section("shrd", sk.s.EncodeState)
	}
	// Trailing optional section: the loss ledger and quarantine flags, so a
	// query process sees the same effective loss rate the construction
	// process measured. Written last so snapshots remain readable by loaders
	// that predate it (the section framing ignores trailing payload bytes).
	e.Section("loss", func(e *sketch.Encoder) {
		e.U64(s.drops.overflow.Load())
		e.U64(s.drops.sampled.Load())
		e.U64(s.drops.quarantine.Load())
		e.U64(s.drops.timeout.Load())
		e.U64(s.drops.afterClose.Load())
		e.U64(s.drops.injected.Load())
		e.U64(s.drops.batches.Load())
		perShard := make([]uint64, len(s.shards))
		down := make([]uint8, len(s.shards))
		for i := range s.shards {
			perShard[i] = s.ShardDropped(i)
			if i < len(s.shardDown) {
				down[i] = uint8(s.shardDown[i].Load())
			}
		}
		e.U64s(perShard)
		e.U8s(down)
	})
}

// decodeShardedState rebuilds a query-only shard set from the sections
// written by encodeState. The decoder must be scoped to exactly that state
// (one epoch's section of a ShardedWindow snapshot): the optional trailing
// loss ledger is detected by the bytes remaining in this decoder.
func decodeShardedState(d *sketch.Decoder) (*sharded, error) {
	var n int
	d.Section("conf", func(d *sketch.Decoder) { n = d.Int() })
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("caesar: implausible snapshot shard count %d", n)
	}
	s := &sharded{
		shards:       make([]*Sketch, n),
		router:       hashing.NewShardRouter(n, shardRouteSeed),
		closed:       true,
		abort:        make(chan struct{}),
		shardDropped: make([]paddedCounter, n),
		shardDown:    make([]atomic.Uint32, n),
	}
	for i := range s.shards {
		var cs *core.Sketch
		var shardErr error
		d.Section("shrd", func(d *sketch.Decoder) { cs, shardErr = core.DecodeSketchState(d) })
		if err := d.Err(); err != nil {
			return nil, err
		}
		if shardErr != nil {
			return nil, fmt.Errorf("caesar: shard %d: %w", i, shardErr)
		}
		s.shards[i] = &Sketch{s: cs}
	}
	// Optional trailing loss ledger (absent in snapshots written before the
	// overload-hardening work; those load with a zero ledger).
	if d.Remaining() > 0 {
		var perShard []uint64
		var down []uint8
		d.Section("loss", func(d *sketch.Decoder) {
			s.drops.overflow.Store(d.U64())
			s.drops.sampled.Store(d.U64())
			s.drops.quarantine.Store(d.U64())
			s.drops.timeout.Store(d.U64())
			s.drops.afterClose.Store(d.U64())
			s.drops.injected.Store(d.U64())
			s.drops.batches.Store(d.U64())
			perShard = d.U64s()
			down = d.U8s()
		})
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(perShard) != n || len(down) != n {
			return nil, fmt.Errorf("caesar: snapshot loss section covers %d/%d shards, want %d", len(perShard), len(down), n)
		}
		for i := 0; i < n; i++ {
			s.shardDropped[i].Store(perShard[i])
			if down[i] > 1 {
				return nil, fmt.Errorf("caesar: snapshot shard %d has invalid quarantine flag %d", i, down[i])
			}
			s.shardDown[i].Store(uint32(down[i]))
		}
	}
	return s, nil
}

// SnapshotFile writes the sketch snapshot (Sketch.WriteTo) to path
// crash-safely: temp file, fsync, atomic rename (see WriteSnapshotFile).
func (sk *Sketch) SnapshotFile(path string) error {
	return WriteSnapshotFile(path, sk)
}

// WriteSnapshotFile writes any snapshot source (a Sketch, a ShardedWindow,
// ...) to path atomically; see internal/snapfile for the crash-safety
// contract.
func WriteSnapshotFile(path string, src io.WriterTo) error {
	return snapfile.Write(path, src)
}
