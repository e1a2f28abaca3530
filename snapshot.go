package caesar

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/epoch"
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

// shardedAlgoName identifies multi-shard snapshots in the CSNP container.
const shardedAlgoName = "caesar-sharded"

// windowAlgoName identifies sliding-window snapshots in the CSNP container.
const windowAlgoName = "caesar-window"

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

// Snapshot serializes every shard's end-of-epoch state into one snapshot.
// The Sharded must be closed first: snapshotting while workers are still
// draining would capture a torn state. Load with ReadShardedSnapshot.
func (s *Sharded) Snapshot(w io.Writer) (int64, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		return 0, fmt.Errorf("caesar: Snapshot before Close; call Close to drain ingestion first")
	}
	var e sketch.Encoder
	s.encodeState(&e)
	return sketch.WriteSnapshot(w, shardedAlgoName, e.Bytes())
}

// encodeState writes the closed shard set's complete state — shard count,
// every shard sketch, and the loss ledger — as sections into e. It is the
// payload of Snapshot and of each sealed epoch inside a ShardedWindow
// snapshot.
func (s *Sharded) encodeState(e *sketch.Encoder) {
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

// ReadShardedSnapshot loads a snapshot written by Sharded.Snapshot. The
// result is query-only: it accepts Estimator, Stats, and NumPackets calls
// and routes flows to shards exactly as the writer did, but it is already
// closed — minting an Ingester panics and Close is a no-op.
func ReadShardedSnapshot(r io.Reader) (*Sharded, error) {
	payload, _, err := sketch.ReadSnapshot(r, shardedAlgoName)
	if err != nil {
		return nil, err
	}
	return decodeShardedState(sketch.NewDecoder(payload))
}

// decodeShardedState rebuilds a query-only shard set from the sections
// written by encodeState. The decoder must be scoped to exactly that state
// (the whole payload for Snapshot, one epoch's section for a ShardedWindow
// snapshot): the optional trailing loss ledger is detected by the bytes
// remaining in this decoder.
func decodeShardedState(d *sketch.Decoder) (*Sharded, error) {
	var n int
	d.Section("conf", func(d *sketch.Decoder) { n = d.Int() })
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("caesar: implausible snapshot shard count %d", n)
	}
	s := &Sharded{
		shards:       make([]*Sketch, n),
		router:       hashing.NewShardRouter(n, shardRouteSeed),
		closed:       true,
		abort:        make(chan struct{}),
		shardDropped: make([]paddedCounter, n),
		shardDown:    make([]atomic.Uint32, n),
		panicReasons: make(map[int]string),
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

// SnapshotFile writes the sharded snapshot to path crash-safely: the bytes
// land in a temp file in the same directory, are fsynced, and are renamed
// over path atomically, so a crash mid-save leaves either the old file or
// the new one — never a torn CSNP that the loader would reject.
func (s *Sharded) SnapshotFile(path string) error {
	return WriteSnapshotFile(path, writerToFunc(s.Snapshot))
}

// SnapshotFile writes the sketch snapshot (Sketch.WriteTo) to path with the
// same crash-safe temp-file + fsync + atomic-rename discipline.
func (sk *Sketch) SnapshotFile(path string) error {
	return WriteSnapshotFile(path, sk)
}

// WriteSnapshotFile writes any snapshot source (Sketch, Sharded via
// SnapshotFile, Window, ...) to path atomically; see internal/snapfile for
// the crash-safety contract.
func WriteSnapshotFile(path string, src io.WriterTo) error {
	return snapfile.Write(path, src)
}

// writerToFunc adapts a WriteTo-shaped method to io.WriterTo.
type writerToFunc func(io.Writer) (int64, error)

func (f writerToFunc) WriteTo(w io.Writer) (int64, error) { return f(w) }

// WriteTo serializes the window's sealed epochs. The current, still-
// ingesting epoch is NOT included — exactly mirroring queries, which cover
// sealed epochs only; call Rotate first to fold it in. It implements
// io.WriterTo; load with ReadWindow.
func (w *Window) WriteTo(dst io.Writer) (int64, error) {
	var e sketch.Encoder
	e.Section("conf", func(e *sketch.Encoder) {
		e.Int(w.cfg.K)
		e.Int(w.cfg.Counters)
		e.Int(w.cfg.CounterBits)
		e.Int(w.cfg.CacheEntries)
		e.U64(w.cfg.CacheCapacity)
		e.U8(uint8(w.cfg.Policy))
		e.U64(w.cfg.Seed)
	})
	e.Section("wind", func(e *sketch.Encoder) {
		e.Int(w.lc.Capacity())
		e.Int(w.lc.Rotations())
		e.Int(w.lc.Len())
	})
	for i, n := 0, w.lc.Len(); i < n; i++ {
		e.Section("epok", w.lc.At(i).e.EncodeEstimatorState)
	}
	return sketch.WriteSnapshot(dst, windowAlgoName, e.Bytes())
}

// ReadWindow loads a snapshot written by Window.WriteTo. The sealed epochs
// answer queries bit-identically to the writer's; a fresh (empty) current
// epoch is started, so the window can keep measuring from where the
// snapshot left off.
func ReadWindow(r io.Reader) (*Window, error) {
	payload, _, err := sketch.ReadSnapshot(r, windowAlgoName)
	if err != nil {
		return nil, err
	}
	d := sketch.NewDecoder(payload)
	var cfg Config
	d.Section("conf", func(d *sketch.Decoder) {
		cfg.K = d.Int()
		cfg.Counters = d.Int()
		cfg.CounterBits = d.Int()
		cfg.CacheEntries = d.Int()
		cfg.CacheCapacity = d.U64()
		cfg.Policy = Policy(d.U8())
		cfg.Seed = d.U64()
	})
	var epochs, rotations, nSealed int
	d.Section("wind", func(d *sketch.Decoder) {
		epochs = d.Int()
		rotations = d.Int()
		nSealed = d.Int()
	})
	if err := d.Err(); err != nil {
		return nil, err
	}
	if cfg.Policy != LRU && cfg.Policy != Random {
		return nil, fmt.Errorf("caesar: snapshot has unknown policy %d", cfg.Policy)
	}
	if epochs < 1 {
		return nil, fmt.Errorf("caesar: snapshot window needs >= 1 epoch, got %d", epochs)
	}
	if nSealed < 0 || nSealed > epochs {
		return nil, fmt.Errorf("caesar: snapshot carries %d sealed epochs for a %d-epoch window", nSealed, epochs)
	}
	if rotations < nSealed {
		return nil, fmt.Errorf("caesar: snapshot rotations %d below sealed epoch count %d", rotations, nSealed)
	}
	sealed := make([]*Estimator, 0, nSealed)
	for i := 0; i < nSealed; i++ {
		var ce *core.Estimator
		var epochErr error
		d.Section("epok", func(d *sketch.Decoder) { ce, epochErr = core.DecodeEstimatorState(d) })
		if err := d.Err(); err != nil {
			return nil, err
		}
		if epochErr != nil {
			return nil, fmt.Errorf("caesar: sealed epoch %d: %w", i, epochErr)
		}
		sealed = append(sealed, &Estimator{e: ce})
	}
	// The current epoch restarts at the writer's rotation ordinal, so its
	// hash seed — and every later epoch's — matches what the writer would
	// have used had it kept running.
	cur, err := newEpochSketch(cfg, rotations)
	if err != nil {
		return nil, err
	}
	lc, err := epoch.RestoreLifecycle(epochs, sealed, rotations, cur)
	if err != nil {
		return nil, err
	}
	return &Window{cfg: cfg, lc: lc}, nil
}
