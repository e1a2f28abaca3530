package caesar

import (
	"fmt"
	"io"
	"slices"

	"github.com/caesar-sketch/caesar/internal/sketch"
)

// shardedWindowAlgoName identifies live-service window snapshots in the
// CSNP container.
const shardedWindowAlgoName = "caesar-shardedwindow"

// WriteTo serializes the window's sealed epochs — each one's shard
// sketches and loss ledger — plus the retired-epoch accumulators and the
// FlowHash, so a restored window (or an offline query process) answers
// bit-identically to the live one and the lifetime ledger survives the
// restart. The still-open epoch is NOT included, exactly mirroring
// queries; call Rotate (or Close) first to fold it in.
//
// A sealed epoch whose seal built no query view for a shard (a deadline
// abandoned its worker, or its flush or estimator panicked) cannot be
// checkpointed: while one is in the ring, WriteTo writes nothing and
// returns an error naming the epoch's rotation and the shard. Checkpoints
// resume once that epoch retires.
//
// Safe to call while ingesting and rotating: sealed epochs are immutable,
// and the ring is snapshotted under the ring lock. Implements io.WriterTo;
// load with ReadShardedWindow.
func (w *ShardedWindow) WriteTo(dst io.Writer) (int64, error) {
	w.ringMu.RLock()
	epochs := slices.Clone(w.sealed)
	rotations := w.rotations
	retiredPackets, retiredDropped := w.retiredPackets, w.retiredDropped
	retired := w.retiredStats
	w.ringMu.RUnlock()
	// A shard without a query view cannot round-trip: a deadline-abandoned
	// one was never flushed, and a restore would build a view the live
	// epoch lacks.
	for _, ep := range epochs {
		if i := slices.Index(ep.ests, nil); i >= 0 {
			return 0, fmt.Errorf("caesar: sealed epoch %d cannot be checkpointed: its seal built no query view for shard %d; checkpoints resume once the epoch retires", ep.rotation, i)
		}
	}

	var e sketch.Encoder
	e.Section("conf", func(e *sketch.Encoder) {
		e.Int(w.cfg.K)
		e.Int(w.cfg.Counters)
		e.Int(w.cfg.CounterBits)
		e.Int(w.cfg.CacheEntries)
		e.U64(w.cfg.CacheCapacity)
		e.U8(uint8(w.cfg.Policy))
		e.U64(w.cfg.Seed)
		e.Int(w.nshards)
	})
	e.Section("wind", func(e *sketch.Encoder) {
		e.Int(w.epochs)
		e.Int(rotations)
		e.Int(len(epochs))
		e.U64(retiredPackets)
		e.U64(retiredDropped)
	})
	// The retired-epoch Stats aggregate, so cause-partitioned ledgers stay
	// consistent with the retiredPackets/retiredDropped totals after a
	// restore (Health and QuarantinedShards are point-in-time, not carried).
	e.Section("rets", func(e *sketch.Encoder) { encodeStats(e, retired) })
	for _, ep := range epochs {
		e.Section("epch", ep.encode)
	}
	// Trailing optional section: the FlowHash the epochs' flow IDs were
	// derived under. Written last so older readers, which stop after the
	// epochs, still load the snapshot.
	e.Section("hash", func(e *sketch.Encoder) { e.U8(uint8(w.opts.FlowHash)) })
	return sketch.WriteSnapshot(dst, shardedWindowAlgoName, e.Bytes())
}

// SnapshotFile writes the window snapshot to path crash-safely (temp file,
// fsync, atomic rename — internal/snapfile's contract), so a periodic
// checkpoint interrupted by a crash never destroys the previous good one.
func (w *ShardedWindow) SnapshotFile(path string) error {
	return WriteSnapshotFile(path, w)
}

// ReadShardedWindow loads a snapshot written by ShardedWindow.WriteTo into
// a live window with default ingest options: the sealed epochs answer
// queries bit-identically to the writer's, the retired-epoch ledger resumes
// where it left off, and a fresh current epoch is started at the writer's
// rotation ordinal — so its hash seeds, and every later epoch's, match what
// the writer would have used had it kept running. A snapshot written under
// FlowHashFast is rejected; load it with ReadShardedWindowOptions.
func ReadShardedWindow(r io.Reader) (*ShardedWindow, error) {
	return ReadShardedWindowOptions(r, ShardedOptions{})
}

// ReadShardedWindowOptions is ReadShardedWindow with explicit ingest
// options for the restored window. Snapshots persist the counter state and
// the FlowHash, not the runtime options, so a daemon restoring a checkpoint
// must re-supply its overflow policy and hooks here or the fresh current
// epoch (and every later one) silently reverts to the defaults. The
// FlowHash must match the snapshot's: the restored flow IDs were derived
// under it, so a window hashing tuples the other way would address other
// flows. A snapshot from a writer that predates the FlowHash section loads
// under any opts.FlowHash.
func ReadShardedWindowOptions(r io.Reader, opts ShardedOptions) (*ShardedWindow, error) {
	payload, _, err := sketch.ReadSnapshot(r, shardedWindowAlgoName)
	if err != nil {
		return nil, err
	}
	d := sketch.NewDecoder(payload)
	var cfg Config
	var nshards int
	d.Section("conf", func(d *sketch.Decoder) {
		cfg.K = d.Int()
		cfg.Counters = d.Int()
		cfg.CounterBits = d.Int()
		cfg.CacheEntries = d.Int()
		cfg.CacheCapacity = d.U64()
		cfg.Policy = Policy(d.U8())
		cfg.Seed = d.U64()
		nshards = d.Int()
	})
	var capacity, rotations, nSealed int
	var retiredPackets, retiredDropped uint64
	d.Section("wind", func(d *sketch.Decoder) {
		capacity = d.Int()
		rotations = d.Int()
		nSealed = d.Int()
		retiredPackets = d.U64()
		retiredDropped = d.U64()
	})
	if err := d.Err(); err != nil {
		return nil, err
	}
	if cfg.Policy != LRU && cfg.Policy != Random {
		return nil, fmt.Errorf("caesar: snapshot has unknown policy %d", cfg.Policy)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("caesar: snapshot window needs >= 1 epoch, got %d", capacity)
	}
	if nshards < 1 || nshards > 1<<20 {
		return nil, fmt.Errorf("caesar: implausible snapshot shard count %d", nshards)
	}
	if nSealed < 0 || nSealed > capacity {
		return nil, fmt.Errorf("caesar: snapshot carries %d sealed epochs for a %d-epoch window", nSealed, capacity)
	}
	if rotations < nSealed {
		return nil, fmt.Errorf("caesar: snapshot rotations %d below sealed epoch count %d", rotations, nSealed)
	}
	var retired Stats
	d.Section("rets", func(d *sketch.Decoder) { retired = decodeStats(d) })
	if err := d.Err(); err != nil {
		return nil, err
	}

	sealed := make([]*sealedEpoch, 0, nSealed)
	for i := 0; i < nSealed; i++ {
		var ep *sealedEpoch
		var epochErr error
		d.Section("epch", func(d *sketch.Decoder) { ep, epochErr = decodeSealedEpoch(d) })
		if err := d.Err(); err != nil {
			return nil, err
		}
		if epochErr != nil {
			return nil, fmt.Errorf("caesar: sealed epoch %d: %w", i, epochErr)
		}
		// Window bulk queries group flows by shard once for all epochs, so
		// every epoch must split the flow space the same way.
		if got := len(ep.shards); got != nshards {
			return nil, fmt.Errorf("caesar: sealed epoch %d has %d shards, window has %d", i, got, nshards)
		}
		sealed = append(sealed, ep)
	}
	if d.Remaining() > 0 {
		var fh FlowHash
		d.Section("hash", func(d *sketch.Decoder) { fh = FlowHash(d.U8()) })
		if err := d.Err(); err != nil {
			return nil, err
		}
		if fh != opts.FlowHash {
			return nil, fmt.Errorf("caesar: snapshot flow IDs were derived under FlowHash %v, restore asks for %v", fh, opts.FlowHash)
		}
	}

	w := &ShardedWindow{
		cfg:            cfg,
		nshards:        nshards,
		epochs:         capacity,
		opts:           opts,
		ids:            newTupleHasher(opts.FlowHash, cfg.Seed),
		sealed:         sealed,
		rotations:      rotations,
		retiredPackets: retiredPackets,
		retiredDropped: retiredDropped,
		retiredStats:   retired,
	}
	cur, err := w.newEpochSharded(rotations)
	if err != nil {
		return nil, err
	}
	w.cur = cur
	return w, nil
}

// encodeStats writes the additive counters of a Stats (the retired-epoch
// aggregate): the packet/cache/SRAM counters, memory totals, and the
// cause-partitioned drop ledger.
func encodeStats(e *sketch.Encoder, st Stats) {
	e.Int(st.Packets)
	e.Int(st.CacheHits)
	e.Int(st.CacheMisses)
	e.Int(st.OverflowEvictions)
	e.Int(st.PressureEvictions)
	e.Int(st.FlushEvictions)
	e.Int(st.SRAMWrites)
	e.F64(st.CacheKB)
	e.F64(st.SRAMKB)
	e.U64(st.DroppedOverflow)
	e.U64(st.DroppedSampled)
	e.U64(st.DroppedQuarantine)
	e.U64(st.DroppedTimeout)
	e.U64(st.DroppedAfterClose)
	e.U64(st.DroppedInjected)
	e.U64(st.DroppedBatches)
}

// decodeStats mirrors encodeStats.
func decodeStats(d *sketch.Decoder) Stats {
	var st Stats
	st.Packets = d.Int()
	st.CacheHits = d.Int()
	st.CacheMisses = d.Int()
	st.OverflowEvictions = d.Int()
	st.PressureEvictions = d.Int()
	st.FlushEvictions = d.Int()
	st.SRAMWrites = d.Int()
	st.CacheKB = d.F64()
	st.SRAMKB = d.F64()
	st.DroppedOverflow = d.U64()
	st.DroppedSampled = d.U64()
	st.DroppedQuarantine = d.U64()
	st.DroppedTimeout = d.U64()
	st.DroppedAfterClose = d.U64()
	st.DroppedInjected = d.U64()
	st.DroppedBatches = d.U64()
	return st
}
