package caesar

import (
	"fmt"

	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/sketch"
)

// sealedEpoch is one sealed epoch of a ShardedWindow: what the paper's
// query phase reads once the end-of-epoch flush has emptied the caches
// (Section 3.2). The seal builds it from the closed shard set, and a
// restore decodes it from a checkpoint; either way it holds no ingest
// machinery (no workers, rings, batch pool or handles). It answers the
// epoch's queries, reports its ledger, and writes its checkpoint bytes.
//
// A sealed epoch is immutable except for one case: a worker that a
// deadline-cut seal abandoned still applies its wedged batch after the
// seal and counts the rest of its ring as drops, into the same shard
// sketch and ledger, so those packets surface here once it exits. Its
// shard has no query view either way. Queries are not safe for concurrent
// use: the per-shard estimators reuse scratch, so the window serializes
// them.
type sealedEpoch struct {
	rotation int // 0-based epoch ordinal since window construction
	// router maps flows to shards exactly as the epoch's ingest did.
	router *hashing.ShardRouter
	shards []*Sketch
	// ests[i] is shard i's query view, nil when the seal could not build
	// one: a deadline abandoned its worker, or its flush or estimator
	// panicked. The window's bulk path (ShardedWindow.sumEpochs) reads
	// ests directly.
	ests   []*Estimator
	ledger *ledger
}

// Covered reports whether the flow's owning shard has a query view. It is
// false only for flows owned by a shard the seal built no view for; their
// Estimate is 0.
func (ep *sealedEpoch) Covered(flow FlowID) bool {
	return ep.ests[ep.router.Route(flow)] != nil
}

// Estimate returns the flow's estimated size. Under loss (Drop/Sample
// policies, quarantined shards, deadline drops) the estimate covers the
// recorded fraction of the flow, exactly like the paper's lossy RCS;
// ShardedWindow.EstimateLossAdjusted gives the loss-corrected figure.
func (ep *sealedEpoch) Estimate(flow FlowID, m Method) float64 {
	est := ep.ests[ep.router.Route(flow)]
	if est == nil {
		return 0
	}
	return est.Estimate(flow, m)
}

// intervalAt returns the flow's CSM estimate and confidence interval at a
// precomputed z quantile, the per-epoch step of both EstimateWithInterval
// paths. Flows that are not Covered return (0, zero interval).
func (ep *sealedEpoch) intervalAt(flow FlowID, z float64) (float64, Interval) {
	est := ep.ests[ep.router.Route(flow)]
	if est == nil {
		return 0, Interval{}
	}
	return est.intervalAt(flow, z)
}

// NumPackets returns the packets applied to the epoch's counters.
func (ep *sealedEpoch) NumPackets() uint64 {
	var n uint64
	for _, sk := range ep.shards {
		n += sk.NumPackets()
	}
	return n
}

// DroppedPackets returns the epoch's counted drops, by all causes (see the
// Stats Dropped* fields for the partition).
func (ep *sealedEpoch) DroppedPackets() uint64 { return ep.ledger.stats().dropped() }

// Stats aggregates the shards' observability counters and the loss ledger.
func (ep *sealedEpoch) Stats() Stats {
	agg := ep.ledger.stats()
	for _, sk := range ep.shards {
		accumulateStats(&agg, sk.Stats())
	}
	agg.QuarantinedShards = ep.ledger.quarantined()
	agg.Health = ep.ledger.health()
	agg.DroppedPackets = agg.dropped()
	agg.EffectiveLossRate = lossRate(agg.DroppedPackets, uint64(agg.Packets))
	return agg
}

// encode writes the epoch's complete state — rotation, shard count, every
// shard sketch, and the loss ledger — into e: the payload of one "epch"
// section of a ShardedWindow checkpoint. Every shard must have a query
// view: a shard without one may be unflushed, and ShardedWindow.WriteTo
// refuses such an epoch before calling encode.
func (ep *sealedEpoch) encode(e *sketch.Encoder) {
	e.Int(ep.rotation)
	e.Section("conf", func(e *sketch.Encoder) { e.Int(len(ep.shards)) })
	for _, sk := range ep.shards {
		e.Section("shrd", sk.s.EncodeState)
	}
	// Trailing optional section: the loss ledger and quarantine flags, so a
	// query process sees the same effective loss rate the construction
	// process measured. Written last so snapshots remain readable by loaders
	// that predate it (the section framing ignores trailing payload bytes).
	l := ep.ledger
	e.Section("loss", func(e *sketch.Encoder) {
		e.U64(l.overflow.Load())
		e.U64(l.sampled.Load())
		e.U64(l.quarantine.Load())
		e.U64(l.timeout.Load())
		e.U64(l.afterClose.Load())
		e.U64(l.injected.Load())
		e.U64(l.batches.Load())
		perShard := make([]uint64, len(ep.shards))
		down := make([]uint8, len(ep.shards))
		for i := range ep.shards {
			perShard[i] = l.shardDropped[i].Load()
			down[i] = uint8(l.shardDown[i].Load())
		}
		e.U64s(perShard)
		e.U8s(down)
	})
}

// decodeSealedEpoch is encode's inverse: it rebuilds a sealed epoch, query
// views included, from one "epch" section of a checkpoint. The decoder must
// be scoped to exactly that section: the optional trailing loss ledger is
// detected by the bytes remaining in it.
func decodeSealedEpoch(d *sketch.Decoder) (*sealedEpoch, error) {
	rotation := d.Int()
	var n int
	d.Section("conf", func(d *sketch.Decoder) { n = d.Int() })
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("caesar: implausible snapshot shard count %d", n)
	}
	ep := &sealedEpoch{
		rotation: rotation,
		router:   hashing.NewShardRouter(n, shardRouteSeed),
		shards:   make([]*Sketch, n),
		ests:     make([]*Estimator, n),
		ledger:   newLedger(n),
	}
	for i := range ep.shards {
		var cs *core.Sketch
		var shardErr error
		d.Section("shrd", func(d *sketch.Decoder) { cs, shardErr = core.DecodeSketchState(d) })
		if err := d.Err(); err != nil {
			return nil, err
		}
		if shardErr != nil {
			return nil, fmt.Errorf("caesar: shard %d: %w", i, shardErr)
		}
		// A decoded shard is flushed, so its view builds without a panic.
		ep.shards[i] = &Sketch{s: cs}
		ep.ests[i] = ep.shards[i].Estimator()
	}
	// Optional trailing loss ledger (absent in snapshots written before the
	// overload-hardening work; those load with a zero ledger).
	if d.Remaining() > 0 {
		l := ep.ledger
		var perShard []uint64
		var down []uint8
		d.Section("loss", func(d *sketch.Decoder) {
			l.overflow.Store(d.U64())
			l.sampled.Store(d.U64())
			l.quarantine.Store(d.U64())
			l.timeout.Store(d.U64())
			l.afterClose.Store(d.U64())
			l.injected.Store(d.U64())
			l.batches.Store(d.U64())
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
			l.shardDropped[i].Store(perShard[i])
			if down[i] > 1 {
				return nil, fmt.Errorf("caesar: snapshot shard %d has invalid quarantine flag %d", i, down[i])
			}
			l.shardDown[i].Store(uint32(down[i]))
		}
	}
	return ep, nil
}
