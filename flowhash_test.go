package caesar

import (
	"math"
	"testing"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

// Tests for the tuple-level ingest front end: the FlowHash option, the
// HashTuple contract, and the fused ObservePackets block path, at the
// window's public surface and on the per-epoch shard set beneath it.

func flowHashTuples(n int) []FiveTuple {
	tuples := make([]FiveTuple, n)
	for i := range tuples {
		f := uint32(i)
		tuples[i] = FiveTuple{
			SrcIP:   0xc0a80000 | f,
			DstIP:   0x0a000000 | f<<2,
			SrcPort: uint16(40000 + i%2000),
			DstPort: uint16(80 + i%3),
			Proto:   6,
		}
	}
	return tuples
}

func TestShardedFlowHashOptionValidation(t *testing.T) {
	if _, err := newTestSharded(2, shardedConfig(), ShardedOptions{FlowHash: FlowHash(99)}); err == nil {
		t.Error("out-of-range FlowHash accepted")
	}
	if _, err := newTestSharded(2, shardedConfig(), ShardedOptions{FlowHash: FlowHash(-1)}); err == nil {
		t.Error("negative FlowHash accepted")
	}
	for _, fh := range []FlowHash{FlowHashSHA1, FlowHashFast} {
		s, err := newTestSharded(2, shardedConfig(), ShardedOptions{FlowHash: fh})
		if err != nil {
			t.Fatalf("FlowHash %v rejected: %v", fh, err)
		}
		if got := s.opts.FlowHash; got != fh {
			t.Errorf("opts.FlowHash = %v, want %v", got, fh)
		}
		closeAndSeal(t, s)
	}
}

// TestHashTupleMatchesConfiguredHash pins HashTuple to the two derivations it
// promises: the paper's SHA-1 ⊕ APHash under the default, and the keyed fast
// hash (seeded from Config.Seed) under FlowHashFast.
func TestHashTupleMatchesConfiguredHash(t *testing.T) {
	cfg := shardedConfig()
	sha, err := NewShardedWindow(1, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sha.Close()
	fast, err := NewShardedWindowOptions(1, 2, cfg, ShardedOptions{FlowHash: FlowHashFast})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	ider := hashing.NewFlowIDer(cfg.Seed)
	for _, tt := range flowHashTuples(64) {
		if got, want := sha.HashTuple(tt), tt.ID(); got != want {
			t.Fatalf("sha1 HashTuple(%v) = %#x, want FiveTuple.ID %#x", tt, uint64(got), uint64(want))
		}
		if got, want := fast.HashTuple(tt), ider.ID(tt); got != want {
			t.Fatalf("fast HashTuple(%v) = %#x, want FlowIDer.ID %#x", tt, uint64(got), uint64(want))
		}
	}
}

// TestObservePacketsMatchesPrehashed feeds the same traffic through the fused
// tuple path and through ObserveBatch of pre-hashed IDs, for both hashes. The
// estimates must agree flow for flow: fusing changes where the hashing
// happens, never what lands in the counters.
func TestObservePacketsMatchesPrehashed(t *testing.T) {
	for _, fh := range []FlowHash{FlowHashSHA1, FlowHashFast} {
		t.Run(fh.String(), func(t *testing.T) {
			cfg := shardedConfig()
			opts := ShardedOptions{FlowHash: fh}
			fused, err := NewShardedWindowOptions(1, 4, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			manual, err := NewShardedWindowOptions(1, 4, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}

			tuples := flowHashTuples(512)
			flows := make([]FlowID, len(tuples))
			for i, tt := range tuples {
				flows[i] = fused.HashTuple(tt)
			}
			fh1, mh := fused.Ingester(), manual.Ingester()
			for round := 0; round < 20; round++ {
				fh1.ObservePackets(tuples)
				mh.ObserveBatch(flows)
			}
			if err := fused.Close(); err != nil {
				t.Fatal(err)
			}
			if err := manual.Close(); err != nil {
				t.Fatal(err)
			}

			if fp, mp := fused.NumPackets(), manual.NumPackets(); fp != mp {
				t.Fatalf("NumPackets: fused %d, manual %d", fp, mp)
			}
			for i, flow := range flows {
				if got, want := fused.Estimate(flow, CSM), manual.Estimate(flow, CSM); got != want {
					t.Fatalf("flow %d (%#x): fused estimate %v, manual %v", i, uint64(flow), got, want)
				}
			}
		})
	}
}

// TestObservePacketsAfterClose checks the fused path keeps the conservation
// invariant after Close: the whole block lands in DroppedAfterClose.
func TestObservePacketsAfterClose(t *testing.T) {
	s, err := newTestSharded(2, shardedConfig(), ShardedOptions{FlowHash: FlowHashFast})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	tuples := flowHashTuples(100)
	h.observe(nil, tuples)
	ep := closeAndSeal(t, s)
	h.observe(nil, tuples)
	if got := ep.NumPackets(); got != uint64(len(tuples)) {
		t.Fatalf("NumPackets = %d, want %d", got, len(tuples))
	}
	if got := ep.Stats().DroppedAfterClose; got != uint64(len(tuples)) {
		t.Fatalf("DroppedAfterClose = %d, want %d", got, len(tuples))
	}
}

// TestWindowObservePacketsFused drives the windowed fused path across a
// rotation and checks it against scalar tuple ingest into a twin window. The
// window's hasher is keyed from the base seed, so a flow must keep one ID
// across epochs — the totals land on the same flow in both windows.
func TestWindowObservePacketsFused(t *testing.T) {
	cfg := shardedConfig()
	opts := ShardedOptions{FlowHash: FlowHashFast}
	fused, err := NewShardedWindowOptions(2, 2, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := NewShardedWindowOptions(2, 2, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := flowHashTuples(256)
	fi, si := fused.Ingester(), scalar.Ingester()
	ingestRound := func() {
		fi.ObservePackets(tuples)
		for _, tt := range tuples {
			si.ObservePacket(tt)
		}
	}
	ingestRound()
	if err := fused.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := scalar.Rotate(); err != nil {
		t.Fatal(err)
	}
	ingestRound()
	if err := fused.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := scalar.Rotate(); err != nil {
		t.Fatal(err)
	}

	if fp, sp := fused.NumPackets(), scalar.NumPackets(); fp != sp {
		t.Fatalf("NumPackets: fused %d, scalar %d", fp, sp)
	}
	for _, tt := range tuples[:32] {
		flow := fused.HashTuple(tt)
		if got := scalar.HashTuple(tt); got != flow {
			t.Fatalf("HashTuple diverged across twin windows: %#x vs %#x", uint64(flow), uint64(got))
		}
		fe, se := fused.Estimate(flow, CSM), scalar.Estimate(flow, CSM)
		if fe != se {
			t.Fatalf("flow %#x: fused window estimate %v, scalar %v", uint64(flow), fe, se)
		}
		// Both epochs saw the flow once per round; the estimate must be in
		// the neighborhood of 2 (sharing noise allows a small overshoot).
		if fe < 1 || math.Abs(fe-2) > 3 {
			t.Fatalf("flow %#x: window estimate %v, want ≈2", uint64(flow), fe)
		}
	}
	if err := fused.Close(); err != nil {
		t.Fatal(err)
	}
	if err := scalar.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlowIDZeroAllocs pins the fused fast-hash block path to zero
// steady-state allocations: once idBuf, routeBuf, and the per-shard batches
// have reached capacity, ObservePackets must not touch the heap. batchSize is
// oversized so no batch fills (and recycles through the pool) mid-measurement
// — pool traffic is the consumer's business, not the hot path's.
func TestFlowIDZeroAllocs(t *testing.T) {
	s, err := newTestSharded(4, shardedConfig(), ShardedOptions{
		FlowHash:  FlowHashFast,
		batchSize: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAndSeal(t, s)
	h := s.Ingester()
	tuples := flowHashTuples(256)
	h.observe(nil, tuples) // reach steady-state scratch capacity
	if allocs := testing.AllocsPerRun(20, func() {
		h.observe(nil, tuples)
	}); allocs != 0 {
		t.Fatalf("fused ObservePackets allocates %.1f times per block in steady state, want 0", allocs)
	}
}
