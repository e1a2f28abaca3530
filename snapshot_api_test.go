package caesar

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
)

func buildPublicSketch(t *testing.T) *Sketch {
	t.Helper()
	sk, err := New(Config{
		Counters:      2048,
		CounterBits:   24,
		CacheEntries:  128,
		CacheCapacity: 16,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		sk.Observe(FlowID(i % 700))
	}
	return sk
}

func TestSketchSnapshotRoundTrip(t *testing.T) {
	sk := buildPublicSketch(t)
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := ReadSketch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSketch: %v", err)
	}
	se, re := sk.Estimator(), r.Estimator()
	for f := FlowID(0); f < 800; f++ {
		for _, m := range []Method{CSM, MLM} {
			if a, b := se.Estimate(f, m), re.Estimate(f, m); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("flow %d method %d: %v != %v", f, m, a, b)
			}
		}
		ea, ia := se.EstimateWithInterval(f, 0.95)
		eb, ib := re.EstimateWithInterval(f, 0.95)
		if math.Float64bits(ea) != math.Float64bits(eb) ||
			math.Float64bits(ia.Lo) != math.Float64bits(ib.Lo) ||
			math.Float64bits(ia.Hi) != math.Float64bits(ib.Hi) {
			t.Fatalf("flow %d: interval (%v %+v) != (%v %+v)", f, ea, ia, eb, ib)
		}
		if a, b := sk.Estimate(f), r.Estimate(f); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("flow %d: Estimate %v != %v", f, a, b)
		}
	}
	if got, want := r.Stats(), sk.Stats(); got != want {
		t.Errorf("Stats: got %+v, want %+v", got, want)
	}

	// ReadFrom into an existing sketch replaces it.
	other := buildPublicSketch(t)
	if _, err := other.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if a, b := other.Estimate(3), sk.Estimate(3); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("ReadFrom receiver: %v != %v", a, b)
	}
}

func TestSnapshotMergeAfterLoad(t *testing.T) {
	// The distributed-measurement workflow: two observation points snapshot
	// their sketches; a collector loads both and merges.
	a := buildPublicSketch(t)
	b := buildPublicSketch(t)
	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	la, err := ReadSketch(&bufA)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSketch(&bufB)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Merge(lb); err != nil {
		t.Fatalf("Merge of loaded snapshots: %v", err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if x, y := la.Estimate(5), a.Estimate(5); math.Float64bits(x) != math.Float64bits(y) {
		t.Errorf("merged snapshot estimate %v != live merge %v", x, y)
	}
}

func TestWindowSnapshotRoundTrip(t *testing.T) {
	w, err := NewShardedWindow(3, 1, Config{
		Counters:      1024,
		CacheEntries:  64,
		CacheCapacity: 16,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	for e := 0; e < 4; e++ { // one more epoch than the window retains
		for i := 0; i < 8000; i++ {
			h.observe([]FlowID{FlowID(i % 300)}, nil)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadShardedWindow: %v", err)
	}
	defer r.Close()
	if r.EpochsSealed() != w.EpochsSealed() || r.Rotations() != w.Rotations() {
		t.Fatalf("window shape: got (%d, %d), want (%d, %d)",
			r.EpochsSealed(), r.Rotations(), w.EpochsSealed(), w.Rotations())
	}
	for f := FlowID(0); f < 350; f++ {
		if a, b := w.Estimate(f, CSM), r.Estimate(f, CSM); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("flow %d: %v != %v", f, a, b)
		}
		ea, ia := w.EstimateWithInterval(f, 0.9)
		eb, ib := r.EstimateWithInterval(f, 0.9)
		if math.Float64bits(ea) != math.Float64bits(eb) ||
			math.Float64bits(ia.Lo) != math.Float64bits(ib.Lo) ||
			math.Float64bits(ia.Hi) != math.Float64bits(ib.Hi) {
			t.Fatalf("flow %d: interval (%v %+v) != (%v %+v)", f, ea, ia, eb, ib)
		}
	}
	// The loaded window keeps measuring: a fresh current epoch is live and
	// rotation continues the epoch seed sequence where the writer left off.
	r.Ingester().Observe(1)
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	if r.Rotations() != w.Rotations()+1 {
		t.Errorf("Rotations after resume: got %d, want %d", r.Rotations(), w.Rotations()+1)
	}
}

// TestShardedBudgetSumsExact is the regression test for the silent budget
// loss: with Counters or CacheEntries not divisible by the shard count, the
// remainder used to be dropped entirely.
func TestShardedBudgetSumsExact(t *testing.T) {
	for _, tc := range []struct {
		n                      int
		counters, cacheEntries int
	}{
		{3, 1000, 100},        // 1000 = 3*333+1, 100 = 3*33+1
		{7, 1 << 14, 611},     // both leave remainders
		{4, 1 << 14, 1 << 10}, // exact division still exact
		{5, 23, 7},            // remainder spread partway across the shards
	} {
		s, err := newTestSharded(tc.n, Config{
			Counters:      tc.counters,
			CacheEntries:  tc.cacheEntries,
			CacheCapacity: 8,
			Seed:          3,
		}, ShardedOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		var sumCounters, sumEntries int
		for _, sk := range s.shards {
			cfg := sk.s.Config()
			sumCounters += cfg.L
			sumEntries += cfg.CacheEntries
		}
		if sumCounters != tc.counters {
			t.Errorf("n=%d: shard counters sum to %d, configured %d", tc.n, sumCounters, tc.counters)
		}
		if sumEntries != tc.cacheEntries {
			t.Errorf("n=%d: shard cache entries sum to %d, configured %d", tc.n, sumEntries, tc.cacheEntries)
		}
		closeAndSeal(t, s)
	}
}

// TestShardedCloseConcurrent closes the same shard set from many goroutines
// at once while observers are still running — Close must be idempotent and
// race-free, not merely safe to call twice sequentially.
func TestShardedCloseConcurrent(t *testing.T) {
	s, err := newTestSharded(4, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	var obs sync.WaitGroup
	for w := 0; w < 4; w++ {
		obs.Add(1)
		go func(w int) {
			defer obs.Done()
			for i := 0; i < 50000; i++ {
				h.observe([]FlowID{FlowID(uint64(w)<<20 | uint64(i%1000))}, nil)
			}
		}(w)
	}
	var closers sync.WaitGroup
	for c := 0; c < 8; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := s.closeWith(context.Background()); err != nil {
				t.Errorf("concurrent closeWith: %v", err)
			}
		}()
	}
	closers.Wait()
	obs.Wait()
	// Every packet was drained by the close or counted as an after-close
	// drop in the ledger the sealed epoch shares.
	ep := s.seal(0)
	if got := ep.NumPackets() + ep.DroppedPackets(); got != 4*50000 {
		t.Fatalf("after concurrent closes: applied+dropped = %d, observed %d", got, 4*50000)
	}
	if err := s.closeWith(context.Background()); err != nil { // still idempotent afterwards
		t.Fatalf("closeWith after concurrent closes: %v", err)
	}
}
