package caesar

import (
	"context"
	"math"
	"sync"
	"testing"
)

// newTestSharded builds a bare shard set, the engine each ShardedWindow
// epoch runs on, for the tests that drive it directly.
func newTestSharded(n int, cfg Config, opts ShardedOptions) (*sharded, error) {
	return newSharded(n, cfg, opts, newTupleHasher(opts.FlowHash, cfg.Seed))
}

// closeAndSeal closes a bare shard set without a deadline and seals it, as
// a Rotate does, returning the sealed epoch the engine tests read.
func closeAndSeal(t testing.TB, s *sharded) *sealedEpoch {
	t.Helper()
	if err := s.closeWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.seal(0)
}

func shardedConfig() Config {
	return Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 32,
		Seed:          1,
	}
}

func TestShardedBasic(t *testing.T) {
	s, err := newTestSharded(4, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(s.shards))
	}
	const x = 2000
	h := s.Ingester()
	for i := 0; i < x; i++ {
		h.observe([]FlowID{77}, nil)
	}
	ep := closeAndSeal(t, s)
	if ep.NumPackets() != x {
		t.Fatalf("NumPackets = %d, want %d", ep.NumPackets(), x)
	}
	if got := ep.Estimate(77, CSM); math.Abs(got-x) > 2 {
		t.Fatalf("estimate = %v, want ~%d", got, x)
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := newTestSharded(-1, shardedConfig(), ShardedOptions{}); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := newTestSharded(1<<20, shardedConfig(), ShardedOptions{}); err == nil {
		t.Error("budget smaller than shard count accepted")
	}
	cfg := shardedConfig()
	cfg.Counters = 0
	if _, err := newTestSharded(2, cfg, ShardedOptions{}); err == nil {
		t.Error("zero counters accepted")
	}
}

func TestShardedDefaultShardCount(t *testing.T) {
	s, err := newTestSharded(0, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shards) < 1 {
		t.Fatalf("%d shards", len(s.shards))
	}
	closeAndSeal(t, s)
}

func TestShardedConcurrentIngest(t *testing.T) {
	s, err := newTestSharded(4, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 8
		perWriter = 5000
		flows     = 200
	)
	// The writers share one handle, the way caesar-serve's concurrent
	// POST /observe handlers do.
	h := s.Ingester()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.observe([]FlowID{FlowID((w*perWriter + i) % flows)}, nil)
			}
		}(w)
	}
	wg.Wait()
	ep := closeAndSeal(t, s)
	if got := ep.NumPackets(); got != writers*perWriter {
		t.Fatalf("NumPackets = %d, want %d", got, writers*perWriter)
	}
	// Every flow received exactly writers*perWriter/flows packets; a small
	// minority will carry counter-sharing noise (~x/k) from a neighbor.
	want := float64(writers * perWriter / flows)
	within := 0
	for f := FlowID(0); f < flows; f++ {
		if got := ep.Estimate(f, CSM); math.Abs(got-want) < 0.1*want {
			within++
		}
	}
	if within < flows*85/100 {
		t.Fatalf("only %d/%d flows within 10%% of truth", within, flows)
	}
}

func TestShardedRouteStability(t *testing.T) {
	s, err := newTestSharded(8, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAndSeal(t, s)
	for f := FlowID(0); f < 1000; f++ {
		a, b := s.router.Route(f), s.router.Route(f)
		if a != b || a < 0 || a >= 8 {
			t.Fatalf("unstable or out-of-range shard for flow %d: %d/%d", f, a, b)
		}
	}
}

func TestShardedRouteBalance(t *testing.T) {
	s, err := newTestSharded(8, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAndSeal(t, s)
	counts := make([]int, 8)
	const flows = 80000
	for f := FlowID(0); f < flows; f++ {
		counts[s.router.Route(f)]++
	}
	want := float64(flows) / 8
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("shard %d owns %d flows, want ~%.0f", i, c, want)
		}
	}
}

func TestShardedCloseIdempotentAndGates(t *testing.T) {
	s, err := newTestSharded(2, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	h.observe([]FlowID{1}, nil)
	ep := closeAndSeal(t, s)
	if err := s.closeWith(context.Background()); err != nil { // idempotent
		t.Fatalf("second closeWith: %v", err)
	}
	// Observe after Close is the documented counted no-op: the packet is
	// discarded, accounted in DroppedAfterClose, and the sketch is
	// untouched. The sealed epoch shares the ledger, so it counts them.
	h.observe([]FlowID{2}, nil)
	h.observe([]FlowID{3, 4, 5}, nil)
	if got := ep.NumPackets(); got != 1 {
		t.Fatalf("NumPackets after post-Close observes = %d, want 1", got)
	}
	st := ep.Stats()
	if st.DroppedAfterClose != 4 {
		t.Fatalf("DroppedAfterClose = %d, want 4", st.DroppedAfterClose)
	}
	if st.DroppedPackets != 4 || st.EffectiveLossRate <= 0 {
		t.Fatalf("loss ledger inconsistent after post-Close observes: %+v", st)
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	s, err := newTestSharded(4, shardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	for i := 0; i < 10000; i++ {
		h.observe([]FlowID{FlowID(i % 500)}, nil)
	}
	st := closeAndSeal(t, s).Stats()
	if st.Packets != 10000 {
		t.Fatalf("aggregated packets = %d", st.Packets)
	}
	if st.CacheHits+st.CacheMisses != st.Packets {
		t.Fatalf("hits+misses != packets: %+v", st)
	}
	single, _ := New(shardedConfig())
	_ = single.Stats()
	if st.SRAMKB <= 0 {
		t.Fatal("aggregated memory accounting missing")
	}
}

func TestShardedMatchesSingleSketchPerFlow(t *testing.T) {
	// A flow's estimate in the sharded sketch must match a single sketch
	// configured like its shard and fed only that shard's flows.
	cfg := shardedConfig()
	s, err := newTestSharded(2, cfg, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const flows = 100
	h := s.Ingester()
	for i := 0; i < 30000; i++ {
		h.observe([]FlowID{FlowID(i % flows)}, nil)
	}
	ep := closeAndSeal(t, s)
	// A few flows will share a counter with a neighbor (expected ~3 pairs
	// per shard at these parameters) and absorb ~x/k of noise; the bulk of
	// the population must sit right on the truth.
	want := 30000.0 / flows
	within := 0
	for f := FlowID(0); f < flows; f++ {
		if got := ep.Estimate(f, CSM); math.Abs(got-want) < 0.1*want {
			within++
		}
	}
	if within < 85 {
		t.Fatalf("only %d/%d flows within 10%% of truth", within, flows)
	}
}

func BenchmarkShardedObserve(b *testing.B) {
	s, err := newTestSharded(4, Config{
		Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1}, ShardedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Ingester()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.observe([]FlowID{FlowID(i & 8191)}, nil)
			i++
		}
	})
	b.StopTimer()
	closeAndSeal(b, s)
}
