package caesar

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/caesar-sketch/caesar/internal/faultinject"
	"github.com/caesar-sketch/caesar/internal/hashing"
)

// ringTestConfig is a small-budget config that still exercises cache
// evictions and counter traffic.
func ringTestConfig() Config {
	return Config{Counters: 1 << 12, CacheEntries: 1 << 8, CacheCapacity: 32, Seed: 42}
}

// TestShardedMatchesSequentialOracle pins the concurrent ingest plane —
// block routing, per-shard buffers, the SPSC ring hand-off, the shard
// workers, the Close drain — to a sequential model with no concurrency at
// all. One producer feeds a shard set under the lossless Block policy with a
// seeded DropBatches injector and a PanicWorker injector. The oracle routes
// and batches the same flows in producer order, draws from a second
// injector with the same seed in the same order, and applies the kept
// batches to plain per-shard Sketches built like newSharded builds
// its shards. Every shard's serialized state must match its oracle byte for
// byte, and the loss ledger and health must match exactly.
func TestShardedMatchesSequentialOracle(t *testing.T) {
	const (
		nShards = 4
		batch   = 64
	)
	cfg := ringTestConfig()
	rng := rand.New(rand.NewSource(2024))
	flows := make([]FlowID, 120_000)
	for i := range flows {
		flows[i] = FlowID(rng.Intn(5000))
	}

	inj := faultinject.New(0xfeed)
	s, err := newTestSharded(nShards, cfg, ShardedOptions{
		batchSize: batch,
		Hooks: ShardedHooks{
			BeforeEnqueue: inj.DropBatches(0.05),
			OnWorkerBatch: inj.PanicWorker(2, 7),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	for start := 0; start < len(flows); start += 100 {
		h.observe(flows[start:min(start+100, len(flows))], nil)
	}
	ep := closeAndSeal(t, s)

	// The oracle's shards: the same budget split and per-shard seeds as
	// newSharded.
	oracle := make([]*Sketch, nShards)
	for i := range oracle {
		per := cfg
		per.Counters = cfg.Counters / nShards
		if i < cfg.Counters%nShards {
			per.Counters++
		}
		per.CacheEntries = cfg.CacheEntries / nShards
		if i < cfg.CacheEntries%nShards {
			per.CacheEntries++
		}
		per.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		if oracle[i], err = New(per); err != nil {
			t.Fatal(err)
		}
	}
	oinj := faultinject.New(0xfeed)
	keep, panicAt := oinj.DropBatches(0.05), oinj.PanicWorker(2, 7)
	var injected, quarantine, batches uint64
	shardDropped := make([]uint64, nShards)
	down := make([]bool, nShards)
	workerPanics := func(i, n int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		panicAt(i, n)
		return false
	}
	apply := func(i int, b []FlowID) {
		if !down[i] && workerPanics(i, len(b)) {
			down[i] = true
		}
		if down[i] {
			quarantine += uint64(len(b))
			shardDropped[i] += uint64(len(b))
			batches++
			return
		}
		oracle[i].ObserveBatch(b)
	}
	bufs := make([][]FlowID, nShards)
	for _, f := range flows {
		i := int(hashing.MixWithSeed(uint64(f), shardRouteSeed) % nShards)
		bufs[i] = append(bufs[i], f)
		if len(bufs[i]) < batch {
			continue
		}
		if keep(i, batch) {
			apply(i, bufs[i])
		} else {
			injected += batch
			shardDropped[i] += batch
			batches++
		}
		bufs[i] = nil
	}
	// Close drains the partial buffers without the BeforeEnqueue hook, then
	// flushes every shard's cache.
	for i, b := range bufs {
		if len(b) > 0 {
			apply(i, b)
		}
	}
	quarantined := 0
	for i, sk := range oracle {
		sk.Flush()
		if down[i] {
			quarantined++
		}
	}

	if quarantined != 1 || inj.Panics() != 1 {
		t.Fatalf("oracle quarantined %d shards, injector threw %d panics; want 1 and 1", quarantined, inj.Panics())
	}
	for i := range oracle {
		var got, want bytes.Buffer
		if _, err := ep.shards[i].WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle[i].WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("shard %d: state differs from the sequential oracle", i)
		}
		if got := ep.ledger.shardDropped[i].Load(); got != shardDropped[i] {
			t.Errorf("shard %d dropped %d, oracle %d", i, got, shardDropped[i])
		}
	}
	st := ep.Stats()
	ledger := []struct {
		name      string
		got, want uint64
	}{
		{"DroppedInjected", st.DroppedInjected, injected},
		{"DroppedQuarantine", st.DroppedQuarantine, quarantine},
		{"DroppedBatches", st.DroppedBatches, batches},
		{"DroppedPackets", st.DroppedPackets, injected + quarantine},
		{"injector DroppedBatches", inj.DroppedBatches(), oinj.DroppedBatches()},
	}
	for _, f := range ledger {
		if f.got != f.want {
			t.Errorf("%s = %d, oracle %d", f.name, f.got, f.want)
		}
	}
	if st.Health != Degraded || st.QuarantinedShards != quarantined {
		t.Errorf("health %v with %d quarantined shards, oracle Degraded with %d", st.Health, st.QuarantinedShards, quarantined)
	}
	if got := ep.NumPackets() + ep.DroppedPackets(); got != uint64(len(flows)) {
		t.Errorf("ledger: applied+dropped = %d, observed %d", got, len(flows))
	}
}

// TestRingShardedStress hammers a shard set from many concurrent
// producers (meant for -race -count=5 in CI): per-producer handles, mixed
// Observe/ObserveBatch/Flush traffic, and a mid-stream straggler that keeps
// observing while Close runs, exercising the counted-no-op path. The ledger
// invariant must hold exactly.
func TestRingShardedStress(t *testing.T) {
	const (
		producers   = 8
		perProducer = 20_000
	)
	s, err := newTestSharded(3, ringTestConfig(), ShardedOptions{
		batchSize:  32,
		queueDepth: 4, // tiny rings force constant wrap-around and full hits
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := s.Ingester()
			rng := rand.New(rand.NewSource(int64(p)))
			buf := make([]FlowID, 0, 97)
			for i := 0; i < perProducer; i++ {
				f := FlowID(rng.Intn(4000))
				if p%2 == 0 {
					h.observe([]FlowID{f}, nil)
				} else {
					buf = append(buf, f)
					if len(buf) == cap(buf) {
						h.observe(buf, nil)
						buf = buf[:0]
					}
				}
				if i%5000 == 0 {
					h.Flush()
				}
			}
			h.observe(buf, nil)
			h.Flush()
		}(p)
	}
	wg.Wait()
	ep := closeAndSeal(t, s)
	const observed = producers * perProducer
	if got := ep.NumPackets() + ep.DroppedPackets(); got != observed {
		t.Fatalf("ledger: applied+dropped = %d, observed %d", got, observed)
	}
	if st := ep.Stats(); st.DroppedPackets != 0 {
		t.Fatalf("Block policy dropped %d packets", st.DroppedPackets)
	}
}

// TestRingObserveCloseRace races late observers against Close in ring mode:
// packets that lose the rendezvous must surface as DroppedAfterClose, never
// panic, and the ledger must balance.
func TestRingObserveCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s, err := newTestSharded(2, ringTestConfig(), ShardedOptions{batchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		const perG = 2000
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			h := s.Ingester() // minted before Close; observing after is the counted no-op
			wg.Add(1)
			go func(h *ingester) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					h.observe([]FlowID{FlowID(i)}, nil)
				}
			}(h)
		}
		runtime.Gosched()
		ep := closeAndSeal(t, s)
		wg.Wait()
		if got := ep.NumPackets() + ep.DroppedPackets(); got != 4*perG {
			t.Fatalf("iter %d: ledger %d, observed %d", iter, got, 4*perG)
		}
	}
}

// TestIngestZeroAllocs gates the steady-state ingest path at (near) zero
// allocations per packet, through the window handle's public entry points:
// batch buffers recycle through the pool and the block router reuses its
// scratch, so the only allowed allocations are the rare pool refills after a
// GC (hence the 0.01 packets/alloc tolerance rather than exactly zero). The
// scalar entry points wrap their argument in a one-element slice, which must
// stay on the stack.
func TestIngestZeroAllocs(t *testing.T) {
	w, err := NewShardedWindow(1, 4, ringTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	flows := make([]FlowID, 512)
	for i := range flows {
		flows[i] = FlowID(i * 7919)
	}
	tuples := flowHashTuples(512)
	// Warm up: fault in the pool, the route and hash scratch, and every ring
	// slot.
	for i := 0; i < 64; i++ {
		h.ObserveBatch(flows)
		h.ObservePackets(tuples)
	}
	const rounds = 2000
	n := 0
	for _, tc := range []struct {
		name    string
		packets int
		observe func()
	}{
		{"ObserveBatch", len(flows), func() { h.ObserveBatch(flows) }},
		{"Observe", 1, func() { h.Observe(flows[n%len(flows)]); n++ }},
		{"ObservePacket", 1, func() { h.ObservePacket(tuples[n%len(tuples)]); n++ }},
	} {
		allocs := testing.AllocsPerRun(rounds, tc.observe)
		if perPacket := allocs / float64(tc.packets); perPacket > 0.01 {
			t.Errorf("%s allocates %.4f allocs/packet (%.1f/call), want < 0.01",
				tc.name, perPacket, allocs)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
