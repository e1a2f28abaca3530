package caesar

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/sketch"
)

func ingesterTestConfig() Config {
	return Config{
		Counters:      1 << 12,
		CacheEntries:  1 << 8,
		CacheCapacity: 16,
		Seed:          7,
	}
}

// sealedSnapshot is a sealed epoch's encoded state, the payload it carries
// in a window checkpoint.
func sealedSnapshot(ep *sealedEpoch) []byte {
	var e sketch.Encoder
	ep.encode(&e)
	return e.Bytes()
}

// TestIngesterBatchSizeInvariance runs one trace under several batch sizes
// (including the degenerate size 1, which dispatches every packet) and via
// ObserveBatch, requiring identical snapshots: batching must only change
// when packets move, never what the shards eventually see or in what order.
func TestIngesterBatchSizeInvariance(t *testing.T) {
	trace := make([]FlowID, 30000)
	rng := hashing.NewPRNG(5)
	for i := range trace {
		trace[i] = FlowID(rng.Intn(1500))
	}

	var want []byte
	for _, opt := range []ShardedOptions{
		{},
		{batchSize: 1},
		{batchSize: 3, queueDepth: 2},
		{batchSize: 4096},
	} {
		s, err := newTestSharded(4, ingesterTestConfig(), opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		h := s.Ingester()
		// Mix the single-packet and batch entry points: same packets in the
		// same order, so the result must not depend on the entry point either.
		h.observe(trace[:10000], nil)
		for _, f := range trace[10000:20000] {
			h.observe([]FlowID{f}, nil)
		}
		h.Flush() // mid-stream Flush must not disturb anything
		h.observe(trace[20000:], nil)
		snap := sealedSnapshot(closeAndSeal(t, s))
		if want == nil {
			want = snap
			continue
		}
		if !bytes.Equal(snap, want) {
			t.Fatalf("snapshot under options %+v differs from default-options snapshot", opt)
		}
	}
}

// TestShardedOptions pins the option plumbing: zero values select the
// ingest constants, the test-only overrides stick, and nonsense is rejected.
func TestShardedOptions(t *testing.T) {
	s, err := newTestSharded(2, ingesterTestConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o := s.opts; o.batchSize != shardBatchSize || o.queueDepth != shardQueueDepth ||
		o.OverflowPolicy != Block {
		t.Fatalf("default options = %+v", o)
	}
	closeAndSeal(t, s)

	s, err = newTestSharded(2, ingesterTestConfig(), ShardedOptions{batchSize: 17, queueDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o := s.opts; o.batchSize != 17 || o.queueDepth != 3 {
		t.Fatalf("explicit options = %+v", o)
	}
	closeAndSeal(t, s)

	for _, bad := range []ShardedOptions{
		{OverflowPolicy: OverflowPolicy(99)},
		{OverflowPolicy: OverflowPolicy(-1)},
	} {
		if _, err := newTestSharded(2, ingesterTestConfig(), bad); err == nil {
			t.Fatalf("newSharded accepted %+v", bad)
		}
	}

	for p, want := range map[OverflowPolicy]string{Block: "block", Drop: "drop", Sample: "sample", OverflowPolicy(7): "overflowpolicy(7)"} {
		if p.String() != want {
			t.Fatalf("OverflowPolicy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Quarantined: "quarantined", Health(7): "health(7)"} {
		if h.String() != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

// TestIngesterAfterClose pins the lifecycle contract: observing through a
// handle after Close is a counted no-op (packets land in DroppedAfterClose,
// never in the sketch), Flush degrades to a no-op, and minting a new handle
// from a closed shard set is still a programming error that panics.
func TestIngesterAfterClose(t *testing.T) {
	s, err := newTestSharded(2, ingesterTestConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	h.observe([]FlowID{1}, nil)
	ep := closeAndSeal(t, s)

	h.Flush() // must not panic or resurrect buffers

	h.observe([]FlowID{2}, nil)
	h.observe([]FlowID{2, 3}, nil)

	defer func() {
		if recover() == nil {
			t.Fatal("Ingester after Close did not panic")
		}
	}()
	defer func() {
		if got := ep.NumPackets(); got != 1 {
			t.Fatalf("NumPackets = %d, want 1", got)
		}
		if st := ep.Stats(); st.DroppedAfterClose != 3 {
			t.Fatalf("DroppedAfterClose = %d, want 3", st.DroppedAfterClose)
		}
	}()
	s.Ingester()
}

// TestIngesterCloseRace is the per-producer-handle analogue of
// TestShardedObserveCloseRace: every worker owns its own handle and mixes
// Observe with ObserveBatch while the main goroutine Closes mid-stream.
// Under -race this guards the handle/Close rendezvous; the tally proves
// exactly-once-or-counted delivery — every packet whose call started before
// the Close rendezvous is drained, every later one is an after-Close drop,
// and none is counted twice.
func TestIngesterCloseRace(t *testing.T) {
	s, err := newTestSharded(4, ingesterTestConfig(), ShardedOptions{batchSize: 8, queueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		sent  atomic.Uint64
		stop  atomic.Bool
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	handles := make([]*ingester, workers)
	for w := range handles {
		handles[w] = s.Ingester()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			var batch [5]FlowID
			<-start
			for i := 0; !stop.Load(); i++ {
				if i%7 == 0 {
					for j := range batch {
						batch[j] = FlowID(uint64(w)<<32 | uint64((i+j)%509))
					}
					h.observe(batch[:], nil)
					sent.Add(uint64(len(batch)))
				} else {
					h.observe([]FlowID{FlowID(uint64(w)<<32 | uint64(i%509))}, nil)
					sent.Add(1)
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	ep := closeAndSeal(t, s)
	time.Sleep(2 * time.Millisecond) // exercise the counted no-op path under -race
	stop.Store(true)
	wg.Wait()

	st := ep.Stats()
	if got, want := ep.NumPackets()+st.DroppedAfterClose, sent.Load(); got != want {
		t.Fatalf("NumPackets+DroppedAfterClose = %d+%d = %d, want sent = %d (lost or duplicated packets across the Close race)",
			ep.NumPackets(), st.DroppedAfterClose, got, want)
	}
	if got := ep.Estimate(FlowID(1), CSM); got != got {
		t.Fatalf("estimate is NaN after racing Close")
	}
	if err := s.closeWith(context.Background()); err != nil { // idempotent under racing handles too
		t.Fatalf("second closeWith: %v", err)
	}
}
