package caesar

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar/internal/faultinject"
	"github.com/caesar-sketch/caesar/internal/snapfile"
)

// The chaos suite drives the overload-hardened ingest path through every
// injected fault class — queue overflow under each policy, stalled and slow
// consumers, suppressed batches, worker panics, shutdown deadlines, torn
// snapshot writes — and asserts the accounting invariant at the heart of
// docs/ROBUSTNESS.md:
//
//	packets observed == NumPackets() + Stats().DroppedPackets
//
// exactly (not approximately) for every run, plus the per-fault contracts:
// quarantined shards keep the survivors estimating, deadline shutdowns
// return, torn snapshot files never replace a good one. CI runs this file
// under -race -count=3 (make chaos).

func chaosConfig() Config {
	return Config{
		Counters:      1 << 12,
		CacheEntries:  1 << 8,
		CacheCapacity: 16,
		Seed:          11,
	}
}

// assertAccounting pins the exactly-once-or-counted invariant of a sealed
// epoch.
func assertAccounting(t *testing.T, ep *sealedEpoch, observed uint64) Stats {
	t.Helper()
	st := ep.Stats()
	if got := ep.NumPackets() + st.DroppedPackets; got != observed {
		t.Fatalf("accounting broken: NumPackets %d + dropped %d = %d, want observed %d (ledger %+v)",
			ep.NumPackets(), st.DroppedPackets, got, observed, st)
	}
	if sum := st.DroppedOverflow + st.DroppedSampled + st.DroppedQuarantine +
		st.DroppedTimeout + st.DroppedAfterClose + st.DroppedInjected; sum != st.DroppedPackets {
		t.Fatalf("drop causes sum to %d, DroppedPackets says %d", sum, st.DroppedPackets)
	}
	return st
}

// drive feeds n packets over nFlows flows through one handle.
func drive(s *sharded, n, nFlows int) {
	h := s.Ingester()
	for i := 0; i < n; i++ {
		h.observe([]FlowID{FlowID(i % nFlows)}, nil)
	}
}

// driveWindow feeds n packets over nFlows flows through one window handle.
func driveWindow(w *ShardedWindow, n, nFlows int) {
	h := w.Ingester()
	for i := 0; i < n; i++ {
		h.Observe(FlowID(i % nFlows))
	}
}

// quarantineLog records the OnQuarantine hook's reason per shard, the one
// place a quarantined shard's cause is reported.
type quarantineLog struct {
	mu      sync.Mutex
	reasons map[int]string
}

func (q *quarantineLog) record(shard int, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reasons == nil {
		q.reasons = make(map[int]string)
	}
	q.reasons[shard] = reason
}

// reason returns the reason shard was quarantined for, and whether it was.
func (q *quarantineLog) reason(shard int) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.reasons[shard]
	return r, ok
}

// TestChaosDropPolicyOverflow forces queue overflow with a slow consumer
// under the Drop policy: overflow drops must appear and the ledger must
// balance exactly.
func TestChaosDropPolicyOverflow(t *testing.T) {
	inj := faultinject.New(1)
	s, err := newTestSharded(2, chaosConfig(), ShardedOptions{
		batchSize:      16,
		queueDepth:     1,
		OverflowPolicy: Drop,
		Hooks:          ShardedHooks{OnWorkerBatch: inj.SlowConsumer(0.5, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 20000
	drive(s, observed, 97)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if st.DroppedOverflow == 0 {
		t.Fatal("Drop policy under a slow consumer produced no overflow drops; the fault was not exercised")
	}
	if st.Health != Healthy {
		t.Fatalf("Health = %v after a lossy-but-faultless run, want Healthy", st.Health)
	}
	if st.EffectiveLossRate <= 0 || st.EffectiveLossRate >= 1 {
		t.Fatalf("EffectiveLossRate = %v, want in (0,1)", st.EffectiveLossRate)
	}
}

// TestChaosSamplePolicyOverflow does the same under the Sample policy: the
// thinned packets land in DroppedSampled and the kept 1-in-8 still reach
// the sketch.
func TestChaosSamplePolicyOverflow(t *testing.T) {
	inj := faultinject.New(2)
	s, err := newTestSharded(2, chaosConfig(), ShardedOptions{
		batchSize:      16,
		queueDepth:     1,
		OverflowPolicy: Sample,
		Hooks:          ShardedHooks{OnWorkerBatch: inj.SlowConsumer(0.5, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 20000
	drive(s, observed, 97)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if st.DroppedSampled == 0 {
		t.Fatal("Sample policy under a slow consumer thinned nothing; the fault was not exercised")
	}
	if ep.NumPackets() == 0 {
		t.Fatal("Sample policy delivered nothing; it must keep 1-in-8")
	}
}

// TestChaosInjectedBatchDrop suppresses batches on the producer path; the
// suppressed packets must land in DroppedInjected, batch for batch matching
// the injector's own ledger.
func TestChaosInjectedBatchDrop(t *testing.T) {
	inj := faultinject.New(3)
	const batch = 32
	s, err := newTestSharded(2, chaosConfig(), ShardedOptions{
		batchSize: batch,
		Hooks:     ShardedHooks{BeforeEnqueue: inj.DropBatches(0.3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 20000
	drive(s, observed, 97)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if st.DroppedInjected == 0 {
		t.Fatal("no injected drops recorded")
	}
	// The production ledger must agree with the injector's own: every
	// suppressed batch was a full or final partial batch.
	if st.DroppedBatches < inj.DroppedBatches() {
		t.Fatalf("production counted %d dropped batches, injector suppressed %d", st.DroppedBatches, inj.DroppedBatches())
	}
}

// TestChaosQueueStall stalls the producer path under the Block policy; no
// packet may be lost — stalls reorder time, not accounting.
func TestChaosQueueStall(t *testing.T) {
	inj := faultinject.New(4)
	s, err := newTestSharded(2, chaosConfig(), ShardedOptions{
		batchSize: 16,
		Hooks:     ShardedHooks{BeforeEnqueue: inj.StallQueues(0.05, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 5000
	drive(s, observed, 97)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if st.DroppedPackets != 0 {
		t.Fatalf("Block policy with stalls dropped %d packets, want 0 (ledger %+v)", st.DroppedPackets, st)
	}
	if inj.Stalls() == 0 {
		t.Fatal("no stalls injected; the fault was not exercised")
	}
}

// TestChaosWorkerPanicQuarantine panics one shard's worker mid-stream. The
// sketch must degrade (not die): accounting stays exact including the
// partially-applied panic batch, Health reports Degraded, the quarantined
// shard's panic reaches the OnQuarantine hook, and the surviving shards
// still estimate their flows accurately.
func TestChaosWorkerPanicQuarantine(t *testing.T) {
	inj := faultinject.New(5)
	const target = 1
	var q quarantineLog
	s, err := newTestSharded(4, chaosConfig(), ShardedOptions{
		batchSize: 16,
		Hooks:     ShardedHooks{OnWorkerBatch: inj.PanicWorker(target, 3), OnQuarantine: q.record},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 40000
	const nFlows = 97
	drive(s, observed, nFlows)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if inj.Panics() != 1 {
		t.Fatalf("injector threw %d panics, want 1", inj.Panics())
	}
	if st.Health != Degraded || st.QuarantinedShards != 1 {
		t.Fatalf("Health = %v with %d quarantined shards, want Degraded with 1", st.Health, st.QuarantinedShards)
	}
	if st.DroppedQuarantine == 0 {
		t.Fatal("quarantined shard recorded no dropped traffic")
	}
	if reason, ok := q.reason(target); !ok || reason == "" {
		t.Fatalf("shard %d quarantine reason = %q, %v; want the injected panic value", target, reason, ok)
	}
	if _, ok := q.reason(target + 1); ok {
		t.Fatalf("healthy shard %d reports a panic", target+1)
	}

	// Survivors must still estimate. Every flow of a healthy shard saw
	// observed/nFlows packets; require the usual accuracy on those.
	if st.EffectiveLossRate <= 0 {
		t.Fatal("degraded sketch reports zero effective loss")
	}
	want := float64(observed / nFlows)
	healthy, within := 0, 0
	for f := FlowID(0); f < nFlows; f++ {
		if s.router.Route(f) == target {
			continue
		}
		if !ep.Covered(f) {
			t.Fatalf("flow %d on a healthy shard is not covered", f)
		}
		healthy++
		if got := ep.Estimate(f, CSM); math.Abs(got-want) < 0.15*want {
			within++
		}
	}
	if healthy == 0 {
		t.Fatal("test degenerate: every flow routed to the quarantined shard")
	}
	if within < healthy*85/100 {
		t.Fatalf("only %d/%d surviving-shard flows within 15%% of truth", within, healthy)
	}
}

// TestChaosAllShardsQuarantined panics every worker: the sketch must reach
// the terminal Quarantined state and still close, seal, account, and
// answer (degenerate) queries without hanging or crashing.
func TestChaosAllShardsQuarantined(t *testing.T) {
	inj := faultinject.New(6)
	hooks := make([]func(shard, packets int), 2)
	for i := range hooks {
		hooks[i] = inj.PanicWorker(i, 1)
	}
	s, err := newTestSharded(2, chaosConfig(), ShardedOptions{
		batchSize: 16,
		Hooks: ShardedHooks{OnWorkerBatch: func(shard, packets int) {
			hooks[shard](shard, packets)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 10000
	drive(s, observed, 97)
	ep := closeAndSeal(t, s)
	st := assertAccounting(t, ep, observed)
	if st.Health != Quarantined {
		t.Fatalf("Health = %v, want Quarantined", st.Health)
	}
	// The injected panics fire before a batch touches its sketch, so every
	// shard keeps a consistent state and a query view.
	for f := FlowID(0); f < 97; f++ {
		if got := ep.Estimate(f, CSM); !ep.Covered(f) || math.IsNaN(got) {
			t.Fatalf("flow %d on a fully quarantined epoch: covered %v, estimate %v", f, ep.Covered(f), got)
		}
	}
}

// TestChaosCloseContextDeadline wedges a worker permanently and closes with
// a short deadline: the deadline-bounded close (the seal of CloseContext and
// RotateContext) must return promptly with ctx's error, and the timed-out
// packets must be counted, not silently lost.
func TestChaosCloseContextDeadline(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	var q quarantineLog
	s, err := newTestSharded(1, chaosConfig(), ShardedOptions{
		batchSize:  4,
		queueDepth: 1,
		Hooks: ShardedHooks{
			OnWorkerBatch: func(shard, packets int) {
				<-release // wedge the worker until the test lets go
			},
			OnQuarantine: q.record,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer once.Do(func() { close(release) })

	const observed = 64
	// The close faces the deadlock scenario it exists for: the blocked
	// enqueue holds the handle mutex the drain needs.
	h := s.Ingester()
	done := wedgeProducer(t, func(f FlowID) { h.observe([]FlowID{f}, nil) }, observed)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.closeWith(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("closeWith = %v, want a DeadlineExceeded-wrapped error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("closeWith took %v against a 50ms deadline", elapsed)
	}
	// The wedged shard must have been quarantined rather than waited for.
	if reason, ok := q.reason(0); !ok || reason == "" {
		t.Fatalf("wedged shard not quarantined by the timed-out close (reason %q, ok %v)", reason, ok)
	}
	// The seal cannot flush the still-wedged shard, so it gets no query
	// view: its flows answer (0, zero interval).
	ep := s.seal(0)
	if ep.Covered(0) {
		t.Fatal("flow on the still-wedged shard reports covered")
	}
	if v, iv := ep.intervalAt(0, 1.96); v != 0 || iv != (Interval{}) {
		t.Fatalf("uncovered flow: intervalAt = %v, %+v; want 0 and a zero interval", v, iv)
	}

	once.Do(func() { close(release) }) // un-wedge the worker applying its batch
	<-done                             // abort latch must have released the blocked producer
	<-s.workerExited[0]                // worker exits: applied batch counted, queue drained as drops

	// The worker wrote its late packets and drops into the sketch and ledger
	// the sealed epoch holds, so the sealed epoch accounts for them.
	st := assertAccounting(t, ep, observed)
	if st.DroppedTimeout == 0 {
		t.Fatal("deadline shutdown recorded no timeout drops")
	}
	if st.Health != Quarantined {
		t.Fatalf("Health = %v after abandoning the only worker, want Quarantined", st.Health)
	}
	if err := s.closeWith(context.Background()); err != nil {
		t.Fatalf("second closeWith: %v", err)
	}
}

// deadlineReason is the quarantine reason of a shard whose worker was still
// running when a deadline-bounded close gave up on it.
const deadlineReason = "shutdown deadline exceeded with the worker still running"

// wedgeProducer starts a producer that observes flows 0..n-1, one call
// each, and returns once it has stalled midway behind a wedged worker of a
// one-shard sketch with 4-packet batches and a 1-batch ring: one batch in
// the worker, one in the ring, and one blocked in enqueue while holding
// the handle mutex. The returned channel closes when the producer is done.
func wedgeProducer(t *testing.T, observe func(FlowID), n uint64) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	var progress atomic.Uint64
	go func() {
		defer close(done)
		for i := uint64(0); i < n; i++ {
			observe(FlowID(i)) // blocks once the ring fills behind the wedged worker
			progress.Add(1)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		p := progress.Load()
		time.Sleep(5 * time.Millisecond)
		if q := progress.Load(); q == p && q > 0 && q < n {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer never wedged (progress %d/%d)", progress.Load(), n)
		}
	}
}

// TestChaosCloseContextLiveWorkers takes the deadline path with every
// worker live: two handles still hold buffered packets when CloseContext
// runs against an already-cancelled context. Each shard must end either
// flushed or quarantined for the deadline, the ledger must balance once
// the workers exit, and the query view must still build.
func TestChaosCloseContextLiveWorkers(t *testing.T) {
	var q quarantineLog
	s, err := newTestSharded(3, chaosConfig(), ShardedOptions{
		batchSize: 64,
		Hooks:     ShardedHooks{OnQuarantine: q.record},
	})
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 1000 // ~333 packets per shard: 5 full batches and 13 buffered
	for _, h := range []*ingester{s.Ingester(), s.Ingester()} {
		for i := 0; i < perHandle; i++ {
			h.observe([]FlowID{FlowID(i % 97)}, nil)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.closeWith(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("closeWith = %v, want a Canceled-wrapped error", err)
	}
	ep := s.seal(0)
	for _, exited := range s.workerExited {
		<-exited
	}
	for i, sk := range s.shards {
		if reason, ok := q.reason(i); ok {
			if reason != deadlineReason {
				t.Fatalf("shard %d quarantined for %q, want the shutdown deadline", i, reason)
			}
			continue
		}
		// A flushed shard's cache has been dumped: its counters hold every
		// packet the shard applied.
		if sum := sk.s.SRAM().Sum(); sum != sk.NumPackets() {
			t.Fatalf("shard %d neither flushed nor quarantined: counters hold %d of %d packets", i, sum, sk.NumPackets())
		}
	}
	assertAccounting(t, ep, 2*perHandle)
	// Every shard the close flushed has a query view.
	for i := range s.shards {
		if _, ok := q.reason(i); !ok && ep.ests[i] == nil {
			t.Fatalf("flushed shard %d has no query view after a cut-short close", i)
		}
	}
}

// TestChaosTornSnapshotWrite exercises the crash-safe writer against every
// snapshot fault class: a truncated payload, bit flips, and a crash before
// rename. In every case the destination file must keep its previous good
// content, and the loader must reject the torn bytes (when they exist)
// without panicking.
func TestChaosTornSnapshotWrite(t *testing.T) {
	w, err := NewShardedWindow(2, 2, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	const observed = 5000
	driveWindow(w, observed, 97)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	assertWindowAccounting(t, w, observed)

	dir := t.TempDir()
	path := filepath.Join(dir, "state.csnp")
	if err := w.SnapshotFile(path); err != nil {
		t.Fatalf("SnapshotFile: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShardedWindow(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("clean snapshot does not load: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(7)
	for name, hooks := range map[string]*snapfile.Hooks{
		"truncated": {TransformPayload: faultinject.Truncate(0.5)},
		"bitflips":  {TransformPayload: inj.FlipBits(8)},
		"crash":     {BeforeRename: faultinject.CrashBeforeRename()},
	} {
		switch name {
		case "crash":
			// The injected crash happens before rename: Write must fail and
			// the destination must still hold the previous good snapshot.
			if err := snapfile.Write(path, w, hooks); !errors.Is(err, faultinject.ErrInjectedCrash) {
				t.Fatalf("%s: Write = %v, want ErrInjectedCrash", name, err)
			}
		default:
			// Corrupting transforms produce a file whose bytes are torn; the
			// loader must reject them. (A real torn write dies before rename;
			// the transform models finding such bytes on disk.)
			corruptPath := filepath.Join(dir, name+".csnp")
			if err := snapfile.Write(corruptPath, w, hooks); err != nil {
				t.Fatalf("%s: Write: %v", name, err)
			}
			corrupt, err := os.ReadFile(corruptPath)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(corrupt, good) {
				t.Fatalf("%s: transform did not alter the snapshot", name)
			}
			if r, err := ReadShardedWindow(bytes.NewReader(corrupt)); err == nil {
				_ = r.Close() // the accepted load is the failure reported here
				t.Fatalf("%s: loader accepted torn snapshot bytes", name)
			}
		}
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, good) {
			t.Fatalf("%s: destination snapshot changed", name)
		}
		// No temp litter may survive a failed or diverted write.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if ext := filepath.Ext(e.Name()); ext != ".csnp" {
				t.Fatalf("%s: stray file %q left behind", name, e.Name())
			}
		}
	}
}

// TestChaosSnapshotCarriesLossLedger round-trips a lossy run through the
// snapshot layer: the restored window must report the same drops, health,
// and effective loss rate the construction process measured, and its
// sealed epoch the same Stats.
func TestChaosSnapshotCarriesLossLedger(t *testing.T) {
	inj := faultinject.New(8)
	w, err := NewShardedWindowOptions(1, 2, chaosConfig(), ShardedOptions{
		batchSize: 16,
		Hooks:     ShardedHooks{BeforeEnqueue: inj.DropBatches(0.3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 20000
	driveWindow(w, observed, 97)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := assertWindowAccounting(t, w, observed)
	if want.DroppedInjected == 0 {
		t.Fatal("no injected drops recorded; the fault was not exercised")
	}

	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShardedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got := loaded.Stats()
	if got.DroppedPackets != want.DroppedPackets || got.DroppedInjected != want.DroppedInjected ||
		got.DroppedBatches != want.DroppedBatches || got.Health != want.Health ||
		got.EffectiveLossRate != want.EffectiveLossRate {
		t.Fatalf("loaded loss ledger %+v differs from written %+v", got, want)
	}
	if loaded.NumPackets()+got.DroppedPackets != observed {
		t.Fatalf("loaded snapshot accounting broken: %d + %d != %d", loaded.NumPackets(), got.DroppedPackets, observed)
	}
	if rho := loaded.EffectiveLossRate(); rho != want.EffectiveLossRate {
		t.Fatalf("loaded window loss rate %v, want %v", rho, want.EffectiveLossRate)
	}
	if a, b := w.Epochs()[0].Stats(), loaded.Epochs()[0].Stats(); a != b {
		t.Fatalf("loaded sealed epoch Stats %+v, written %+v", b, a)
	}
}

// assertWindowAccounting pins the window-wide ledger invariant after Close:
// every packet observed through any handle across every rotation is either
// applied to some epoch's counters or counted in some epoch's drop ledger.
func assertWindowAccounting(t *testing.T, w *ShardedWindow, observed uint64) Stats {
	t.Helper()
	if got := w.NumPackets() + w.DroppedPackets(); got != observed {
		t.Fatalf("window accounting broken: NumPackets %d + dropped %d = %d, want observed %d",
			w.NumPackets(), w.DroppedPackets(), got, observed)
	}
	st := w.Stats()
	if got := uint64(st.Packets) + st.DroppedPackets; got != observed {
		t.Fatalf("window Stats accounting broken: Packets %d + dropped %d = %d, want observed %d (ledger %+v)",
			st.Packets, st.DroppedPackets, got, observed, st)
	}
	return st
}

// TestChaosShardedWindowRotationStress rotates a ShardedWindow under
// concurrent multi-handle ingest and concurrent queries: producers never
// stop while epochs seal, retire, and join the query ring, and at the end
// the lifetime ledger must balance exactly — the seal barrier may reorder
// packets between epochs but can never lose or double-count one.
func TestChaosShardedWindowRotationStress(t *testing.T) {
	w, err := NewShardedWindowOptions(3, 4, chaosConfig(), ShardedOptions{batchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	var observed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := w.Ingester()
			batch := make([]FlowID, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(FlowID(p*1000 + i%97))
				observed.Add(1)
				if i%64 == 0 {
					for j := range batch {
						batch[j] = FlowID(p*1000 + j)
					}
					h.ObserveBatch(batch)
					observed.Add(uint64(len(batch)))
				}
			}
		}(p)
	}
	// Queries race the rotations on purpose.
	wg.Add(1)
	go func() {
		defer wg.Done()
		flows := []FlowID{1, 1001, 2001, 3001}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Estimate(flows[0], CSM)
			_ = w.EstimateMany(flows, CSM, nil)
			_ = w.DroppedPackets()
			_ = w.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	// 5 rotations against a 3-epoch ring exercises retirement twice.
	for r := 0; r < 5; r++ {
		time.Sleep(10 * time.Millisecond)
		if err := w.Rotate(); err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Rotations() != 6 || w.EpochsSealed() != 3 {
		t.Fatalf("rotations=%d sealed=%d, want 6 and 3", w.Rotations(), w.EpochsSealed())
	}
	st := assertWindowAccounting(t, w, observed.Load())
	if st.DroppedPackets != 0 {
		t.Fatalf("Block policy dropped %d packets across rotations, want 0 (ledger %+v)", st.DroppedPackets, st)
	}
}

// TestChaosShardedWindowPanicMidSeal arms a worker panic to fire during the
// seal barrier itself: batchSize is large enough that the producer's packets
// sit in handle buffers until the seal flushes them, so the first batch the
// target shard ever applies is the one the seal dispatches. The sealed epoch
// must join the ring Degraded with the abandoned packets counted, the next
// epoch must ingest healthily, and the lifetime ledger must stay exact.
func TestChaosShardedWindowPanicMidSeal(t *testing.T) {
	const target = 1
	var armed atomic.Bool
	var panics atomic.Uint64
	w, err := NewShardedWindowOptions(2, 4, chaosConfig(), ShardedOptions{
		batchSize: 1024, // packets stay buffered in the handle until the seal
		Hooks: ShardedHooks{OnWorkerBatch: func(shard, packets int) {
			if shard == target && armed.CompareAndSwap(true, false) {
				panics.Add(1)
				panic("chaos: injected mid-seal panic")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	const firstEpoch = 600
	for i := 0; i < firstEpoch; i++ {
		h.Observe(FlowID(i % 97))
	}
	armed.Store(true)
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if panics.Load() != 1 {
		t.Fatal("the seal barrier never dispatched a batch to the armed worker; the fault was not exercised")
	}
	views := w.Epochs()
	if len(views) != 1 {
		t.Fatalf("Epochs() = %d views after one rotation, want 1", len(views))
	}
	sealed := views[0].Stats()
	if sealed.Health != Degraded || sealed.QuarantinedShards != 1 {
		t.Fatalf("sealed epoch Health = %v with %d quarantined shards, want Degraded with 1", sealed.Health, sealed.QuarantinedShards)
	}
	if sealed.DroppedQuarantine == 0 {
		t.Fatal("mid-seal panic abandoned no packets in the sealed epoch's ledger")
	}
	if got := views[0].NumPackets() + views[0].DroppedPackets(); got != firstEpoch {
		t.Fatalf("sealed epoch accounts %d packets, want %d", got, firstEpoch)
	}
	// The next epoch is a fresh shard set: the quarantine must not leak.
	if w.Health() != Healthy {
		t.Fatalf("next epoch Health = %v, want Healthy", w.Health())
	}
	const secondEpoch = 500
	for i := 0; i < secondEpoch; i++ {
		h.Observe(FlowID(i % 97))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := assertWindowAccounting(t, w, firstEpoch+secondEpoch)
	if st.DroppedQuarantine != sealed.DroppedQuarantine {
		t.Fatalf("window quarantine drops %d, want only the sealed epoch's %d (the fault must not recur)",
			st.DroppedQuarantine, sealed.DroppedQuarantine)
	}
}

// TestChaosRotateContextDeadline rotates a window while a producer is
// blocked in Observe behind the current epoch's wedged worker. Under Block
// the blocked producer holds its handle's mutex, which the handle swap
// needs, so only the deadline can free it: RotateContext must return the
// deadline error promptly, the sealed epoch must quarantine its wedged
// shard, the next epoch must ingest normally, and once the worker is
// released the lifetime ledger must balance exactly.
func TestChaosRotateContextDeadline(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	var wedged atomic.Bool
	var q quarantineLog
	w, err := NewShardedWindowOptions(2, 1, chaosConfig(), ShardedOptions{
		batchSize:  4,
		queueDepth: 1,
		Hooks: ShardedHooks{
			OnWorkerBatch: func(shard, packets int) {
				if wedged.CompareAndSwap(false, true) {
					<-release // wedge the first epoch's worker on its first batch
				}
			},
			OnQuarantine: q.record,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	const first = 64
	done := wedgeProducer(t, h.Observe, first)

	old := w.cur
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rotated := make(chan error, 1)
	go func() { rotated <- w.RotateContext(ctx) }()
	select {
	case err := <-rotated:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RotateContext = %v, want a DeadlineExceeded-wrapped error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RotateContext ignored its 50ms deadline while swapping handles")
	}
	if reason, ok := q.reason(0); !ok || reason != deadlineReason || old.ledger.shardDown[0].Load() == 0 {
		t.Fatalf("sealed epoch's wedged shard: quarantine reason %q, %v; want the shutdown deadline", reason, ok)
	}
	if w.Health() != Healthy {
		t.Fatalf("next epoch Health = %v, want Healthy", w.Health())
	}
	<-done // the abort released the blocked producer, which finished in the next epoch
	const second = 500
	for i := 0; i < second; i++ {
		h.Observe(FlowID(i % 97))
	}

	once.Do(func() { close(release) })
	<-old.workerExited[0] // the released worker applies its batch and drains the rest as drops
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	views := w.Epochs()
	if len(views) != 2 {
		t.Fatalf("Epochs() = %d views, want 2", len(views))
	}
	if st := views[0].Stats(); st.DroppedTimeout == 0 {
		t.Fatal("the cut-short seal recorded no timeout drops")
	}
	// The seal could not flush the wedged shard, so the sealed epoch has no
	// query view for it even after its worker exited: its flows answer
	// (0, zero interval), yet an alpha outside (0,1) still panics, as it
	// does for a covered flow.
	if views[0].Covered(0) {
		t.Fatal("flow on the abandoned shard reports covered")
	}
	if v, iv := views[0].EstimateWithInterval(0, 0.95); v != 0 || iv != (Interval{}) {
		t.Fatalf("uncovered flow: EstimateWithInterval = %v, %+v; want 0 and a zero interval", v, iv)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EstimateWithInterval with alpha 1.5 on an uncovered flow did not panic")
			}
		}()
		views[0].EstimateWithInterval(0, 1.5)
	}()
	if st := views[1].Stats(); st.Health != Healthy || st.DroppedPackets != 0 || st.Packets < second {
		t.Fatalf("next epoch: Health %v, %d dropped, %d applied; want Healthy, 0, >= %d",
			st.Health, st.DroppedPackets, st.Packets, second)
	}
	assertWindowAccounting(t, w, first+second)
}

// TestChaosCheckpointAfterCutShortSeal takes a checkpoint after a
// deadline-cut seal abandoned a wedged worker. The sealed epoch has no
// query view for that shard, and the shard was never flushed, so even once
// the worker has exited the checkpoint must fail, writing nothing, with an
// error naming the epoch and the shard — not panic. Once the epoch
// retires, checkpoints resume and restore bit-identically.
func TestChaosCheckpointAfterCutShortSeal(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	var wedged atomic.Bool
	w, err := NewShardedWindowOptions(2, 1, chaosConfig(), ShardedOptions{
		batchSize:  4,
		queueDepth: 1,
		Hooks: ShardedHooks{OnWorkerBatch: func(shard, packets int) {
			if wedged.CompareAndSwap(false, true) {
				<-release // wedge the first epoch's worker on its first batch
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	done := wedgeProducer(t, h.Observe, 64)
	old := w.cur
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := w.RotateContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RotateContext = %v, want a DeadlineExceeded-wrapped error", err)
	}
	once.Do(func() { close(release) })
	<-done
	<-old.workerExited[0] // the abandoned shard's state is final, and still unflushed

	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err == nil || !strings.Contains(err.Error(), "sealed epoch 0") || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("WriteTo with an abandoned shard in the ring = %v, want an error naming sealed epoch 0 and shard 0", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("refused checkpoint wrote %d bytes (reported %d)", buf.Len(), n)
	}

	// Two more seals retire the cut-short epoch from the 2-epoch ring.
	for r := 0; r < 2; r++ {
		driveWindow(w, 300, 97)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo after the cut-short epoch retired: %v", err)
	}
	r, err := ReadShardedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rotations() != w.Rotations() || r.NumPackets() != w.NumPackets() || r.DroppedPackets() != w.DroppedPackets() {
		t.Fatalf("restored rotations %d, packets %d, dropped %d; live %d, %d, %d",
			r.Rotations(), r.NumPackets(), r.DroppedPackets(), w.Rotations(), w.NumPackets(), w.DroppedPackets())
	}
	flows := make([]FlowID, 97)
	for i := range flows {
		flows[i] = FlowID(i)
	}
	for _, m := range []Method{CSM, MLM} {
		live, restored := w.EstimateMany(flows, m, nil), r.EstimateMany(flows, m, nil)
		for i, f := range flows {
			if math.Float64bits(live[i]) != math.Float64bits(restored[i]) {
				t.Fatalf("method %v flow %d: live %v, restored %v", m, f, live[i], restored[i])
			}
		}
	}
}

// TestChaosLossAdjustedEstimate drops ~half the traffic and checks that the
// loss-adjusted estimate recenters on the true flow size while the raw
// estimate covers only the recorded fraction — the paper's lossy-RCS
// correction applied to our ingest loss.
func TestChaosLossAdjustedEstimate(t *testing.T) {
	inj := faultinject.New(9)
	w, err := NewShardedWindowOptions(1, 2, chaosConfig(), ShardedOptions{
		batchSize: 8,
		Hooks:     ShardedHooks{BeforeEnqueue: inj.DropBatches(0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 60000
	const nFlows = 97
	driveWindow(w, observed, nFlows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := assertWindowAccounting(t, w, observed)
	if st.EffectiveLossRate < 0.3 || st.EffectiveLossRate > 0.7 {
		t.Fatalf("EffectiveLossRate = %v, want ~0.5", st.EffectiveLossRate)
	}
	truth := float64(observed / nFlows)
	var rawErr, adjErr float64
	for f := FlowID(0); f < nFlows; f++ {
		rawErr += math.Abs(w.Estimate(f, CSM)-truth) / truth
		adjErr += math.Abs(w.EstimateLossAdjusted(f, CSM)-truth) / truth
	}
	rawErr /= nFlows
	adjErr /= nFlows
	if adjErr >= rawErr {
		t.Fatalf("loss-adjusted ARE %.3f not better than raw ARE %.3f at ~50%% loss", adjErr, rawErr)
	}
	if adjErr > 0.15 {
		t.Fatalf("loss-adjusted ARE %.3f too large", adjErr)
	}
}

// TestChaosLossAdjustedSampleQuarantine combines the two loss mechanisms
// that had never shared a run: Sample-policy thinning (a slow consumer
// overflows shard 0's queue, so overflowing batches keep 1-in-N) and
// quarantine drops (a worker panic takes shard 1 down mid-run, counting
// its abandoned traffic). The combined EffectiveLossRate must still be the
// exact dropped/(dropped+recorded) ratio, and EstimateLossAdjusted must be
// exactly the Figure 7 correction of the raw estimate — bit-identical
// float math, not a tolerance.
func TestChaosLossAdjustedSampleQuarantine(t *testing.T) {
	inj := faultinject.New(31)
	slow := inj.SlowConsumer(0.6, time.Millisecond)
	panicAt := inj.PanicWorker(1, 40)
	var quarantined atomic.Uint64
	var quarantinedShard atomic.Int64
	w, err := NewShardedWindowOptions(1, 2, chaosConfig(), ShardedOptions{
		batchSize:      16,
		queueDepth:     1,
		OverflowPolicy: Sample,
		Hooks: ShardedHooks{
			OnWorkerBatch: func(shard, packets int) {
				slow(shard, packets)
				panicAt(shard, packets)
			},
			OnQuarantine: func(shard int, reason string) {
				quarantined.Add(1)
				quarantinedShard.Store(int64(shard))
				if reason == "" {
					t.Error("OnQuarantine fired with an empty reason")
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const observed = 30000
	const nFlows = 97
	driveWindow(w, observed, nFlows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st := assertWindowAccounting(t, w, observed)
	if st.DroppedSampled == 0 {
		t.Fatal("Sample policy under a slow consumer produced no sampling drops; the fault was not exercised")
	}
	if st.DroppedQuarantine == 0 {
		t.Fatal("worker panic produced no quarantine drops; the fault was not exercised")
	}
	if st.Health != Degraded {
		t.Fatalf("Health = %v with one of two shards quarantined, want Degraded", st.Health)
	}
	if got := quarantined.Load(); got != 1 {
		t.Fatalf("OnQuarantine fired %d times, want exactly once", got)
	}
	if got := quarantinedShard.Load(); got != 1 {
		t.Fatalf("OnQuarantine reported shard %d, want the panicked shard 1", got)
	}

	// The combined rate must be the exact ratio of the ledger, not an
	// approximation that loses packets between the two causes.
	dropped := float64(st.DroppedPackets)
	if want := dropped / (dropped + float64(w.NumPackets())); st.EffectiveLossRate != want {
		t.Fatalf("EffectiveLossRate = %v, want exact ratio %v", st.EffectiveLossRate, want)
	}
	if st.EffectiveLossRate <= 0 || st.EffectiveLossRate >= 1 {
		t.Fatalf("EffectiveLossRate = %v, want in (0,1)", st.EffectiveLossRate)
	}

	rho := w.EffectiveLossRate()
	if rho != st.EffectiveLossRate {
		t.Fatalf("window loss rate %v != stats loss rate %v", rho, st.EffectiveLossRate)
	}
	for f := FlowID(0); f < nFlows; f++ {
		raw := w.Estimate(f, CSM)
		adj := w.EstimateLossAdjusted(f, CSM)
		if want := raw / (1 - rho); adj != want {
			t.Fatalf("flow %d: EstimateLossAdjusted = %v, want exactly raw/(1-rho) = %v", f, adj, want)
		}
	}
}
