package caesar

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar/internal/sketch"
	"github.com/caesar-sketch/caesar/internal/stats"
)

func shardedWindowConfig() Config {
	return Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          5,
	}
}

func TestShardedWindowValidation(t *testing.T) {
	if _, err := NewShardedWindow(0, 2, shardedWindowConfig()); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := NewShardedWindow(3, 2, Config{}); err == nil {
		t.Error("bad sketch config accepted")
	}
	if _, err := NewShardedWindow(3, -1, shardedWindowConfig()); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestShardedWindowSumsSealedEpochs(t *testing.T) {
	w, err := NewShardedWindow(3, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	// Three epochs with 300 packets of flow 7 each; a fourth epoch's worth
	// stays unsealed.
	for e := 0; e < 3; e++ {
		for i := 0; i < 300; i++ {
			h.Observe(7)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		h.Observe(7)
	}
	if w.EpochsSealed() != 3 || w.Rotations() != 3 {
		t.Fatalf("sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-900) > 9 {
		t.Fatalf("window estimate = %v, want ~900 (current epoch excluded)", got)
	}
	est, iv := w.EstimateWithInterval(7, 0.95)
	if !iv.Contains(est) || !iv.Contains(900) {
		t.Fatalf("interval %+v excludes estimate %v or truth 900", iv, est)
	}
	// Close seals the fourth epoch: the window slides, still 3 sealed.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EpochsSealed() != 3 || w.Rotations() != 4 {
		t.Fatalf("after close: sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-900) > 9 {
		t.Fatalf("post-close window estimate = %v, want ~900 (oldest epoch retired)", got)
	}
}

func TestShardedWindowSlidesOldEpochsOut(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	for i := 0; i < 400; i++ {
		h.Observe(1)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		for i := 0; i < 250; i++ {
			h.Observe(2)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Estimate(1, CSM); math.Abs(got) > 8 {
		t.Fatalf("expired flow still estimates %v", got)
	}
	if got := w.Estimate(2, CSM); math.Abs(got-500) > 8 {
		t.Fatalf("flow 2 window estimate = %v, want ~500", got)
	}
	// The oldest epoch retired, and the ring lists the rest oldest first.
	if views := w.Epochs(); len(views) != 2 || views[0].Rotation() != 1 || views[1].Rotation() != 2 || w.Rotations() != 3 {
		t.Fatalf("%d sealed epochs after 3 rotations of a 2-epoch window (rotations %d), want rotations 1 and 2", len(views), w.Rotations())
	}
	// Retired epochs stay in the lifetime ledger.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.NumPackets() + w.DroppedPackets(); got != 900 {
		t.Fatalf("lifetime ledger = %d, want 900 (retired epochs must stay counted)", got)
	}
}

func TestShardedWindowMultiHandleLedger(t *testing.T) {
	w, err := NewShardedWindow(2, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 5000
	h1, h2 := w.Ingester(), w.Ingester()
	for i := 0; i < perHandle; i++ {
		h1.Observe(FlowID(i % 31))
		h2.Observe(FlowID(i % 57))
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perHandle; i++ {
		h1.Observe(FlowID(i % 31))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	observed := uint64(3 * perHandle)
	if got := w.NumPackets() + w.DroppedPackets(); got != observed {
		t.Fatalf("ledger: applied %d + dropped %d != observed %d",
			w.NumPackets(), w.DroppedPackets(), observed)
	}
	st := w.Stats()
	if uint64(st.Packets)+st.DroppedPackets != observed {
		t.Fatalf("Stats ledger: %d + %d != %d", st.Packets, st.DroppedPackets, observed)
	}
	// Post-close observes are counted no-ops in the final epoch's ledger.
	h1.Observe(99)
	h2.ObserveBatch([]FlowID{1, 2, 3})
	if got := w.NumPackets() + w.DroppedPackets(); got != observed+4 {
		t.Fatalf("post-close ledger: got %d, want %d", got, observed+4)
	}
}

func TestShardedWindowRotateAfterCloseFails(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if err := w.Rotate(); err == nil {
		t.Fatal("Rotate after Close succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ingester after Close did not panic")
		}
	}()
	w.Ingester()
}

func TestShardedWindowBulkMatchesScalar(t *testing.T) {
	w, err := NewShardedWindow(3, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	flows := make([]FlowID, 200)
	for i := range flows {
		flows[i] = FlowID(i * 13)
	}
	for e := 0; e < 3; e++ {
		for rep := 0; rep < 20; rep++ {
			for _, f := range flows {
				h.Observe(f)
			}
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Method{CSM, MLM} {
		bulk := w.EstimateMany(flows, m, nil)
		for i, f := range flows {
			if got := w.Estimate(f, m); got != bulk[i] {
				t.Fatalf("%v flow %d: scalar %v != bulk %v", m, f, got, bulk[i])
			}
		}
		for _, workers := range []int{2, 5} {
			par := w.QueryAll(flows, m, workers, nil)
			for i := range flows {
				if par[i] != bulk[i] {
					t.Fatalf("%v workers=%d flow %d: %v != %v", m, workers, flows[i], par[i], bulk[i])
				}
			}
		}
	}
	// Per-epoch views partition the window sum exactly.
	views := w.Epochs()
	if len(views) != 3 {
		t.Fatalf("Epochs() = %d views, want 3", len(views))
	}
	whole := w.EstimateMany(flows, CSM, nil)
	sum := make([]float64, len(flows))
	for _, v := range views {
		part := v.EstimateMany(flows, CSM, nil)
		for i := range sum {
			sum[i] += part[i]
		}
	}
	for i := range flows {
		if math.Abs(sum[i]-whole[i]) > 1e-9 {
			t.Fatalf("epoch views sum %v != window %v for flow %d", sum[i], whole[i], flows[i])
		}
	}
	if views[0].Rotation() != 0 || views[2].Rotation() != 2 {
		t.Fatalf("view rotations = %d..%d, want 0..2", views[0].Rotation(), views[2].Rotation())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWindowSnapshotBitIdentical pins the service's central
// round-trip guarantee: estimates from a loaded snapshot are bit-identical
// to the live window's, the lifetime ledger survives (including retired
// epochs), and the restored window resumes with the writer's rotation
// seeds so both produce identical epochs from identical traffic.
func TestShardedWindowSnapshotBitIdentical(t *testing.T) {
	w, err := NewShardedWindow(2, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]FlowID, 150)
	for i := range flows {
		flows[i] = FlowID(i * 7)
	}
	feed := func(sw *ShardedWindow) {
		h := sw.Ingester()
		for rep := 0; rep < 25; rep++ {
			for _, f := range flows {
				h.Observe(f)
			}
		}
	}
	// Rotate past the window size so a retired epoch is in play.
	for e := 0; e < 3; e++ {
		feed(w)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rotations() != w.Rotations() || r.EpochsSealed() != w.EpochsSealed() {
		t.Fatalf("restored rotations/sealed = %d/%d, want %d/%d",
			r.Rotations(), r.EpochsSealed(), w.Rotations(), w.EpochsSealed())
	}
	if r.NumPackets() != w.NumPackets() || r.DroppedPackets() != w.DroppedPackets() {
		t.Fatalf("restored ledger %d+%d, want %d+%d",
			r.NumPackets(), r.DroppedPackets(), w.NumPackets(), w.DroppedPackets())
	}
	live := w.EstimateMany(flows, CSM, nil)
	loaded := r.EstimateMany(flows, CSM, nil)
	for i := range flows {
		if live[i] != loaded[i] {
			t.Fatalf("flow %d: live %v != loaded %v (must be bit-identical)", flows[i], live[i], loaded[i])
		}
	}

	// Resume: identical traffic into both must produce identical epochs —
	// pins that the restored current epoch uses the writer's next rotation
	// seed, not a restart from rotation 0.
	feed(w)
	feed(r)
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	liveNext := w.EstimateMany(flows, CSM, nil)
	loadedNext := r.EstimateMany(flows, CSM, nil)
	for i := range flows {
		if liveNext[i] != loadedNext[i] {
			t.Fatalf("after resume, flow %d: live %v != loaded %v (rotation seeds diverged)",
				flows[i], liveNext[i], loadedNext[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWindowSnapshotWhileIngesting pins that WriteTo is safe and
// meaningful on a live, mid-epoch window: it captures exactly the sealed
// ring (queries' view) without stopping ingest.
func TestShardedWindowSnapshotWhileIngesting(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	for i := 0; i < 500; i++ {
		h.Observe(FlowID(i % 19))
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 123; i++ { // mid-epoch traffic a snapshot must not capture
		h.Observe(FlowID(i % 19))
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPackets() != 500 {
		t.Fatalf("snapshot captured %d packets, want the 500 sealed ones", r.NumPackets())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// fourEpochWindow builds a 4-epoch window over nshards shards whose epochs
// hold different traffic over flows, and seals all four.
func fourEpochWindow(t *testing.T, nshards int, flows []FlowID) *ShardedWindow {
	t.Helper()
	w, err := NewShardedWindow(4, nshards, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	for e := 0; e < 4; e++ {
		for i, f := range flows {
			for p := 0; p < 1+(i*7+e*3)%23; p++ {
				h.Observe(f)
			}
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// intervalBySteps is the windowed interval as the per-epoch scalar queries
// give it: each epoch's own EstimateWithInterval, its half-width turned
// back into a variance at z, the variances summed.
func intervalBySteps(epochs []func(FlowID, float64) (float64, Interval), flow FlowID, alpha float64) (float64, Interval) {
	z := stats.ZAlpha(alpha)
	var sum, varsum float64
	for _, q := range epochs {
		est, iv := q(flow, alpha)
		sum += est
		half := iv.Width() / 2
		varsum += (half / z) * (half / z)
	}
	half := z * math.Sqrt(varsum)
	return sum, Interval{Lo: sum - half, Hi: sum + half}
}

// checkWindowBulk requires the window's bulk queries at every worker count,
// and its interval query, to be bit-identical to the scalar per-flow path.
func checkWindowBulk(t *testing.T, name string, w *ShardedWindow, flows []FlowID) {
	t.Helper()
	var epochs []func(FlowID, float64) (float64, Interval)
	for _, v := range w.Epochs() {
		epochs = append(epochs, v.EstimateWithInterval)
	}
	for i, f := range flows {
		gotEst, gotIv := w.EstimateWithInterval(f, 0.95)
		wantEst, wantIv := intervalBySteps(epochs, f, 0.95)
		if math.Float64bits(gotEst) != math.Float64bits(wantEst) ||
			math.Float64bits(gotIv.Lo) != math.Float64bits(wantIv.Lo) || math.Float64bits(gotIv.Hi) != math.Float64bits(wantIv.Hi) {
			t.Fatalf("%s: flow %d (#%d): EstimateWithInterval %v %+v, per-epoch intervals give %v %+v",
				name, f, i, gotEst, gotIv, wantEst, wantIv)
		}
	}
	for _, m := range []Method{CSM, MLM} {
		for _, workers := range []int{1, 2, 5} {
			var got []float64
			if workers == 1 {
				got = w.EstimateMany(flows, m, nil)
			} else {
				got = w.QueryAll(flows, m, workers, nil)
			}
			for i, f := range flows {
				if want := w.Estimate(f, m); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s: %v workers=%d flow %d: bulk %v, Estimate %v", name, m, workers, f, got[i], want)
				}
			}
		}
	}
}

// TestShardedWindowBulkMatchesScalarEdges pins the window's one-grouping
// bulk path to the scalar Estimate loop where the grouping could go wrong:
// a single shard, an epoch whose shard estimator is unrecoverable (nil),
// and a window restored from a snapshot.
func TestShardedWindowBulkMatchesScalarEdges(t *testing.T) {
	flows, _ := bulkAPIFlows(700)
	for _, nshards := range []int{1, 3} {
		w := fourEpochWindow(t, nshards, flows)
		checkWindowBulk(t, fmt.Sprintf("%d shards", nshards), w, flows)

		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := ReadShardedWindow(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkWindowBulk(t, fmt.Sprintf("%d shards, restored", nshards), r, flows)
		live, restored := w.EstimateMany(flows, MLM, nil), r.EstimateMany(flows, MLM, nil)
		for i := range flows {
			if math.Float64bits(live[i]) != math.Float64bits(restored[i]) {
				t.Fatalf("%d shards: flow %d: live %v, restored %v", nshards, flows[i], live[i], restored[i])
			}
		}

		// An unrecoverable shard in one epoch: its flows take 0 from that
		// epoch only.
		w.sealed[1].ests[nshards-1] = nil
		checkWindowBulk(t, fmt.Sprintf("%d shards, nil shard estimator", nshards), w, flows)
		for _, sw := range []*ShardedWindow{w, r} {
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedWindowConcurrentBulkQueries runs window and epoch-view bulk
// queries from several goroutines at once: the window's shard grouping and
// sums are shared scratch, so every answer must still equal the serial one
// (run under -race by make race).
func TestShardedWindowConcurrentBulkQueries(t *testing.T) {
	flows, _ := bulkAPIFlows(600)
	w := fourEpochWindow(t, 3, flows)
	defer w.Close()
	want := w.EstimateMany(flows, CSM, nil)
	view := w.Epochs()[2]
	wantView := view.EstimateMany(flows, CSM, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, exp := w.QueryAll(flows, CSM, 1+g%3, nil), want
				if g%2 == 1 {
					got, exp = view.QueryAll(flows, CSM, g, nil), wantView
				}
				for j := range flows {
					if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
						t.Errorf("goroutine %d: flow %d: %v, serial %v", g, flows[j], got[j], exp[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedWindowEstimateManyZeroAllocs is the window's bulk-query
// allocation gate, wired into `make bench-smoke`: with a reused dst, a
// windowed bulk query allocates nothing once its scratch is warm.
func TestShardedWindowEstimateManyZeroAllocs(t *testing.T) {
	flows, _ := bulkAPIFlows(1024)
	w := fourEpochWindow(t, 3, flows)
	defer w.Close()
	dst := make([]float64, len(flows))
	for _, m := range []Method{CSM, MLM} {
		w.EstimateMany(flows, m, dst) // warm the grouping scratch
		if allocs := testing.AllocsPerRun(20, func() {
			w.EstimateMany(flows, m, dst)
		}); allocs != 0 {
			t.Fatalf("method %v: window EstimateMany allocated %.1f times per run", m, allocs)
		}
	}
}

// TestReadShardedWindowRejectsShardMismatch pins that a snapshot whose
// sealed epochs disagree with the window on the shard count is refused,
// naming the epoch: window bulk queries group every epoch's flows with one
// routing.
func TestReadShardedWindowRejectsShardMismatch(t *testing.T) {
	w, err := NewShardedWindow(3, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	for e := 0; e < 2; e++ {
		h.ObserveBatch([]FlowID{1, 2, 3})
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	other, err := NewShardedWindow(1, 3, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	other.Ingester().ObserveBatch([]FlowID{1, 2, 3})
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	// The second sealed epoch takes the 3-shard epoch's state.
	ep := *other.sealed[0]
	ep.rotation = w.sealed[1].rotation
	w.sealed[1] = &ep

	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = ReadShardedWindow(&buf)
	if err == nil || !strings.Contains(err.Error(), "sealed epoch 1 has 3 shards") {
		t.Fatalf("ReadShardedWindow = %v, want a shard-count error naming sealed epoch 1", err)
	}
}

// TestReadShardedWindowRejectsBadLifecycle pins the restore's checks on
// the checkpoint's window section: a window needs at least one epoch, can
// hold no more sealed epochs than its epoch count, and cannot have sealed
// more epochs than it rotated.
func TestReadShardedWindowRejectsBadLifecycle(t *testing.T) {
	cfg := shardedWindowConfig()
	for _, tc := range []struct {
		name                      string
		epochs, rotations, sealed int
		want                      string
	}{
		{"no epochs", 0, 0, 0, "needs >= 1 epoch, got 0"},
		{"more sealed epochs than the window holds", 2, 3, 3, "carries 3 sealed epochs for a 2-epoch window"},
		{"rotations below the sealed count", 4, 1, 2, "rotations 1 below sealed epoch count 2"},
	} {
		var e sketch.Encoder
		e.Section("conf", func(e *sketch.Encoder) {
			e.Int(cfg.K)
			e.Int(cfg.Counters)
			e.Int(cfg.CounterBits)
			e.Int(cfg.CacheEntries)
			e.U64(cfg.CacheCapacity)
			e.U8(uint8(cfg.Policy))
			e.U64(cfg.Seed)
			e.Int(2)
		})
		e.Section("wind", func(e *sketch.Encoder) {
			e.Int(tc.epochs)
			e.Int(tc.rotations)
			e.Int(tc.sealed)
			e.U64(0)
			e.U64(0)
		})
		var buf bytes.Buffer
		if _, err := sketch.WriteSnapshot(&buf, shardedWindowAlgoName, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadShardedWindow(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadShardedWindow = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSealedEpochReleasesShardSet pins that a sealed epoch holds no ingest
// machinery: once Rotate seals the open epoch, its shard set (workers,
// rings, batch pool, handles) becomes garbage, while the sealed epoch keeps
// answering.
func TestSealedEpochReleasesShardSet(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	for i := 0; i < 500; i++ {
		h.Observe(7)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(w.cur, func(*sharded) { close(released) })
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// A sync.Pool inside the shard set stays registered until the GC after
	// next, so collect until the finalizer runs.
	deadline := time.Now().Add(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-released:
			collected = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the sealed epoch still keeps its shard set reachable")
			}
		}
	}
	if got := w.Estimate(7, CSM); math.Abs(got-500) > 2 {
		t.Fatalf("sealed epoch estimate = %v after its shard set was collected, want ~500", got)
	}
}

// TestShardedWindowSnapshotPersistsFlowHash pins the checkpoint's FlowHash
// section: a fast-hash window restored under FlowHashFast derives the same
// tuple IDs and answers the same estimates, and a restore under the default
// SHA-1 hash, whose IDs would address other flows, is refused naming both.
func TestShardedWindowSnapshotPersistsFlowHash(t *testing.T) {
	opts := ShardedOptions{FlowHash: FlowHashFast}
	w, err := NewShardedWindowOptions(2, 2, shardedWindowConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tuples := flowHashTuples(256)
	h := w.Ingester()
	for e := 0; e < 2; e++ {
		for rep := 0; rep <= e; rep++ {
			h.ObservePackets(tuples)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := ReadShardedWindowOptions(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatalf("fast-hash restore: %v", err)
	}
	defer r.Close()
	for _, tt := range tuples[:64] {
		id := w.HashTuple(tt)
		if got := r.HashTuple(tt); got != id {
			t.Fatalf("HashTuple(%v): restored %#x, writer %#x", tt, uint64(got), uint64(id))
		}
		for _, m := range []Method{CSM, MLM} {
			if a, b := w.Estimate(id, m), r.Estimate(id, m); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("flow %#x %v: writer %v, restored %v", uint64(id), m, a, b)
			}
		}
	}

	_, err = ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "FlowHash fast") || !strings.Contains(err.Error(), "sha1") {
		t.Fatalf("SHA-1 restore of a fast-hash checkpoint = %v, want an error naming both hashes", err)
	}
}

// goldenCheckpointWindow builds the window testdata/shardedwindow.csnp was
// written from: 2 shards and 2 epochs, three seals (so the first epoch is
// retired), one handle under the Block policy, and five observes after
// Close counted in the final epoch's ledger.
func goldenCheckpointWindow(t *testing.T) *ShardedWindow {
	t.Helper()
	w, err := NewShardedWindow(2, 2, Config{Counters: 1 << 10, CacheEntries: 1 << 6, CacheCapacity: 16, Seed: 2026})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	for e := 0; e < 3; e++ {
		for i := 0; i < 4000; i++ {
			h.Observe(FlowID((i*7 + e*13) % (200 + 50*e)))
		}
		if e < 2 {
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Observe(FlowID(i))
	}
	return w
}

// TestShardedWindowGoldenCheckpoint restores testdata/shardedwindow.csnp, a
// daemon-shaped checkpoint written before checkpoints carried the FlowHash
// section, and checks it against values pinned when it was written: a
// daemon restarted on a newer binary must answer from its old checkpoint
// exactly so. The file is never regenerated. The writer half rebuilds the
// same window and requires today's payload to be the golden payload, byte
// for byte, followed only by the FlowHash section.
func TestShardedWindowGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "shardedwindow.csnp"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := []struct {
		flow     FlowID
		csm, mlm float64
	}{
		{0, 32.8046875, 36.6178957517371},
		{1, 13.3203125, 17.436546537391347},
		{7, 14.3203125, 17.919557382892275},
		{42, 38.3203125, 44.44571685608129},
		{199, 22.3203125, 28.293631637569575},
		{249, 26.8046875, 33.2257304704891},
		{1000, -0.1953125, 10.636366399358582},
	}
	// Without a FlowHash section the checkpoint restores under either hash.
	for _, fh := range []FlowHash{FlowHashSHA1, FlowHashFast} {
		w, err := ReadShardedWindowOptions(bytes.NewReader(golden), ShardedOptions{FlowHash: fh})
		if err != nil {
			t.Fatalf("FlowHash %v: %v", fh, err)
		}
		if w.Rotations() != 3 || w.EpochsSealed() != 2 || w.NumPackets() != 12000 || w.DroppedPackets() != 5 {
			t.Fatalf("FlowHash %v: rotations %d, sealed %d, packets %d, dropped %d; want 3, 2, 12000, 5",
				fh, w.Rotations(), w.EpochsSealed(), w.NumPackets(), w.DroppedPackets())
		}
		for _, p := range pinned {
			if got := w.Estimate(p.flow, CSM); got != p.csm {
				t.Errorf("FlowHash %v: flow %d CSM = %v, pinned %v", fh, p.flow, got, p.csm)
			}
			if got := w.Estimate(p.flow, MLM); got != p.mlm {
				t.Errorf("FlowHash %v: flow %d MLM = %v, pinned %v", fh, p.flow, got, p.mlm)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	want, _, err := sketch.ReadSnapshot(bytes.NewReader(golden), shardedWindowAlgoName)
	if err != nil {
		t.Fatal(err)
	}
	var hash sketch.Encoder
	hash.Section("hash", func(e *sketch.Encoder) { e.U8(uint8(FlowHashSHA1)) })
	want = append(want, hash.Bytes()...)
	var buf bytes.Buffer
	if _, err := goldenCheckpointWindow(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := sketch.ReadSnapshot(&buf, shardedWindowAlgoName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("today's writer: %d-byte payload differs from the golden payload plus the FlowHash section (%d bytes)", len(got), len(want))
	}
}
