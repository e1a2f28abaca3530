package caesar

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// The sliding-window tests below run on a one-shard ShardedWindow, the
// single-threaded shape of the window (one worker owns every flow, so a
// bulk query has nothing to group), except where they loop over shard
// counts.

func windowConfig() Config {
	return Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          1,
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewShardedWindow(0, 1, windowConfig()); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := NewShardedWindow(3, 1, Config{}); err == nil {
		t.Error("bad sketch config accepted")
	}
}

func TestWindowSumsSealedEpochs(t *testing.T) {
	w, err := NewShardedWindow(3, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	// Three epochs with 100 packets of flow 7 each; a fourth with 100 more
	// that stays unsealed.
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 100; i++ {
			h.Observe(7)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		h.Observe(7)
	}
	if w.EpochsSealed() != 3 || w.Rotations() != 3 {
		t.Fatalf("sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-300) > 3 {
		t.Fatalf("window estimate = %v, want ~300 (current epoch excluded)", got)
	}
}

func TestWindowSlidesOldEpochsOut(t *testing.T) {
	w, err := NewShardedWindow(2, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	// Epoch 1: flow 1 only. Epochs 2, 3: flow 2 only. Window of 2 must
	// forget flow 1 after the third rotation.
	for i := 0; i < 200; i++ {
		h.Observe(1)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 150; i++ {
			h.Observe(2)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if w.EpochsSealed() != 2 {
		t.Fatalf("sealed = %d, want 2", w.EpochsSealed())
	}
	if got := w.Estimate(1, CSM); math.Abs(got) > 5 {
		t.Fatalf("expired flow still estimates %v", got)
	}
	if got := w.Estimate(2, CSM); math.Abs(got-300) > 5 {
		t.Fatalf("flow 2 window estimate = %v, want ~300", got)
	}
}

// TestWindowEmptyEstimatesZero pins the answer before the first seal: the
// open epoch's traffic is invisible, so a flow estimates 0 with a
// zero-width interval, at any shard count.
func TestWindowEmptyEstimatesZero(t *testing.T) {
	for _, nshards := range []int{1, 3} {
		w, err := NewShardedWindow(4, nshards, windowConfig())
		if err != nil {
			t.Fatal(err)
		}
		w.Ingester().ObserveBatch([]FlowID{9, 9, 9})
		if got := w.Estimate(9, CSM); got != 0 {
			t.Fatalf("%d shards, no sealed epochs: estimate = %v", nshards, got)
		}
		est, iv := w.EstimateWithInterval(9, 0.95)
		if est != 0 || iv.Width() != 0 {
			t.Fatalf("%d shards, no sealed epochs: interval = %v %+v", nshards, est, iv)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowIntervalCoversTruth checks the windowed interval around a flow
// with background traffic: it holds its own estimate and the window truth,
// and its one quantile lookup equals the per-epoch interval queries, at 1,
// 2 and 4 shards.
func TestWindowIntervalCoversTruth(t *testing.T) {
	for _, nshards := range []int{1, 2, 4} {
		name := fmt.Sprintf("%d shards", nshards)
		w, err := NewShardedWindow(3, nshards, windowConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := w.Ingester()
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < 500; i++ {
				h.Observe(42)
				h.Observe(FlowID(100 + i%50)) // background flows
			}
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		est, iv := w.EstimateWithInterval(42, 0.95)
		if !iv.Contains(est) {
			t.Fatalf("%s: interval excludes its own estimate", name)
		}
		if !iv.Contains(1500) {
			t.Fatalf("%s: interval %+v excludes the window truth 1500 (est %v)", name, iv, est)
		}
		var epochs []func(FlowID, float64) (float64, Interval)
		for _, v := range w.Epochs() {
			epochs = append(epochs, v.EstimateWithInterval)
		}
		for _, f := range []FlowID{42, 100, 149, 7} {
			wantEst, wantIv := intervalBySteps(epochs, f, 0.9)
			if est, iv := w.EstimateWithInterval(f, 0.9); est != wantEst || iv != wantIv {
				t.Fatalf("%s: flow %d: EstimateWithInterval %v %+v, per-epoch intervals give %v %+v",
					name, f, est, iv, wantEst, wantIv)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowEpochSeedsDiffer feeds one flow through two epochs, each hashed
// under its own rotation-derived seed; both estimators must sum to the
// window truth.
func TestWindowEpochSeedsDiffer(t *testing.T) {
	w, err := NewShardedWindow(2, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 400; i++ {
			h.Observe(5)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	views := w.Epochs()
	if s0, s1 := views[0].ep.shards[0].s.Config().Seed, views[1].ep.shards[0].s.Config().Seed; s0 == s1 {
		t.Fatalf("epochs 0 and 1 share hash seed %#x", s0)
	}
	if got := w.Estimate(5, CSM); math.Abs(got-800) > 4 {
		t.Fatalf("two-epoch estimate = %v, want ~800", got)
	}
	if got := w.Estimate(5, MLM); math.Abs(got-800) > 0.1*800 {
		t.Fatalf("two-epoch MLM estimate = %v, want ~800", got)
	}
}

// TestWindowSnapshotResumesRotationSeeds pins that a window restored from
// a snapshot taken AFTER the oldest epoch was retired resumes the epoch
// seed sequence at the writer's rotation ordinal — not at the count of
// sealed epochs it happens to carry. Identical traffic into the writer and
// the restored window must therefore produce bit-identical epochs forever;
// a restart from the wrong ordinal would reuse a retired epoch's seed and
// diverge on the very first estimate.
func TestWindowSnapshotResumesRotationSeeds(t *testing.T) {
	w, err := NewShardedWindow(2, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	feed := func(h *WindowIngester) {
		for i := 0; i < 3000; i++ {
			h.Observe(FlowID(i % 150))
		}
	}
	wh := w.Ingester()
	// Rotate past the window size: 4 rotations against a 2-epoch ring, so
	// the snapshot carries epochs 2..3 and the writer's next seed ordinal
	// is 4, while len(sealed) is only 2.
	for e := 0; e < 4; e++ {
		feed(wh)
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
	defer r.Close()
	rh := r.Ingester()
	for round := 0; round < 2; round++ {
		feed(wh)
		feed(rh)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := r.Rotate(); err != nil {
			t.Fatal(err)
		}
		for f := FlowID(0); f < 200; f++ {
			a, b := w.Estimate(f, CSM), r.Estimate(f, CSM)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round %d flow %d: live %v != restored %v (rotation seeds diverged after retirement)",
					round, f, a, b)
			}
		}
	}
	if r.Rotations() != w.Rotations() {
		t.Fatalf("rotations diverged: %d != %d", r.Rotations(), w.Rotations())
	}
}
