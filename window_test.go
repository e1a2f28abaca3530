package caesar

import (
	"bytes"
	"math"
	"testing"
)

func windowConfig() Config {
	return Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          1,
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(0, windowConfig()); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := NewWindow(3, Config{}); err == nil {
		t.Error("bad sketch config accepted")
	}
}

func TestWindowSumsSealedEpochs(t *testing.T) {
	w, err := NewWindow(3, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three epochs with 100 packets of flow 7 each; a fourth with 100 more
	// that stays unsealed.
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 100; i++ {
			w.Observe(7)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		w.Observe(7)
	}
	if w.EpochsSealed() != 3 || w.Rotations() != 3 {
		t.Fatalf("sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-300) > 3 {
		t.Fatalf("window estimate = %v, want ~300 (current epoch excluded)", got)
	}
}

func TestWindowSlidesOldEpochsOut(t *testing.T) {
	w, err := NewWindow(2, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: flow 1 only. Epochs 2, 3: flow 2 only. Window of 2 must
	// forget flow 1 after the third rotation.
	for i := 0; i < 200; i++ {
		w.Observe(1)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 150; i++ {
			w.Observe(2)
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

func TestWindowEmptyEstimatesZero(t *testing.T) {
	w, err := NewWindow(4, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Estimate(9, CSM); got != 0 {
		t.Fatalf("no sealed epochs: estimate = %v", got)
	}
	est, iv := w.EstimateWithInterval(9, 0.95)
	if est != 0 || iv.Width() != 0 {
		t.Fatalf("no sealed epochs: interval = %v %+v", est, iv)
	}
}

func TestWindowIntervalCoversTruth(t *testing.T) {
	w, err := NewWindow(3, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 500; i++ {
			w.Observe(42)
			w.Observe(FlowID(100 + i%50)) // background flows
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	est, iv := w.EstimateWithInterval(42, 0.95)
	if !iv.Contains(est) {
		t.Fatal("interval excludes its own estimate")
	}
	if !iv.Contains(1500) {
		t.Fatalf("interval %+v excludes the window truth 1500 (est %v)", iv, est)
	}
	// The window's one quantile lookup must give exactly what the
	// per-epoch interval queries give.
	var epochs []func(FlowID, float64) (float64, Interval)
	for i := 0; i < w.EpochsSealed(); i++ {
		epochs = append(epochs, w.lc.At(i).EstimateWithInterval)
	}
	for _, f := range []FlowID{42, 100, 149, 7} {
		wantEst, wantIv := intervalBySteps(epochs, f, 0.9)
		if est, iv := w.EstimateWithInterval(f, 0.9); est != wantEst || iv != wantIv {
			t.Fatalf("flow %d: EstimateWithInterval %v %+v, per-epoch intervals give %v %+v", f, est, iv, wantEst, wantIv)
		}
	}
}

func TestWindowEpochSeedsDiffer(t *testing.T) {
	// Different epochs must map flows to different counters: feed one flow
	// in two epochs and verify the sealed estimators disagree on a
	// never-seen flow's *raw counters* only if seeds matched. Cheap proxy:
	// rotating twice with the same traffic yields near-identical estimates,
	// which is only guaranteed when each epoch independently works — and
	// the per-epoch noise profile differs (not asserted bit-exactly here,
	// but the rotation bookkeeping is).
	w, err := NewWindow(2, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 400; i++ {
			w.Observe(5)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
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
	w, err := NewWindow(2, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed := func(win *Window) {
		for i := 0; i < 3000; i++ {
			win.Observe(FlowID(i % 150))
		}
	}
	// Rotate past the window size: 4 rotations against a 2-epoch ring, so
	// the snapshot carries epochs 2..3 and the writer's next seed ordinal
	// is 4, while len(sealed) is only 2.
	for e := 0; e < 4; e++ {
		feed(w)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		feed(w)
		feed(r)
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
