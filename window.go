package caesar

import (
	"fmt"
	"math"

	"github.com/caesar-sketch/caesar/internal/epoch"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// Window provides continuous measurement over a sliding window of epochs —
// the "per-flow counting over sliding windows" direction the paper cites as
// companion work. A fresh sketch ingests the current epoch; Rotate seals it
// (flushing its cache to its counters) and retires the oldest epoch once
// the window is full. Queries aggregate the sealed epochs, so answers cover
// the most recent `epochs` completed intervals.
//
// Each epoch uses a different hash seed (internal/epoch's rotation-indexed
// derivation), which decorrelates the sharing noise across epochs: summed
// window estimates stay unbiased while their relative noise shrinks as the
// window grows.
//
// Window is single-threaded, like Sketch: one goroutine ingests, rotates,
// and queries. ShardedWindow is the concurrent counterpart — the same
// epoch lifecycle over a Sharded shard set, with a seal barrier that lets
// producers keep ingesting through rotations.
type Window struct {
	cfg Config
	lc  *epoch.Lifecycle[*Sketch, *Estimator]
}

// NewWindow builds a sliding window that retains `epochs` sealed epochs.
// cfg is the per-epoch budget.
func NewWindow(epochs int, cfg Config) (*Window, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("caesar: window needs >= 1 epoch, got %d", epochs)
	}
	first, err := newEpochSketch(cfg, 0)
	if err != nil {
		return nil, err
	}
	lc, err := epoch.NewLifecycle[*Sketch, *Estimator](epochs, first)
	if err != nil {
		return nil, err
	}
	return &Window{cfg: cfg, lc: lc}, nil
}

// newEpochSketch builds the sketch for the rotation-th epoch: the same
// per-epoch budget with the rotation-derived hash seed.
func newEpochSketch(cfg Config, rotation int) (*Sketch, error) {
	cfg.Seed = epoch.Seed(cfg.Seed, rotation)
	return New(cfg)
}

// Observe records one packet in the current epoch.
func (w *Window) Observe(flow FlowID) { w.lc.Current().Observe(flow) }

// ObservePacket parses a 5-tuple and records one packet.
func (w *Window) ObservePacket(t FiveTuple) { w.lc.Current().ObservePacket(t) }

// Rotate seals the current epoch and starts a new one, retiring the oldest
// sealed epoch when the window is full.
func (w *Window) Rotate() error {
	next, err := newEpochSketch(w.cfg, w.lc.Rotations()+1)
	if err != nil {
		return err
	}
	w.lc.Rotate(w.lc.Current().Estimator(), next)
	return nil
}

// EpochsSealed returns how many sealed epochs currently back queries
// (grows to the window size, then stays there).
func (w *Window) EpochsSealed() int { return w.lc.Len() }

// Rotations returns how many epochs have been sealed in total.
func (w *Window) Rotations() int { return w.lc.Rotations() }

// Estimate returns the flow's estimated packet count summed over the
// sealed epochs of the window. The current (still-ingesting) epoch is not
// included; call Rotate first to fold it in.
func (w *Window) Estimate(flow FlowID, m Method) float64 {
	var sum float64
	for i, n := 0, w.lc.Len(); i < n; i++ {
		sum += w.lc.At(i).Estimate(flow, m)
	}
	return sum
}

// EstimateWithInterval returns the windowed CSM estimate with a
// reliability-alpha confidence interval. Per-epoch variances add: the
// epochs use independent hash seeds, so their noises are independent.
func (w *Window) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	// One quantile lookup for the whole window: every epoch shares alpha, so
	// z is loop-invariant.
	z := stats.ZAlpha(alpha)
	var sum, varsum float64
	for i, n := 0, w.lc.Len(); i < n; i++ {
		est, iv := w.lc.At(i).intervalAt(flow, z)
		sum += est
		half := iv.Width() / 2
		varsum += (half / z) * (half / z)
	}
	half := z * math.Sqrt(varsum)
	return sum, Interval{Lo: sum - half, Hi: sum + half}
}
