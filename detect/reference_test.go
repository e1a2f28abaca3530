package detect

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// refTopK, refOverThreshold and refChanges are the detectors as they were
// before bounded selection, the alert prefilter and radix ordering: a full
// sort of every candidate, one interval query per candidate, and
// comparison sorts of the result rows. The differential tests below hold
// the production detectors to reflect.DeepEqual against them.

func refTopK(q Querier, candidates []caesar.FlowID, m caesar.Method, k, workers int) []Flow {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	ests := estimateAll(q, candidates, m, workers, nil)
	ranked := make([]Flow, len(candidates))
	for i, f := range candidates {
		ranked[i] = Flow{ID: f, Estimate: ests[i]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Estimate != ranked[j].Estimate {
			return ranked[i].Estimate > ranked[j].Estimate
		}
		return ranked[i].ID < ranked[j].ID
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

func refOverThreshold(q IntervalQuerier, candidates []caesar.FlowID, alpha, threshold float64) []Alert {
	var alerts []Alert
	for _, f := range candidates {
		est, iv := q.EstimateWithInterval(f, alpha)
		if iv.Lo > threshold {
			alerts = append(alerts, Alert{ID: f, Estimate: est, Lo: iv.Lo})
		}
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Estimate != alerts[j].Estimate {
			return alerts[i].Estimate > alerts[j].Estimate
		}
		return alerts[i].ID < alerts[j].ID
	})
	return alerts
}

func refChanges(before, after Querier, candidates []caesar.FlowID, m caesar.Method, minDelta float64, workers int) []Change {
	if len(candidates) == 0 {
		return nil
	}
	prev := estimateAll(before, candidates, m, workers, nil)
	cur := estimateAll(after, candidates, m, workers, nil)
	var out []Change
	for i, f := range candidates {
		d := cur[i] - prev[i]
		if d >= minDelta || -d >= minDelta {
			out = append(out, Change{ID: f, Before: prev[i], After: cur[i], Delta: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Delta, out[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// surface is what the differential tests drive: every query surface of the
// parent package, and the fakes below, satisfy it.
type surface interface {
	ParallelQuerier
	IntervalQuerier
}

// intervalOnly hides a surface's bulk methods, so OverThreshold takes its
// no-prefilter path.
type intervalOnly struct{ q IntervalQuerier }

func (s intervalOnly) EstimateWithInterval(f caesar.FlowID, alpha float64) (float64, caesar.Interval) {
	return s.q.EstimateWithInterval(f, alpha)
}

// fakeSurface answers from fixed per-flow tables: est[m] holds method m's
// estimates and sigma the interval's standard deviation, so a flow's
// interval is its CSM estimate ± z·sigma — the IntervalQuerier contract.
// Flows missing from a table estimate 0.
type fakeSurface struct {
	est   [2]map[caesar.FlowID]float64
	sigma map[caesar.FlowID]float64
}

func newFakeSurface() *fakeSurface {
	return &fakeSurface{
		est:   [2]map[caesar.FlowID]float64{{}, {}},
		sigma: map[caesar.FlowID]float64{},
	}
}

func (s *fakeSurface) EstimateMany(flows []caesar.FlowID, m caesar.Method, dst []float64) []float64 {
	dst = dst[:0]
	for _, f := range flows {
		dst = append(dst, s.est[m][f])
	}
	return dst
}

func (s *fakeSurface) QueryAll(flows []caesar.FlowID, m caesar.Method, _ int, dst []float64) []float64 {
	return s.EstimateMany(flows, m, dst)
}

func (s *fakeSurface) EstimateWithInterval(f caesar.FlowID, alpha float64) (float64, caesar.Interval) {
	est, half := s.est[caesar.CSM][f], stats.ZAlpha(alpha)*s.sigma[f]
	return est, caesar.Interval{Lo: est - half, Hi: est + half}
}

// checkAgainstReference runs all three detectors and their references on
// the given surfaces and candidates, failing on any difference.
func checkAgainstReference(t *testing.T, name string, q, before surface, cands []caesar.FlowID, ks []int, thresholds []float64) {
	t.Helper()
	for _, m := range []caesar.Method{caesar.CSM, caesar.MLM} {
		for _, workers := range []int{1, 0, 5} {
			for _, k := range ks {
				got, want := TopK(q, cands, m, k, workers), refTopK(q, cands, m, k, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: TopK(%v, k=%d, workers=%d) = %v, reference %v", name, m, k, workers, got, want)
				}
			}
			for _, d := range thresholds {
				got, want := Changes(before, q, cands, m, d, workers), refChanges(before, q, cands, m, d, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Changes(%v, minDelta=%v, workers=%d) = %v, reference %v", name, m, d, workers, got, want)
				}
			}
		}
	}
	for _, th := range thresholds {
		want := refOverThreshold(q, cands, 0.95, th)
		if got := OverThreshold(q, cands, 0.95, th); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OverThreshold(threshold=%v) = %v, reference %v", name, th, got, want)
		}
		if got := OverThreshold(intervalOnly{q}, cands, 0.95, th); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OverThreshold without prefilter (threshold=%v) = %v, reference %v", name, th, got, want)
		}
	}
}

// withDuplicates returns cands shuffled, with every third flow repeated.
func withDuplicates(cands []caesar.FlowID, seed int64) []caesar.FlowID {
	out := slices.Clone(cands)
	for i := 0; i < len(cands); i += 3 {
		out = append(out, cands[i])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestDetectorsMatchReferenceOnSurfaces holds the detectors to the
// references on real sketches: a 4-epoch ShardedWindow, each of its sealed
// EpochViews, and a plain Estimator, over a sorted candidate list and a
// shuffled one with duplicates.
func TestDetectorsMatchReferenceOnSurfaces(t *testing.T) {
	w, err := caesar.NewShardedWindow(4, 3, sketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sk, err := caesar.New(sketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cand Candidates
	h := w.Ingester()
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 4; e++ {
		for i := 0; i < 600; i++ {
			f := caesar.FlowID(rng.Uint64())
			if i < 300 {
				f = caesar.FlowID(i*7919 + 1) // recurring flows, sizes vary by epoch
			}
			cand.Add(f)
			n := 1 + rng.Intn(8)
			if i%50 == 0 {
				n = 200 + rng.Intn(400)
			}
			for p := 0; p < n; p++ {
				h.Observe(f)
				sk.Observe(f)
			}
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	sorted := cand.Flows()
	n := len(sorted)
	ks := []int{1, 10, 100, n - 1, n, n + 5}
	thresholds := []float64{-1e9, -5, 0, 20, 150, 600, 1e9}
	views := w.Epochs()
	for _, cands := range [][]caesar.FlowID{sorted, withDuplicates(sorted, 1)} {
		checkAgainstReference(t, "window", w, views[0], cands, ks, thresholds)
		for i := 1; i < len(views); i++ {
			checkAgainstReference(t, "epoch view", views[i], views[i-1], cands, ks, thresholds)
		}
		checkAgainstReference(t, "estimator", sk.Estimator(), w, cands, ks, thresholds)
	}
}

// TestDetectorsMatchReferenceAdversarial holds the detectors to the
// references on estimates chosen to stress the ordering: all equal (a pure
// flow-ID tie-break), negative, ±0 and ±Inf, over duplicate and unsorted
// candidates, with every k boundary and non-positive thresholds.
func TestDetectorsMatchReferenceAdversarial(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string]func(i int) float64{
		"all equal": func(int) float64 { return 7 },
		"negative":  func(i int) float64 { return -float64(i%13) - 0.5 },
		"signed zeros": func(i int) float64 {
			if i%2 == 0 {
				return negZero
			}
			return 0
		},
		"mixed": func(i int) float64 {
			return [...]float64{3, -3, 0, negZero, math.Inf(1), math.Inf(-1), 1e-300, -1e-300, 3}[i%9]
		},
	}
	for name, est := range cases {
		after, before := newFakeSurface(), newFakeSurface()
		var cands []caesar.FlowID
		for i := 0; i < 300; i++ {
			f := caesar.FlowID(uint64(i%250) * 0x9e3779b97f4a7c15) // duplicates, unsorted
			cands = append(cands, f)
			after.est[caesar.CSM][f] = est(i % 250)
			after.est[caesar.MLM][f] = est(i%250 + 1)
			before.est[caesar.CSM][f] = est(i%250 + 2)
			before.est[caesar.MLM][f] = -est(i % 250)
			after.sigma[f] = float64(i % 4)
		}
		n := len(cands)
		ks := []int{1, 100, n - 1, n, n + 5}
		thresholds := []float64{math.Inf(-1), -1e9, -2, negZero, 0, 2.5}
		checkAgainstReference(t, name, after, before, cands, ks, thresholds)
		sortedCands := slices.Clone(cands)
		slices.Sort(sortedCands)
		checkAgainstReference(t, name+" (sorted)", after, before, sortedCands, ks, thresholds)
	}
}

// TestOverThresholdRejectsAlpha pins that an alpha outside (0, 1) panics
// on a non-empty candidate list, as the per-candidate interval queries
// always made it, even when the prefilter leaves no interval to query.
func TestOverThresholdRejectsAlpha(t *testing.T) {
	q := newFakeSurface()
	cands := []caesar.FlowID{1, 2, 3}
	for _, alpha := range []float64{0, 1, -0.5, 2} {
		for _, impl := range []struct {
			name string
			run  func() []Alert
		}{
			{"OverThreshold", func() []Alert { return OverThreshold(q, cands, alpha, 1e9) }},
			{"reference", func() []Alert { return refOverThreshold(q, cands, alpha, 1e9) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with alpha %v did not panic", impl.name, alpha)
					}
				}()
				impl.run()
			}()
		}
	}
	if got := OverThreshold(q, nil, 2, 0); got != nil {
		t.Fatalf("empty candidate list gave %v, want nil", got)
	}
}

// FuzzDetectOrder feeds fuzzed estimate tables through the fake surfaces
// and holds TopK, OverThreshold and Changes to the references. Each 4-byte
// record adds one candidate: a flow ID byte (so duplicates are common),
// its after and before estimates (small integers in quarters, or a signed
// zero or infinity, so ties are common), and its interval sigma. NaN
// estimates are outside every detector's domain and are never generated.
func FuzzDetectOrder(f *testing.F) {
	f.Add([]byte{1, 4, 0, 1, 2, 4, 0, 1, 3, 8, 128, 0, 1, 4, 0, 1}, 2, 0.5, 0.0)
	f.Add([]byte{9, 127, 126, 3, 7, 129, 0, 0, 7, 0, 127, 9, 200, 5, 5, 5}, 10, -1.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, k int, threshold, minDelta float64) {
		value := func(b byte) float64 {
			switch int8(b) {
			case -128:
				return math.Copysign(0, -1)
			case 127:
				return math.Inf(1)
			case -127:
				return math.Inf(-1)
			}
			return float64(int8(b)) / 4
		}
		after, before := newFakeSurface(), newFakeSurface()
		var cands []caesar.FlowID
		for ; len(data) >= 4; data = data[4:] {
			id := caesar.FlowID(uint64(data[0]) * 0x9e3779b97f4a7c15)
			cands = append(cands, id)
			if _, ok := after.sigma[id]; ok {
				continue // a flow keeps its first record's estimates
			}
			after.est[caesar.CSM][id], after.est[caesar.MLM][id] = value(data[1]), value(data[2])
			before.est[caesar.CSM][id], before.est[caesar.MLM][id] = value(data[2]), value(data[1])
			after.sigma[id] = float64(data[3]) / 8
		}
		if len(cands) > 0 && cands[0]&1 == 0 {
			slices.Sort(cands) // exercise the already-sorted radix path too
		}
		k = k % (len(cands) + 8)
		for _, m := range []caesar.Method{caesar.CSM, caesar.MLM} {
			if got, want := TopK(after, cands, m, k, 1), refTopK(after, cands, m, k, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("TopK(%v, k=%d) = %v, reference %v", m, k, got, want)
			}
			if got, want := Changes(before, after, cands, m, minDelta, 1), refChanges(before, after, cands, m, minDelta, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("Changes(%v, minDelta=%v) = %v, reference %v", m, minDelta, got, want)
			}
		}
		if got, want := OverThreshold(after, cands, 0.95, threshold), refOverThreshold(after, cands, 0.95, threshold); !reflect.DeepEqual(got, want) {
			t.Fatalf("OverThreshold(threshold=%v) = %v, reference %v", threshold, got, want)
		}
	})
}
