package detect

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
)

func sketchConfig() caesar.Config {
	return caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 32,
		Seed:          7,
	}
}

// buildSkewed feeds a skewed workload: flow i gets sizes[i] packets.
func buildSkewed(t *testing.T, sizes map[caesar.FlowID]int) *caesar.Estimator {
	t.Helper()
	sk, err := caesar.New(sketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Iterate flows in sorted order so the pre-shuffle stream (and with it
	// the seeded shuffle's output) is deterministic across runs.
	flows := make([]caesar.FlowID, 0, len(sizes))
	for f := range sizes {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	var stream []caesar.FlowID
	for _, f := range flows {
		for i := 0; i < sizes[f]; i++ {
			stream = append(stream, f)
		}
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, f := range stream {
		sk.Observe(f)
	}
	return sk.Estimator()
}

func TestTopKFindsElephants(t *testing.T) {
	sizes := map[caesar.FlowID]int{}
	var cand Candidates
	for i := 0; i < 500; i++ {
		f := caesar.FlowID(i + 1)
		sizes[f] = 1 + i%17 // mice
		cand.Add(f)
	}
	elephants := []caesar.FlowID{1001, 1002, 1003}
	for i, f := range elephants {
		sizes[f] = 5000 + 1000*i
		cand.Add(f)
	}
	est := buildSkewed(t, sizes)

	top := TopK(est, cand.Flows(), caesar.CSM, 3, 1)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d flows, want 3", len(top))
	}
	want := []caesar.FlowID{1003, 1002, 1001} // descending by size
	for i, f := range want {
		if top[i].ID != f {
			t.Fatalf("rank %d = flow %d (est %.0f), want flow %d (top=%+v)", i, top[i].ID, top[i].Estimate, f, top)
		}
	}
	// Parallel scan must rank identically.
	par := TopK(est, cand.Flows(), caesar.CSM, 3, 4)
	if !reflect.DeepEqual(top, par) {
		t.Fatalf("parallel TopK %+v != serial %+v", par, top)
	}
	// k beyond the candidate set ranks everything.
	if all := TopK(est, cand.Flows(), caesar.CSM, 10000, 1); len(all) != cand.Len() {
		t.Fatalf("oversized k returned %d flows, want %d", len(all), cand.Len())
	}
	if TopK(est, nil, caesar.CSM, 3, 1) != nil || TopK(est, cand.Flows(), caesar.CSM, 0, 1) != nil {
		t.Fatal("degenerate TopK inputs must return nil")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// An empty sketch estimates every flow identically (all zeros plus
	// identical noise terms are not guaranteed — use truly empty, where all
	// estimates are equal), so ranking must fall back to ascending flow ID.
	sk, err := caesar.New(sketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := sk.Estimator()
	cands := []caesar.FlowID{9, 3, 7, 1}
	top := TopK(est, cands, caesar.CSM, 4, 1)
	for i := 1; i < len(top); i++ {
		if top[i-1].Estimate == top[i].Estimate && top[i-1].ID >= top[i].ID {
			t.Fatalf("tie not broken by ascending ID: %+v", top)
		}
	}
}

func TestOverThresholdFlagsScanners(t *testing.T) {
	sizes := map[caesar.FlowID]int{}
	var cand Candidates
	for i := 0; i < 800; i++ {
		f := caesar.FlowID(i + 1)
		sizes[f] = 1 + i%120
		cand.Add(f)
	}
	scanners := map[caesar.FlowID]bool{5001: true, 5002: true, 5003: true}
	for f := range scanners {
		sizes[f] = 4000
		cand.Add(f)
	}
	est := buildSkewed(t, sizes)

	alerts := OverThreshold(est, cand.Flows(), 0.95, 2000)
	if len(alerts) != len(scanners) {
		t.Fatalf("flagged %d hosts, want exactly the %d scanners: %+v", len(alerts), len(scanners), alerts)
	}
	for _, a := range alerts {
		if !scanners[a.ID] {
			t.Fatalf("false positive: flow %d (est %.0f, lo %.0f)", a.ID, a.Estimate, a.Lo)
		}
		if a.Lo <= 2000 {
			t.Fatalf("alert %d reports lower bound %.0f at or below the threshold", a.ID, a.Lo)
		}
		if a.Lo > a.Estimate {
			t.Fatalf("alert %d: lower bound %.0f above estimate %.0f", a.ID, a.Lo, a.Estimate)
		}
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i-1].Estimate < alerts[i].Estimate {
			t.Fatalf("alerts not ordered by descending estimate: %+v", alerts)
		}
	}
}

// TestChangesAcrossSealedEpochs drives change detection the way the live
// service does: off two consecutive sealed epochs of a ShardedWindow.
func TestChangesAcrossSealedEpochs(t *testing.T) {
	w, err := caesar.NewShardedWindow(2, 2, sketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var cand Candidates
	const background = 200
	feed := func(burst caesar.FlowID, burstPkts int) {
		h := w.Ingester()
		for i := 0; i < background; i++ {
			f := caesar.FlowID(i + 1)
			cand.Add(f)
			for p := 0; p < 20; p++ {
				h.Observe(f)
			}
		}
		if burstPkts > 0 {
			cand.Add(burst)
			for p := 0; p < burstPkts; p++ {
				h.Observe(burst)
			}
		}
	}
	feed(0, 0) // quiet epoch
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	const hot = caesar.FlowID(7777)
	feed(hot, 3000) // the burst epoch
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}

	epochs := w.Epochs()
	if len(epochs) != 2 {
		t.Fatalf("window holds %d sealed epochs, want 2", len(epochs))
	}
	changes := Changes(epochs[0], epochs[1], cand.Flows(), caesar.CSM, 1500, 1)
	if len(changes) != 1 || changes[0].ID != hot {
		t.Fatalf("change detection found %+v, want exactly the burst flow %d", changes, hot)
	}
	if c := changes[0]; c.Delta < 1500 || c.After <= c.Before {
		t.Fatalf("burst change %+v does not reflect the ramp", c)
	}
	// The reverse comparison sees the burst as a drop of the same size.
	rev := Changes(epochs[1], epochs[0], cand.Flows(), caesar.CSM, 1500, 1)
	if len(rev) != 1 || rev[0].ID != hot || rev[0].Delta != -changes[0].Delta {
		t.Fatalf("reverse change %+v is not the negation of %+v", rev, changes)
	}
	// Parallel scans must be bit-identical.
	par := Changes(epochs[0], epochs[1], cand.Flows(), caesar.CSM, 1500, 4)
	if !reflect.DeepEqual(changes, par) {
		t.Fatalf("parallel Changes %+v != serial %+v", par, changes)
	}
}

func TestCandidates(t *testing.T) {
	var a, b Candidates
	a.AddBatch([]caesar.FlowID{5, 3, 5, 9})
	b.Add(3)
	b.Add(1)
	a.Merge(&b)
	want := []caesar.FlowID{1, 3, 5, 9}
	if got := a.Flows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flows() = %v, want %v", got, want)
	}
	if a.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", a.Len())
	}
	// The sorted cache must invalidate on new flows, and a slice already
	// returned must not change: callers scan it outside their lock.
	before := a.Flows()
	a.Add(2)
	want = []caesar.FlowID{1, 2, 3, 5, 9}
	if got := a.Flows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Add: Flows() = %v, want %v", got, want)
	}
	if old := []caesar.FlowID{1, 3, 5, 9}; !reflect.DeepEqual(before, old) {
		t.Fatalf("a slice returned before Add changed to %v, want %v", before, old)
	}
}

// TestInterfacesCoverAllSurfaces pins at compile time that every query
// surface in the parent package drives the detectors.
func TestInterfacesCoverAllSurfaces(t *testing.T) {
	var (
		_ ParallelQuerier = (*caesar.Estimator)(nil)
		_ ParallelQuerier = (*caesar.ShardedWindow)(nil)
		_ ParallelQuerier = caesar.EpochView{}
		_ IntervalQuerier = (*caesar.Estimator)(nil)
		_ IntervalQuerier = (*caesar.ShardedWindow)(nil)
		_ IntervalQuerier = caesar.EpochView{}
	)
}
