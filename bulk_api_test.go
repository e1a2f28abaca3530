package caesar

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

func bulkAPIConfig() Config {
	return Config{
		Counters:      3699, // non-power-of-two, exercising the general reduce path
		CacheEntries:  1 << 10,
		CacheCapacity: 54,
		Seed:          7,
	}
}

// bulkAPIFlows returns a deterministic skewed flow population: mostly mice
// with a heavy flow every 97th position.
func bulkAPIFlows(n int) ([]FlowID, []int) {
	flows := make([]FlowID, n)
	sizes := make([]int, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range flows {
		state = state*6364136223846793005 + 1442695040888963407
		flows[i] = FlowID(state)
		sizes[i] = 1 + i%7
		if i%97 == 0 {
			sizes[i] = 400
		}
	}
	return flows, sizes
}

func buildBulkSketch(t *testing.T) (*Sketch, []FlowID) {
	t.Helper()
	sk, err := New(bulkAPIConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows, sizes := bulkAPIFlows(2048)
	for i, f := range flows {
		for j := 0; j < sizes[i]; j++ {
			sk.Observe(f)
		}
	}
	sk.Flush()
	return sk, flows
}

func TestPublicEstimateManyBitIdentical(t *testing.T) {
	sk, flows := buildBulkSketch(t)
	est := sk.Estimator()
	est.SetDistribution(float64(len(flows)), 900)
	for _, m := range []Method{CSM, MLM} {
		got := est.EstimateMany(flows, m, nil)
		for i, f := range flows {
			want := est.Estimate(f, m)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("method %v flow %d: EstimateMany %v, Estimate %v", m, f, got[i], want)
			}
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0, 13} {
			par := est.QueryAll(flows, m, workers, nil)
			for i := range flows {
				if math.Float64bits(par[i]) != math.Float64bits(got[i]) {
					t.Fatalf("method %v workers %d flow %d: QueryAll %v, EstimateMany %v",
						m, workers, i, par[i], got[i])
				}
			}
		}
	}
}

// TestEstimateManyZeroAllocs is the query-path allocation gate wired into
// `make bench-smoke`: with a reused dst, bulk estimation allocates nothing
// per flow for either method.
func TestEstimateManyZeroAllocs(t *testing.T) {
	sk, flows := buildBulkSketch(t)
	est := sk.Estimator()
	dst := make([]float64, len(flows))
	for _, m := range []Method{CSM, MLM} {
		est.EstimateMany(flows, m, dst) // warm the index scratch
		if allocs := testing.AllocsPerRun(20, func() {
			est.EstimateMany(flows, m, dst)
		}); allocs != 0 {
			t.Fatalf("method %v: EstimateMany allocated %.1f times per run", m, allocs)
		}
	}
}

// sealedView ingests every flow sizes[i] times into a one-epoch window of
// the given shard count, seals it with Close, and returns the sealed
// epoch's view.
func sealedView(t *testing.T, shards int, flows []FlowID, sizes []int) EpochView {
	t.Helper()
	w, err := NewShardedWindow(1, shards, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	for i, f := range flows {
		for j := 0; j < sizes[i]; j++ {
			h.Observe(f)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	view, ok := w.LastSealed()
	if !ok {
		t.Fatal("no sealed epoch after Close")
	}
	return view
}

// TestShardedEstimateManyBitIdentical pins a sealed epoch's bulk queries,
// the window's grouped-sum path over a one-epoch list, to the epoch's
// scalar Estimate at 1 and 4 shards and every worker count.
func TestShardedEstimateManyBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		flows, sizes := bulkAPIFlows(1024)
		view := sealedView(t, shards, flows, sizes)
		for _, m := range []Method{CSM, MLM} {
			got := view.EstimateMany(flows, m, nil)
			for i, f := range flows {
				want := view.Estimate(f, m)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("shards=%d method %v flow %d: EstimateMany %v, Estimate %v",
						shards, m, f, got[i], want)
				}
			}
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
				par := view.QueryAll(flows, m, workers, nil)
				for i := range flows {
					if math.Float64bits(par[i]) != math.Float64bits(got[i]) {
						t.Fatalf("shards=%d method %v workers %d flow %d: QueryAll differs",
							shards, m, workers, i)
					}
				}
			}
		}
		// dst reuse: same backing array returned.
		dst := make([]float64, len(flows))
		if out := view.EstimateMany(flows, CSM, dst); &out[0] != &dst[0] {
			t.Fatalf("shards=%d: EstimateMany did not reuse dst", shards)
		}
	}
}

// TestShardedEstimateManyZeroAllocsSteadyState is the epoch view's
// bulk-query allocation gate, wired into `make bench-smoke`: with a reused
// dst, an epoch's bulk query allocates nothing once the window's query
// scratch is warm.
func TestShardedEstimateManyZeroAllocsSteadyState(t *testing.T) {
	for _, shards := range []int{1, 4} {
		flows, _ := bulkAPIFlows(1024)
		sizes := make([]int, len(flows))
		for i := range sizes {
			sizes[i] = 1
		}
		view := sealedView(t, shards, flows, sizes)
		dst := make([]float64, len(flows))
		for _, m := range []Method{CSM, MLM} {
			view.EstimateMany(flows, m, dst) // warm the grouping scratch
			if allocs := testing.AllocsPerRun(20, func() {
				view.EstimateMany(flows, m, dst)
			}); allocs != 0 {
				t.Fatalf("shards=%d method %v: epoch EstimateMany allocated %.1f times per run in steady state",
					shards, m, allocs)
			}
		}
	}
}

// TestEpochViewQueryReleasesEpoch pins that no query leaves a reference to
// an epoch in the window's query scratch: an epoch view's bulk query, and
// the window's Estimate, EstimateWithInterval, EstimateMany and QueryAll.
// A view can outlive its epoch's place in the ring, and the scratch must
// not keep an epoch reachable after a later rotation retires it.
func TestEpochViewQueryReleasesEpoch(t *testing.T) {
	flows, sizes := bulkAPIFlows(64)
	view := sealedView(t, 2, flows, sizes)
	w := view.w
	for _, q := range []struct {
		name  string
		query func()
	}{
		{"EpochView.EstimateMany", func() { view.EstimateMany(flows, CSM, nil) }},
		{"Estimate", func() { w.Estimate(flows[0], CSM) }},
		{"EstimateWithInterval", func() { w.EstimateWithInterval(flows[0], 0.95) }},
		{"EstimateMany", func() { w.EstimateMany(flows, CSM, nil) }},
		{"QueryAll", func() { w.QueryAll(flows, MLM, 2, nil) }},
	} {
		q.query()
		for i, ep := range w.epochScratch[:cap(w.epochScratch)] {
			if ep != nil {
				t.Fatalf("%s: query scratch slot %d still holds epoch %d", q.name, i, ep.rotation)
			}
		}
	}
}

// TestWindowEstimateManyBitIdentical pins a one-shard window's bulk query,
// the path with nothing to group, to its scalar Estimate loop, with the
// open epoch's traffic excluded from both.
func TestWindowEstimateManyBitIdentical(t *testing.T) {
	w, err := NewShardedWindow(3, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	flows, sizes := bulkAPIFlows(512)
	h := w.Ingester()
	for epoch := 0; epoch < 3; epoch++ {
		for i, f := range flows {
			for j := 0; j < 1+sizes[i]%3+epoch; j++ {
				h.Observe(f)
			}
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	h.Observe(flows[0]) // current epoch: must stay excluded, as in Estimate
	for _, m := range []Method{CSM, MLM} {
		got := w.EstimateMany(flows, m, nil)
		for i, f := range flows {
			want := w.Estimate(f, m)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("method %v flow %d: window EstimateMany %v, Estimate %v", m, f, got[i], want)
			}
		}
	}
}

func TestWindowEstimateManyNoSealedEpochs(t *testing.T) {
	w, err := NewShardedWindow(2, 1, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Ingester().Observe(5)
	out := w.EstimateMany([]FlowID{5, 6}, CSM, nil)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("unsealed-only window must estimate zeros, got %v", out)
	}
}

// TestCachedEstimateInvalidatedByMerge pins the query-cache contract: the
// sketch's cached estimator view must be rebuilt after Merge folds new
// counter mass in, for both the scalar and bulk entry points.
func TestCachedEstimateInvalidatedByMerge(t *testing.T) {
	cfg := bulkAPIConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a.Observe(42)
	}
	before := a.Estimate(42) // caches the query view
	if math.Abs(before-1000) > 10 {
		t.Fatalf("pre-merge estimate %v, want ~1000", before)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		b.Observe(42)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	after := a.Estimate(42)
	if math.Abs(after-1500) > 10 {
		t.Fatalf("post-merge estimate %v, want ~1500 (stale cached view?)", after)
	}
	if many := a.EstimateMany([]FlowID{42}, nil); math.Float64bits(many[0]) != math.Float64bits(after) {
		t.Fatalf("post-merge EstimateMany %v, Estimate %v", many[0], after)
	}
}

// TestCachedEstimateInvalidatedByReadFrom pins the same contract across
// snapshot restore: loading new state must drop the previous query view.
func TestCachedEstimateInvalidatedByReadFrom(t *testing.T) {
	cfg := bulkAPIConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.Observe(7)
	}
	_ = a.Estimate(7) // caches the query view

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		c.Observe(7)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	want := c.Estimate(7)
	if got := a.Estimate(7); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("post-restore estimate %v, want source's %v", got, want)
	}
	got := a.EstimateMany([]FlowID{7}, nil)
	if math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Fatalf("post-restore EstimateMany %v, want %v", got[0], want)
	}
}
