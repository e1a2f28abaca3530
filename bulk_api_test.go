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

func TestShardedEstimateManyBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, err := NewSharded(shards, shardedConfig())
		if err != nil {
			t.Fatal(err)
		}
		flows, sizes := bulkAPIFlows(1024)
		h := s.Ingester()
		for i, f := range flows {
			for j := 0; j < sizes[i]; j++ {
				h.Observe(f)
			}
		}
		s.Close()
		est, err := s.Estimator()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{CSM, MLM} {
			got := est.EstimateMany(flows, m, nil)
			for i, f := range flows {
				want := est.Estimate(f, m)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("shards=%d method %v flow %d: EstimateMany %v, Estimate %v",
						shards, m, f, got[i], want)
				}
			}
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
				par := est.QueryAll(flows, m, workers, nil)
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
		if out := est.EstimateMany(flows, CSM, dst); &out[0] != &dst[0] {
			t.Fatalf("shards=%d: EstimateMany did not reuse dst", shards)
		}
	}
}

func TestShardedEstimateManyZeroAllocsSteadyState(t *testing.T) {
	s, err := NewSharded(4, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows, _ := bulkAPIFlows(1024)
	h := s.Ingester()
	for _, f := range flows {
		h.Observe(f)
	}
	s.Close()
	est, err := s.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(flows))
	est.EstimateMany(flows, CSM, dst) // warm the grouping scratch
	if allocs := testing.AllocsPerRun(20, func() {
		est.EstimateMany(flows, CSM, dst)
	}); allocs != 0 {
		t.Fatalf("sharded EstimateMany allocated %.1f times per run in steady state", allocs)
	}
}

func TestWindowEstimateManyBitIdentical(t *testing.T) {
	w, err := NewWindow(3, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows, sizes := bulkAPIFlows(512)
	for epoch := 0; epoch < 3; epoch++ {
		for i, f := range flows {
			for j := 0; j < 1+sizes[i]%3+epoch; j++ {
				w.Observe(f)
			}
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	w.Observe(flows[0]) // current epoch: must stay excluded, as in Estimate
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
	w, err := NewWindow(2, windowConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(5)
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
