// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), one Benchmark per artifact, plus hot-path micro-benchmarks.
//
// Each figure benchmark runs the registered experiment from
// internal/expt at the small scale (20k flows, paper ratios) and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints both the runtime cost of regenerating an artifact and the measured
// result. Use cmd/caesar-bench -scale medium|paper for the full-size runs
// recorded in EXPERIMENTS.md.
package caesar

import (
	"sync"
	"testing"

	"github.com/caesar-sketch/caesar/internal/expt"
	"github.com/caesar-sketch/caesar/internal/hwsim"
)

var (
	benchOnce sync.Once
	benchW    *expt.Workload
	benchErr  error
)

func benchWorkload(b *testing.B) *expt.Workload {
	b.Helper()
	benchOnce.Do(func() { benchW, benchErr = expt.BuildWorkload(expt.Small) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	w := benchWorkload(b)
	e, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3FlowSizeDistribution regenerates Figure 3 (trace CCDF).
func BenchmarkFig3FlowSizeDistribution(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4CAESARAccuracy regenerates Figure 4 (CAESAR CSM/MLM x
// LRU/random accuracy panels).
func BenchmarkFig4CAESARAccuracy(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5CASEAccuracy regenerates Figure 5 (CASE at two budgets).
func BenchmarkFig5CASEAccuracy(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6RCSLossless regenerates Figure 6 (RCS, lossless assumption).
func BenchmarkFig6RCSLossless(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7RCSLossy regenerates Figure 7 (RCS at 2/3 and 9/10 loss).
func BenchmarkFig7RCSLossy(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8ProcessingTime regenerates Figure 8 (hardware timing model)
// and reports the headline speedups as custom metrics.
func BenchmarkFig8ProcessingTime(b *testing.B) {
	w := benchWorkload(b)
	spec := hwsim.DefaultSpec()
	counts := []int{1000, 5000, 10000, 50000, 100000, 500000}
	var avgCASE, avgRCS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := hwsim.ProcessingTimeSeries(spec, expt.K, int(w.Y), counts)
		if err != nil {
			b.Fatal(err)
		}
		avgCASE, _, avgRCS, _ = hwsim.AverageSpeedups(series)
	}
	b.ReportMetric(100*avgCASE, "%speedup-vs-CASE")
	b.ReportMetric(100*avgRCS, "%speedup-vs-RCS")
}

// BenchmarkTableAverageRelativeError regenerates the Section 1.5/6.3
// headline error table.
func BenchmarkTableAverageRelativeError(b *testing.B) { runExperiment(b, "tbl-are") }

// BenchmarkTableSpeedup regenerates the Section 6.4 speedup table.
func BenchmarkTableSpeedup(b *testing.B) { runExperiment(b, "tbl-speed") }

// BenchmarkTableCICoverage regenerates the confidence-interval coverage
// comparison (Equations 26/32, with and without the membership variance).
func BenchmarkTableCICoverage(b *testing.B) { runExperiment(b, "tbl-ci") }

// BenchmarkAblationCompress compares the Section 2.1 single-counter
// compression schemes' decode error across widths.
func BenchmarkAblationCompress(b *testing.B) { runExperiment(b, "abl-compress") }

// BenchmarkAblationBraids contrasts Counter Braids' exact-decode cliff with
// CAESAR's graceful degradation across memory budgets.
func BenchmarkAblationBraids(b *testing.B) { runExperiment(b, "abl-braids") }

// BenchmarkAblationSampling contrasts NetFlow-style sampling with CAESAR.
func BenchmarkAblationSampling(b *testing.B) { runExperiment(b, "abl-sampling") }

// BenchmarkAblationVHC compares VHC register sharing at equal SRAM.
func BenchmarkAblationVHC(b *testing.B) { runExperiment(b, "abl-vhc") }

// BenchmarkAblationLoss derives Figure 7's loss rates from the timing model.
func BenchmarkAblationLoss(b *testing.B) { runExperiment(b, "abl-loss") }

// BenchmarkAblationVolume exercises byte-mode (flow volume) counting.
func BenchmarkAblationVolume(b *testing.B) { runExperiment(b, "abl-volume") }

// BenchmarkAblationSeeds measures headline-metric spread across seeds.
func BenchmarkAblationSeeds(b *testing.B) { runExperiment(b, "abl-seeds") }

// BenchmarkAblationK sweeps the per-flow counter count k.
func BenchmarkAblationK(b *testing.B) { runExperiment(b, "abl-k") }

// BenchmarkAblationY sweeps the cache entry capacity y.
func BenchmarkAblationY(b *testing.B) { runExperiment(b, "abl-y") }

// BenchmarkAblationPolicy compares LRU and random replacement.
func BenchmarkAblationPolicy(b *testing.B) { runExperiment(b, "abl-policy") }

// BenchmarkAblationMemory sweeps the off-chip counter count L.
func BenchmarkAblationMemory(b *testing.B) { runExperiment(b, "abl-mem") }

// --- Hot-path micro-benchmarks ----------------------------------------------

// BenchmarkSketchObserve measures the per-packet construction cost through
// the public API (cache hit dominated, like real traffic).
func BenchmarkSketchObserve(b *testing.B) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(FlowID(i & 1023))
	}
}

// TestSketchObserveZeroAllocs gates the hit path's allocation budget at
// exactly zero — the CI smoke job runs BenchmarkSketchObserve for the
// ns/op trend, but this test is the hard fail: a map rebuild, boxing, or
// closure capture sneaking an allocation into Observe fails here
// deterministically.
func TestSketchObserveZeroAllocs(t *testing.T) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		sk.Observe(FlowID(i & 1023))
		i++
	}); avg != 0 {
		t.Fatalf("Sketch.Observe allocates %.2f times per op on the cache-hit path, want 0", avg)
	}
	batch := make([]FlowID, 512)
	for j := range batch {
		batch[j] = FlowID(j & 1023)
	}
	if avg := testing.AllocsPerRun(50, func() {
		sk.ObserveBatch(batch)
	}); avg != 0 {
		t.Fatalf("Sketch.ObserveBatch allocates %.2f times per call, want 0", avg)
	}
}

// BenchmarkSketchObserveBatch measures the batched construction entry point
// on the same hit-dominated traffic as BenchmarkSketchObserve; the delta
// between the two is the per-call overhead ObserveBatch amortizes.
func BenchmarkSketchObserveBatch(b *testing.B) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]FlowID, 1024)
	for i := range batch {
		batch[i] = FlowID(i & 1023)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(batch) {
		chunk := batch
		if n < len(chunk) {
			chunk = chunk[:n]
		}
		sk.ObserveBatch(chunk)
	}
}

// shardedIngestConfig is the shared configuration of the parallel-ingest
// benchmark pair below. The workload is hit-dominated (1024 resident flows
// across 4 shards with room to spare) because that is the regime the paper
// argues for: the on-chip cache absorbs line-rate traffic, so the ingest
// path — not eviction handling — is what must scale with producers. The
// churn regime is covered separately by BenchmarkShardedObserve and
// BenchmarkSketchObserveChurn.
func shardedIngestConfig() Config {
	return Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1}
}

// BenchmarkShardedObserveParallelMutex is the global-serialization
// baseline: every producer goroutine funnels packets through one shared
// ingest handle, so all of them contend on its mutex.
func BenchmarkShardedObserveParallelMutex(b *testing.B) {
	s, err := newTestSharded(4, shardedIngestConfig(), ShardedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Ingester()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.observe([]FlowID{FlowID(i & 1023)}, nil)
			i++
		}
	})
	b.StopTimer()
	closeAndSeal(b, s)
}

// BenchmarkShardedObserveParallel measures contention-free parallel ingest:
// every producer goroutine holds its own ingest handle and delivers
// packets the way a NIC ring hands them to a poll loop — in small batches —
// so the packet path touches no shared state until a shard batch fills.
// Same traffic, same resulting sketch state as the Mutex baseline above;
// only the ingest path differs.
func BenchmarkShardedObserveParallel(b *testing.B) {
	s, err := newTestSharded(4, shardedIngestConfig(), ShardedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Ingester()
		var ring [256]FlowID
		i, n := 0, 0
		for pb.Next() {
			ring[n] = FlowID(i & 1023)
			n++
			i++
			if n == len(ring) {
				h.observe(ring[:n], nil)
				n = 0
			}
		}
		h.observe(ring[:n], nil)
	})
	b.StopTimer()
	closeAndSeal(b, s)
}

// BenchmarkSketchObserveChurn measures the construction cost under heavy
// cache pressure (constant new flows).
func BenchmarkSketchObserveChurn(b *testing.B) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 10, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(FlowID(i))
	}
}

// BenchmarkEstimateCSM measures the query-phase moment estimator.
func BenchmarkEstimateCSM(b *testing.B) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		sk.Observe(FlowID(i % 5000))
	}
	est := sk.Estimator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Estimate(FlowID(i%5000), CSM)
	}
}

// BenchmarkMerge measures folding one flushed sketch into another.
func BenchmarkMerge(b *testing.B) {
	cfg := Config{Counters: 1 << 14, CacheEntries: 256, CacheCapacity: 32, Seed: 1}
	dst, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dst.Flush()
	src, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		src.Observe(FlowID(i % 100))
	}
	src.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateMLM measures the query-phase ML estimator.
func BenchmarkEstimateMLM(b *testing.B) {
	sk, err := New(Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		sk.Observe(FlowID(i % 5000))
	}
	est := sk.Estimator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Estimate(FlowID(i%5000), MLM)
	}
}
