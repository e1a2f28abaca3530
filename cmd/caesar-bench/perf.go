package main

// Perf mode: -perf runs the ingest-path micro-benchmarks in-process and
// writes one machine-readable JSON document (BENCH_PR3.json by default)
// recording ns/op, allocs/op, the shard-scaling curve, and the batch-size
// sweep. This gives the repository a perf trajectory: commit the file, and
// a regression is a diff, not an anecdote.
//
// The parallel pair needs real parallelism to mean anything, so the
// harness raises GOMAXPROCS to at least 4 for the duration of the run (and
// records both the forced value and the machine's CPU count — on a
// single-CPU container the speedup is measured under timeslicing and
// understates what multicore hardware delivers).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
)

// perfBenchmark is one measured entry point.
type perfBenchmark struct {
	Name     string    `json:"name"`
	NsOp     float64   `json:"ns_op"`      // best of Count runs
	NsOpRuns []float64 `json:"ns_op_runs"` // every run, for spread inspection
	AllocsOp int64     `json:"allocs_op"`  // worst of Count runs
	BytesOp  int64     `json:"bytes_op"`   // worst of Count runs
	Shards   int       `json:"shards,omitempty"`
	Batch    int       `json:"batch_size,omitempty"`
	Workers  int       `json:"workers,omitempty"` // QueryAll entries (query-perf mode)
}

// perfReport is the BENCH_PR3.json document.
type perfReport struct {
	GoVersion  string          `json:"go_version"`
	GoMaxProcs int             `json:"gomaxprocs"` // in force during the run
	NumCPU     int             `json:"num_cpu"`
	Count      int             `json:"count"` // runs per benchmark
	Benchmarks []perfBenchmark `json:"benchmarks"`
	// ShardScaling is the ingester-path ns/op as the shard count grows,
	// batch size fixed at the default.
	ShardScaling []perfBenchmark `json:"shard_scaling"`
	// BatchSweep is the ingester-path ns/op as ShardedOptions.BatchSize
	// varies, shard count fixed at 4.
	BatchSweep []perfBenchmark `json:"batch_size_sweep"`
	// SpeedupParallelVsMutex is ns/op(one shared handle) / ns/op(per-producer
	// ingester handles) on the same hit-dominated traffic — the headline
	// number for this PR's contention-free ingest path.
	SpeedupParallelVsMutex float64 `json:"speedup_parallel_vs_mutex"`
}

func perfSketchConfig() caesar.Config {
	return caesar.Config{Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1}
}

// runPerf executes the suite and writes the report to path.
func runPerf(path string, count int) {
	if count < 1 {
		count = 1
	}
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}

	rep := perfReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Count:      count,
	}

	measure := func(name string, shards, batch int, fn func(b *testing.B)) perfBenchmark {
		p := perfBenchmark{Name: name, Shards: shards, Batch: batch}
		for i := 0; i < count; i++ {
			r := testing.Benchmark(fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			p.NsOpRuns = append(p.NsOpRuns, ns)
			if p.NsOp == 0 || ns < p.NsOp {
				p.NsOp = ns
			}
			if a := r.AllocsPerOp(); a > p.AllocsOp {
				p.AllocsOp = a
			}
			if by := r.AllocedBytesPerOp(); by > p.BytesOp {
				p.BytesOp = by
			}
		}
		fmt.Fprintf(os.Stderr, "%-40s %10.2f ns/op  %d allocs/op\n", name, p.NsOp, p.AllocsOp)
		return p
	}

	// Single-sketch hot path: the open-addressed cache index serves the
	// hit-dominated regime the paper designs for.
	rep.Benchmarks = append(rep.Benchmarks,
		measure("SketchObserve", 0, 0, benchSketchObserve),
		measure("SketchObserveBatch", 0, 0, benchSketchObserveBatch),
		measure("SketchObserveChurn", 0, 0, benchSketchObserveChurn),
	)

	// The headline pair: the same hit-dominated traffic through one shared
	// Ingester handle (a global mutex) vs per-producer handles.
	mutex := measure("ShardedObserveParallelMutex", 4, caesar.DefaultShardBatchSize, func(b *testing.B) {
		benchShardedMutex(b, 4)
	})
	handles := measure("ShardedObserveParallel", 4, caesar.DefaultShardBatchSize, func(b *testing.B) {
		benchShardedIngester(b, 4, caesar.DefaultShardBatchSize)
	})
	rep.Benchmarks = append(rep.Benchmarks, mutex, handles)
	if handles.NsOp > 0 {
		rep.SpeedupParallelVsMutex = mutex.NsOp / handles.NsOp
	}

	for _, n := range []int{1, 2, 4, 8} {
		rep.ShardScaling = append(rep.ShardScaling, measure(
			fmt.Sprintf("ShardedObserveParallel/shards=%d", n), n, caesar.DefaultShardBatchSize,
			func(b *testing.B) { benchShardedIngester(b, n, caesar.DefaultShardBatchSize) }))
	}
	for _, bs := range []int{64, 256, 1024} {
		rep.BatchSweep = append(rep.BatchSweep, measure(
			fmt.Sprintf("ShardedObserveParallel/batch=%d", bs), 4, bs,
			func(b *testing.B) { benchShardedIngester(b, 4, bs) }))
	}

	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close() //caesar:ignore errcheck the encode error is already fatal; nothing to add from the failed close
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perf: wrote %s (speedup parallel vs mutex: %.2fx at GOMAXPROCS=%d, %d CPU)\n",
		path, rep.SpeedupParallelVsMutex, rep.GoMaxProcs, rep.NumCPU)
}

func benchSketchObserve(b *testing.B) {
	sk, err := caesar.New(perfSketchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(caesar.FlowID(i & 1023))
	}
}

func benchSketchObserveBatch(b *testing.B) {
	sk, err := caesar.New(perfSketchConfig())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]caesar.FlowID, 1024)
	for i := range batch {
		batch[i] = caesar.FlowID(i & 1023)
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

func benchSketchObserveChurn(b *testing.B) {
	sk, err := caesar.New(caesar.Config{Counters: 1 << 16, CacheEntries: 1 << 10, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(caesar.FlowID(i))
	}
}

func benchShardedMutex(b *testing.B, shards int) {
	s, err := caesar.NewSharded(shards, perfSketchConfig())
	if err != nil {
		b.Fatal(err)
	}
	// One handle shared by every producer: they all serialize on its mutex.
	h := s.Ingester()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(caesar.FlowID(i & 1023))
			i++
		}
	})
	b.StopTimer()
	s.Close()
}

func benchShardedIngester(b *testing.B, shards, batchSize int) {
	s, err := caesar.NewShardedOptions(shards, perfSketchConfig(),
		caesar.ShardedOptions{BatchSize: batchSize})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Ingester()
		var ring [256]caesar.FlowID
		i, n := 0, 0
		for pb.Next() {
			ring[n] = caesar.FlowID(i & 1023)
			n++
			i++
			if n == len(ring) {
				h.ObserveBatch(ring[:n])
				n = 0
			}
		}
		h.ObserveBatch(ring[:n])
	})
	b.StopTimer()
	s.Close()
}
