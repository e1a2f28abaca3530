package main

// Ingest-perf mode: -perf-ingest runs the line-rate ingest benchmarks and
// writes BENCH_PR8.json. It measures the three layers the PR touched, from
// the inside out:
//
//   - routing: the scalar flow→shard hash vs the block-hashed RouteBlock
//     (independent hashes pipeline instead of serializing on hash latency);
//   - hand-off: the parallel ingester workload over the lock-free SPSC
//     rings, plus shard-scaling and ring-capacity sweeps;
//   - end to end: a synthetic pcap replay through parse, parse+flow-ID
//     (SHA-1/APHash), and the full packets-to-counters pipeline, with
//     allocs/op proving the path allocation-free.
//
// The ring hand-off is compared against the committed channel-era
// BENCH_PR3.json figure when that file is present.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/pcap"
)

// ingestReport is the BENCH_PR8.json document.
type ingestReport struct {
	GoVersion  string          `json:"go_version"`
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Count      int             `json:"count"`
	Benchmarks []perfBenchmark `json:"benchmarks"`
	// ShardScaling is ring-mode parallel ingest as the shard count grows.
	ShardScaling []perfBenchmark `json:"shard_scaling"`
	// QueueDepthSweep varies the per-ring capacity (in batches) at 4 shards;
	// it is the measurement behind the DefaultShardQueueDepth choice.
	QueueDepthSweep []perfBenchmark `json:"queue_depth_sweep"`
	// Pipeline is the end-to-end pcap replay, ns per packet at each stage.
	Pipeline []perfBenchmark `json:"pipeline"`
	// SpeedupVsPR3Baseline compares ring-mode ingest against the committed
	// channel-era figure in BENCH_PR3.json (0 when the file is absent).
	SpeedupVsPR3Baseline float64 `json:"speedup_vs_pr3_baseline"`
	// PR3BaselineNsOp is the committed figure the previous ratio divides by.
	PR3BaselineNsOp float64 `json:"pr3_baseline_ns_op,omitempty"`
}

// runIngestPerf executes the suite and writes the report to path.
func runIngestPerf(path string, count int) {
	if count < 1 {
		count = 1
	}
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}

	rep := ingestReport{
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
		fmt.Fprintf(os.Stderr, "%-44s %10.2f ns/op  %d allocs/op\n", name, p.NsOp, p.AllocsOp)
		return p
	}

	// Routing layer: scalar hash-and-reduce vs the pipelined block.
	rep.Benchmarks = append(rep.Benchmarks,
		measure("RouteScalar", 4, 0, benchRouteScalar),
		measure("RouteBlock", 4, 0, benchRouteBlock),
	)

	// Hand-off layer: the parallel ingester workload over the rings.
	ring := measure("ShardedIngestRing", 4, caesar.DefaultShardBatchSize, func(b *testing.B) {
		benchShardedQueue(b, 4, 0)
	})
	rep.Benchmarks = append(rep.Benchmarks, ring)
	if base := readPR3Baseline("BENCH_PR3.json"); base > 0 && ring.NsOp > 0 {
		rep.PR3BaselineNsOp = base
		rep.SpeedupVsPR3Baseline = base / ring.NsOp
	}

	for _, n := range []int{1, 2, 4, 8} {
		rep.ShardScaling = append(rep.ShardScaling, measure(
			fmt.Sprintf("ShardedIngestRing/shards=%d", n), n, caesar.DefaultShardBatchSize,
			func(b *testing.B) { benchShardedQueue(b, n, 0) }))
	}
	for _, depth := range []int{16, 32, 64, 128, 256} {
		p := measure(fmt.Sprintf("ShardedIngestRing/depth=%d", depth), 4, caesar.DefaultShardBatchSize,
			func(b *testing.B) { benchShardedQueue(b, 4, depth) })
		rep.QueueDepthSweep = append(rep.QueueDepthSweep, p)
	}

	// End-to-end pipeline: a synthetic capture replayed through successive
	// stages. Per-op is per packet at every stage, so the stage deltas read
	// directly as "what this layer costs per packet".
	capture := buildCapture(1 << 15)
	rep.Pipeline = append(rep.Pipeline,
		measure("ReplayParse", 0, 0, func(b *testing.B) { benchReplayParse(b, capture) }),
		measure("ReplayParseID", 0, 0, func(b *testing.B) { benchReplayParseID(b, capture) }),
		measure("ReplayIngest", 4, caesar.DefaultShardBatchSize, func(b *testing.B) { benchReplayIngest(b, capture) }),
	)

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
	fmt.Fprintf(os.Stderr, "perf-ingest: wrote %s (vs committed PR3 baseline: %.2fx at GOMAXPROCS=%d, %d CPU)\n",
		path, rep.SpeedupVsPR3Baseline, rep.GoMaxProcs, rep.NumCPU)
}

// readPR3Baseline pulls the committed ShardedObserveParallel ns/op out of
// BENCH_PR3.json, so the report records the speedup against the number this
// repository actually promised, not just today's re-measurement.
func readPR3Baseline(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var doc struct {
		Benchmarks []struct {
			Name string  `json:"name"`
			NsOp float64 `json:"ns_op"`
		} `json:"benchmarks"`
	}
	if json.Unmarshal(data, &doc) != nil {
		return 0
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "ShardedObserveParallel" {
			return b.NsOp
		}
	}
	return 0
}

func benchRouteScalar(b *testing.B) {
	r := hashing.NewShardRouter(4, 0x5ad5ad)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Route(hashing.FlowID(i & 1023))
	}
}

func benchRouteBlock(b *testing.B) {
	r := hashing.NewShardRouter(4, 0x5ad5ad)
	flows := make([]hashing.FlowID, 1024)
	for i := range flows {
		flows[i] = hashing.FlowID(i & 1023)
	}
	dst := make([]uint32, 0, len(flows))
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(flows) {
		dst = r.RouteBlock(flows, dst[:0])
	}
	_ = dst
}

// benchShardedQueue is the parallel ingester workload of benchShardedIngester
// with the ring depth selectable (0 selects the default).
func benchShardedQueue(b *testing.B, shards, depth int) {
	s, err := caesar.NewShardedOptions(shards, perfSketchConfig(),
		caesar.ShardedOptions{QueueDepth: depth})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Ingester()
		var buf [256]caesar.FlowID
		i, n := 0, 0
		for pb.Next() {
			buf[n] = caesar.FlowID(i & 1023)
			n++
			i++
			if n == len(buf) {
				h.ObserveBatch(buf[:n])
				n = 0
			}
		}
		h.ObserveBatch(buf[:n])
	})
	b.StopTimer()
	s.Close()
}

// buildCapture synthesizes an in-memory pcap with n packets drawn from a
// fixed flow population, the replay input for the pipeline stages.
func buildCapture(n int) []byte {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	for i := 0; i < n; i++ {
		f := uint32(i % 4096)
		t := hashing.FiveTuple{
			SrcIP:   0x0a000000 | f,
			DstIP:   0x0a010000 | (f >> 4),
			SrcPort: uint16(1024 + f%512),
			DstPort: 443,
			Proto:   6,
		}
		if err := w.WritePacket(t, uint64(i)*1000, 600); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

// replayLoop drives per-packet work over the capture for b.N packets,
// reopening the capture as it wraps. The reader re-creation cost amortizes
// over the capture's 32k packets.
func replayLoop(b *testing.B, capture []byte, fn func(p *pcap.Packet)) {
	b.ReportAllocs()
	b.ResetTimer()
	var r *pcap.Reader
	var p pcap.Packet
	for i := 0; i < b.N; i++ {
		if r == nil {
			var err error
			if r, err = pcap.NewReader(bytes.NewReader(capture)); err != nil {
				b.Fatal(err)
			}
		}
		switch err := r.NextPacket(&p); err {
		case nil:
			fn(&p)
		case io.EOF:
			r = nil
			i--
		default:
			b.Fatal(err)
		}
	}
}

func benchReplayParse(b *testing.B, capture []byte) {
	replayLoop(b, capture, func(p *pcap.Packet) {})
}

func benchReplayParseID(b *testing.B, capture []byte) {
	var sink hashing.FlowID
	replayLoop(b, capture, func(p *pcap.Packet) { sink ^= p.Tuple.ID() })
	_ = sink
}

func benchReplayIngest(b *testing.B, capture []byte) {
	s, err := caesar.NewShardedOptions(4, perfSketchConfig(), caesar.ShardedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Ingester()
	var buf [256]caesar.FlowID
	n := 0
	replayLoop(b, capture, func(p *pcap.Packet) {
		buf[n] = p.Tuple.ID()
		n++
		if n == len(buf) {
			h.ObserveBatch(buf[:n])
			n = 0
		}
	})
	b.StopTimer()
	h.ObserveBatch(buf[:n])
	s.Close()
}
