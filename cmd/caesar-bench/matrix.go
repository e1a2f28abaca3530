package main

// Matrix-perf mode: -perf-matrix runs the flow-ID-stage and fused-pipeline
// benchmarks across a GOMAXPROCS matrix and writes BENCH_PR10.json. It
// answers three questions the flow-ID PR raised:
//
//   - how much faster is the keyed fast hash than the paper-faithful
//     SHA-1 ⊕ APHash derivation, scalar and block-pipelined (id_stage);
//   - what does the whole replay pipeline pay per packet at each stage,
//     before and after fusing hashing into the block ingest (pipeline);
//   - how does ingest scale with cores under each -cpus value (cpu_matrix):
//     the per-GOMAXPROCS ID, route, and parallel/fused ingest curves.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/pcap"
)

// parseCPUList turns the -cpus flag ("1,2,4,8") into GOMAXPROCS values.
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cpus: %q is not a positive integer", part)
		}
		cpus = append(cpus, n)
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("-cpus: no values in %q", s)
	}
	return cpus, nil
}

// matrixCPUEntry is one GOMAXPROCS column of the matrix.
type matrixCPUEntry struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	Benchmarks []perfBenchmark `json:"benchmarks"`
}

// matrixReport is the BENCH_PR10.json document.
type matrixReport struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Count     int    `json:"count"`
	CPUs      []int  `json:"cpus"`
	// IDStage isolates flow-ID derivation: SHA-1 ⊕ APHash vs the keyed
	// fast hash, scalar and block-pipelined. ns/op is per tuple for all
	// three, so the entries divide directly.
	IDStage []perfBenchmark `json:"id_stage"`
	// SpeedupFastVsSHA1 is sha1 ns/tuple over fast scalar ns/tuple.
	SpeedupFastVsSHA1 float64 `json:"speedup_fast_vs_sha1"`
	// SpeedupFastBlockVsSHA1 is sha1 ns/tuple over fast block ns/tuple.
	SpeedupFastBlockVsSHA1 float64 `json:"speedup_fast_block_vs_sha1"`
	// Pipeline is the end-to-end pcap replay, ns per packet, stage by
	// stage and hash by hash.
	Pipeline []perfBenchmark `json:"pipeline"`
	// CPUMatrix re-measures the ID/route/ingest benchmarks at each -cpus
	// GOMAXPROCS value.
	CPUMatrix []matrixCPUEntry `json:"cpu_matrix"`
}

// runMatrixPerf executes the suite and writes the report to path.
func runMatrixPerf(path string, count int, cpus []int) {
	if count < 1 {
		count = 1
	}

	rep := matrixReport{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Count:     count,
		CPUs:      cpus,
	}

	measure := func(name string, fn func(b *testing.B)) perfBenchmark {
		p := perfBenchmark{Name: name}
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

	// Flow-ID stage in isolation, all per tuple.
	sha1 := measure("FlowIDSHA1", benchFlowIDSHA1)
	fast := measure("FlowIDFast", benchFlowIDFast)
	fastBlock := measure("FlowIDFastBlock", benchFlowIDFastBlock)
	rep.IDStage = append(rep.IDStage, sha1, fast, fastBlock)
	if fast.NsOp > 0 {
		rep.SpeedupFastVsSHA1 = sha1.NsOp / fast.NsOp
	}
	if fastBlock.NsOp > 0 {
		rep.SpeedupFastBlockVsSHA1 = sha1.NsOp / fastBlock.NsOp
	}

	// End-to-end replay pipeline, per packet: parse alone, parse + each
	// hash, and the full packets-to-counters path with the hash either
	// bolted on per packet (sha1) or fused into the block ingest (fast).
	// The SHA-1 entries reuse BENCH_PR8.json's exact benchmarks and names,
	// so `caesar-bench bench-diff BENCH_PR8.json BENCH_PR10.json` lines
	// them up directly.
	capture := buildCapture(1 << 15)
	rep.Pipeline = append(rep.Pipeline,
		measure("ReplayParse", func(b *testing.B) { benchReplayParse(b, capture) }),
		measure("ReplayParseID", func(b *testing.B) { benchReplayParseID(b, capture) }),
		measure("ReplayParseID/fast", func(b *testing.B) { benchReplayParseIDFast(b, capture) }),
		measure("ReplayIngest", func(b *testing.B) { benchReplayIngest(b, capture) }),
		measure("ReplayIngest/fused-fast", func(b *testing.B) { benchReplayIngestFused(b, capture) }),
	)

	// The GOMAXPROCS matrix. The single-threaded ID and route stages are
	// re-measured under each setting as controls (they should stay flat);
	// the parallel ring ingest and the fused replay are where the scaling
	// lives.
	prev := runtime.GOMAXPROCS(0)
	for _, n := range cpus {
		if n < 1 {
			continue
		}
		runtime.GOMAXPROCS(n)
		entry := matrixCPUEntry{GoMaxProcs: n}
		entry.Benchmarks = append(entry.Benchmarks,
			measure(fmt.Sprintf("FlowIDFastBlock/cpus=%d", n), benchFlowIDFastBlock),
			measure(fmt.Sprintf("RouteBlock/cpus=%d", n), benchRouteBlock),
			measure(fmt.Sprintf("ShardedIngestRing/cpus=%d", n), func(b *testing.B) {
				benchShardedQueue(b, 4, 0)
			}),
			measure(fmt.Sprintf("ReplayIngest/fused-fast/cpus=%d", n), func(b *testing.B) {
				benchReplayIngestFused(b, capture)
			}),
		)
		rep.CPUMatrix = append(rep.CPUMatrix, entry)
	}
	runtime.GOMAXPROCS(prev)

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
	fmt.Fprintf(os.Stderr, "perf-matrix: wrote %s (fast vs sha1: %.2fx scalar, %.2fx block; %d CPU settings, %d CPU machine)\n",
		path, rep.SpeedupFastVsSHA1, rep.SpeedupFastBlockVsSHA1, len(rep.CPUMatrix), rep.NumCPU)
}

// matrixTuples is a fixed tuple population shared by the ID-stage
// benchmarks, sized to the ingest block the fused path uses.
func matrixTuples() []caesar.FiveTuple {
	tuples := make([]caesar.FiveTuple, 256)
	for i := range tuples {
		f := uint32(i)
		tuples[i] = caesar.FiveTuple{
			SrcIP:   0x0a000000 | f,
			DstIP:   0x0a010000 | f<<3,
			SrcPort: uint16(1024 + i),
			DstPort: 443,
			Proto:   6,
		}
	}
	return tuples
}

func benchFlowIDSHA1(b *testing.B) {
	tuples := matrixTuples()
	var sink caesar.FlowID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= tuples[i%len(tuples)].ID()
	}
	_ = sink
}

func benchFlowIDFast(b *testing.B) {
	tuples := matrixTuples()
	h := hashing.NewFlowIDer(1)
	var sink caesar.FlowID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= h.ID(tuples[i%len(tuples)])
	}
	_ = sink
}

func benchFlowIDFastBlock(b *testing.B) {
	tuples := matrixTuples()
	h := hashing.NewFlowIDer(1)
	dst := make([]caesar.FlowID, 0, len(tuples))
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(tuples) {
		dst = h.IDBlock(dst[:0], tuples)
	}
	_ = dst
}

func benchReplayParseIDFast(b *testing.B, capture []byte) {
	h := hashing.NewFlowIDer(1)
	var sink caesar.FlowID
	replayLoop(b, capture, func(p *pcap.Packet) { sink ^= h.ID(p.Tuple) })
	_ = sink
}

// benchReplayIngestFused is the after picture of the PR: blocks of parsed
// tuples go through Ingester.ObservePackets, which fuses FlowIDer.IDBlock,
// RouteBlock, and the per-shard buffer appends under one lock acquisition.
func benchReplayIngestFused(b *testing.B, capture []byte) {
	s, err := caesar.NewShardedOptions(4, perfSketchConfig(),
		caesar.ShardedOptions{FlowHash: caesar.FlowHashFast})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Ingester()
	var buf [256]caesar.FiveTuple
	n := 0
	replayLoop(b, capture, func(p *pcap.Packet) {
		buf[n] = p.Tuple
		n++
		if n == len(buf) {
			h.ObservePackets(buf[:n])
			n = 0
		}
	})
	b.StopTimer()
	h.ObservePackets(buf[:n])
	s.Close()
}
