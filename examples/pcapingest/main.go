// Pcap ingestion: the paper's real front end — parse a libpcap capture down
// to 5-tuples and measure per-flow sizes with CAESAR at line rate.
//
// This is the end-to-end hot path bench/'s pcap-replay workload times: packets
// are decoded in blocks into a reused buffer (zero allocations per record),
// their 5-tuples extracted into a reused block, and the whole block handed
// to a one-epoch sharded window through a per-producer WindowIngester whose
// ObservePackets fuses flow-ID hashing (the keyed fast hash, via the
// block-pipelined FlowIDer.IDBlock), shard routing, and buffer dispatch
// under one lock acquisition — no per-packet call anywhere between the
// capture file and the shard workers' lock-free SPSC rings. A real
// deployment would run one handle per capture thread; the example streams
// one file single-threaded.
//
// Since this repository ships no capture files, the example first writes a
// small synthetic capture to a temp file (using the same writer
// `caesar-trace export` uses), then ingests it back exactly as it would a
// real tcpdump/wireshark capture:
//
//	go run ./examples/pcapingest [capture.pcap]
//
// Pass a path to use your own capture instead (IPv4 TCP/UDP/ICMP parse).
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/pcap"
	"github.com/caesar-sketch/caesar/internal/trace"
)

func main() {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		path = synthesizeCapture()
		defer os.Remove(path)
		fmt.Printf("no capture given; synthesized %s\n\n", path)
	}

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}

	// One epoch: Close seals it, and the window's queries answer from it.
	w, err := caesar.NewShardedWindowOptions(1, 4, caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 64,
		Seed:          1,
	}, caesar.ShardedOptions{FlowHash: caesar.FlowHashFast})
	if err != nil {
		log.Fatal(err)
	}

	// The fused streaming loop: decode a block of packets into a reused
	// buffer, extract the 5-tuples into a reused block, and hand the whole
	// block to ObservePackets, which hashes (FlowIDer.IDBlock), routes, and
	// buffers it in one call. The truth/tuple maps exist only so the example
	// can print an actual-vs-estimated table; a real collector would keep
	// neither. They key by w.HashTuple — the same derivation the ingest path
	// used — so the printed estimates address the counters the packets
	// actually landed in.
	var (
		pkts   [256]pcap.Packet
		tup    = make([]hashing.FiveTuple, 0, 256)
		truth  = make(map[caesar.FlowID]uint64)
		tuples = make(map[caesar.FlowID]hashing.FiveTuple)
	)
	h := w.Ingester()
	for {
		n, err := r.ReadBlock(pkts[:])
		tup = pcap.AppendTuples(tup[:0], pkts[:n])
		h.ObservePackets(tup)
		for i := 0; i < n; i++ {
			id := w.HashTuple(pkts[i].Tuple)
			truth[id]++
			if _, ok := tuples[id]; !ok {
				tuples[id] = pkts[i].Tuple
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	st := r.Stats()
	fmt.Printf("capture: %d records, %d parsed (%d non-IP, %d fragments, %d other-proto, %d truncated)\n",
		st.Records, st.Parsed, st.SkippedNonIP, st.SkippedFragments,
		st.SkippedTransport, st.SkippedTruncated)
	fmt.Printf("flows:   %d distinct\n\n", len(truth))

	top := make([]caesar.FlowID, 0, len(truth))
	for id := range truth {
		top = append(top, id)
	}
	sort.Slice(top, func(i, j int) bool {
		if truth[top[i]] != truth[top[j]] {
			return truth[top[i]] > truth[top[j]]
		}
		return top[i] < top[j]
	})
	if len(top) > 10 {
		top = top[:10]
	}

	fmt.Println("top flows by actual size:")
	fmt.Println("tuple                                        actual  estimated")
	for _, id := range top {
		label := fmt.Sprintf("%016x", uint64(id))
		if t, ok := tuples[id]; ok {
			label = t.String()
		}
		fmt.Printf("%-44s %6d  %9.1f\n", label, truth[id], w.Estimate(id, caesar.CSM))
	}
	stats := w.Stats()
	fmt.Printf("\ncache hit rate %.1f%%, %d off-chip writes for %d packets (%.1fx amortized), %d dropped\n",
		100*float64(stats.CacheHits)/float64(stats.Packets), stats.SRAMWrites, stats.Packets,
		float64(stats.Packets)/float64(stats.SRAMWrites), stats.DroppedPackets)
}

// synthesizeCapture writes a small heavy-tailed capture to a temp file.
func synthesizeCapture() string {
	tr, err := trace.Generate(trace.GenConfig{Flows: 3000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "caesar-example.pcap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tr.WritePcap(f); err != nil {
		log.Fatal(err)
	}
	return path
}
