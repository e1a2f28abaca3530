package caesar

// Integration tests: the full pipeline across module boundaries — synthetic
// trace generation, pcap export/import, single and sharded ingestion,
// serialization, and offline querying — all through realistic flows.

import (
	"bytes"
	"math"
	"testing"

	"github.com/caesar-sketch/caesar/internal/stats"
	"github.com/caesar-sketch/caesar/internal/trace"
)

func TestIntegrationTraceToEstimates(t *testing.T) {
	// Generate a paper-shaped trace, ingest through the public API, verify
	// population-level accuracy against ground truth.
	tr, err := trace.Generate(trace.GenConfig{
		Flows: 5000, Seed: 77, Sizes: trace.BoundedSizes(5000)})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := New(Config{
		Counters:      tr.NumFlows() / 2,
		CacheEntries:  tr.NumFlows() / 8,
		CacheCapacity: uint64(2 * tr.MeanFlowSize()),
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		sk.Observe(p.Flow)
	}
	est := sk.Estimator()

	var pts []stats.EstimatePoint
	for _, id := range trace.SortedFlowIDs(tr.Truth) {
		actual := tr.Truth[id]
		if float64(actual) < 10*tr.MeanFlowSize() {
			continue
		}
		pts = append(pts, stats.EstimatePoint{Actual: actual, Estimated: est.Estimate(id, CSM)})
	}
	if len(pts) < 20 {
		t.Fatalf("only %d large flows", len(pts))
	}
	if are := stats.AverageRelativeError(pts); are > 0.35 {
		t.Fatalf("large-flow ARE = %.3f through the public API", are)
	}
}

func TestIntegrationPcapPipeline(t *testing.T) {
	// Synthetic trace -> pcap bytes -> re-parsed trace -> sketch: the flow
	// IDs derived from the re-parsed 5-tuples must line up with ground
	// truth end to end.
	tr, err := trace.Generate(trace.GenConfig{Flows: 800, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	if err := tr.WritePcap(&capture); err != nil {
		t.Fatal(err)
	}
	reparsed, st, err := trace.FromPcap(&capture)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parsed != tr.NumPackets() {
		t.Fatalf("pcap parsed %d/%d packets", st.Parsed, tr.NumPackets())
	}

	sk, err := New(Config{
		Counters:      4096,
		CacheEntries:  256,
		CacheCapacity: uint64(2*tr.MeanFlowSize()) + 2,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reparsed.Packets {
		sk.Observe(p.Flow)
	}
	if sk.NumPackets() != uint64(tr.NumPackets()) {
		t.Fatalf("ingested %d packets, want %d", sk.NumPackets(), tr.NumPackets())
	}
	est := sk.Estimator()
	// The biggest flow must be recovered accurately.
	top := tr.TopFlows(1)[0]
	got := est.Estimate(top, CSM)
	want := float64(tr.Truth[top])
	if math.Abs(got-want) > 0.15*want+10 {
		t.Fatalf("top flow estimate %v, want ~%v", got, want)
	}
}

func TestIntegrationShardedMatchesUnshardedMass(t *testing.T) {
	tr, err := trace.Generate(trace.GenConfig{Flows: 3000, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: uint64(2*tr.MeanFlowSize()) + 2,
		Seed:          5,
	}
	// One epoch, sealed by Close: the plain parallel sketch.
	sh, err := NewShardedWindow(1, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sh.Ingester()
	for _, p := range tr.Packets {
		h.Observe(p.Flow)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.NumPackets(); got != uint64(tr.NumPackets()) {
		t.Fatalf("sharded ingested %d, want %d", got, tr.NumPackets())
	}
	// Large flows estimated well through the sharded path too.
	var pts []stats.EstimatePoint
	for _, id := range tr.TopFlows(25) {
		pts = append(pts, stats.EstimatePoint{
			Actual:    tr.Truth[id],
			Estimated: sh.Estimate(id, CSM),
		})
	}
	if are := stats.AverageRelativeError(pts); are > 0.3 {
		t.Fatalf("sharded top-25 ARE = %.3f", are)
	}
}

func TestIntegrationOfflineQueryProcess(t *testing.T) {
	// Construction in one "process", query in another, via the counter
	// dump — the paper's online/offline phase split.
	cfg := Config{Counters: 1 << 12, CacheEntries: 256, CacheCapacity: 32, Seed: 6}
	sk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := FlowID(0); f < 50; f++ {
		for i := 0; i < 100+int(f); i++ {
			sk.Observe(f)
		}
	}
	var dump bytes.Buffer
	if err := sk.WriteCounters(&dump); err != nil {
		t.Fatal(err)
	}
	packets := sk.NumPackets()
	live := sk.Estimator()

	est, err := ReadEstimator(bytes.NewReader(dump.Bytes()), cfg.K, cfg.Seed, cfg.CacheCapacity, packets)
	if err != nil {
		t.Fatal(err)
	}
	// The offline process must answer bit-identically to the live one, and
	// the bulk of flows must sit on the truth (a couple will carry
	// counter-sharing noise from a neighbor).
	within := 0
	for f := FlowID(0); f < 50; f++ {
		got := est.Estimate(f, CSM)
		if got != live.Estimate(f, CSM) {
			t.Fatalf("offline flow %d diverges from live estimate", f)
		}
		want := float64(100 + int(f))
		if math.Abs(got-want) < 0.1*want {
			within++
		}
	}
	if within < 42 {
		t.Fatalf("only %d/50 offline estimates within 10%% of truth", within)
	}
}

func TestIntegrationWindowOverTrace(t *testing.T) {
	// Split a trace into 5 epochs over a 3-epoch window; the window total
	// for the top flow must approximate its count over the last 3 epochs.
	tr, err := trace.Generate(trace.GenConfig{Flows: 1000, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewShardedWindow(3, 2, Config{
		Counters:      1 << 13,
		CacheEntries:  512,
		CacheCapacity: uint64(2*tr.MeanFlowSize()) + 2,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	top := tr.TopFlows(1)[0]
	epochLen := tr.NumPackets() / 5
	var perEpoch []int
	for e := 0; e < 5; e++ {
		start, end := e*epochLen, (e+1)*epochLen
		if e == 4 {
			end = tr.NumPackets()
		}
		count := 0
		for _, p := range tr.Packets[start:end] {
			h.Observe(p.Flow)
			if p.Flow == top {
				count++
			}
		}
		perEpoch = append(perEpoch, count)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	lastThree := perEpoch[2] + perEpoch[3] + perEpoch[4]
	got := w.Estimate(top, CSM)
	if math.Abs(got-float64(lastThree)) > 0.2*float64(lastThree)+20 {
		t.Fatalf("window estimate %v, want ~%d (per-epoch %v)", got, lastThree, perEpoch)
	}
}
