package braids

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/stats"
	"github.com/caesar-sketch/caesar/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Layer1Counters: 2, K1: 3, Layer2Counters: 8},
		{Layer1Counters: 8, Layer2Counters: 1, K2: 2},
		{Layer1Counters: 8, Layer2Counters: 8, Layer1Bits: 40},
		{Layer1Counters: 8, Layer2Counters: 8, Layer2Bits: 63},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	s, err := New(Config{Layer1Counters: 64, Layer2Counters: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().K1 != 3 || s.Config().K2 != 3 || s.Config().Layer1Bits != 8 {
		t.Fatalf("defaults: %+v", s.Config())
	}
}

func TestExactDecodeAtLowLoad(t *testing.T) {
	// The CB regime: enough layer-1 counters per flow and the decoder
	// reconstructs every size exactly.
	const flows = 200
	cfg := Config{
		Layer1Counters: 3 * flows, // ~3 counters per flow beyond k1 load
		Layer1Bits:     8,
		Layer2Counters: 256, // generously above the layer-2 decode threshold
		Seed:           1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[hashing.FlowID]int, flows)
	rng := hashing.NewPRNG(2)
	ids := make([]hashing.FlowID, flows)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(uint64(i) + 7))
		truth[ids[i]] = 1 + rng.Intn(100)
	}
	for _, id := range ids {
		for j := 0; j < truth[id]; j++ {
			s.Observe(id)
		}
	}
	res := s.Decode(ids, 50)
	if !res.Converged {
		t.Fatalf("decoder did not converge in %d iterations", res.Iterations)
	}
	for i, id := range ids {
		if res.Estimates[i] != float64(truth[id]) {
			t.Fatalf("flow %d decoded %v, want %d", i, res.Estimates[i], truth[id])
		}
	}
}

func TestLayerOneOverflowBraidsIntoLayerTwo(t *testing.T) {
	// A single huge flow must overflow its 4-bit layer-1 counters and still
	// decode exactly via the braid.
	cfg := Config{
		Layer1Counters: 32,
		Layer1Bits:     4,  // wraps every 16
		Layer2Counters: 64, // sparse enough for the sandwich to close
		Seed:           3,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const x = 1000
	id := hashing.FlowID(42)
	for i := 0; i < x; i++ {
		s.Observe(id)
	}
	res := s.Decode([]hashing.FlowID{id}, 50)
	if res.Estimates[0] != x {
		t.Fatalf("decoded %v, want %d", res.Estimates[0], x)
	}
	if s.Layer2Saturations() != 0 {
		t.Fatalf("unexpected layer-2 saturations: %d", s.Layer2Saturations())
	}
}

func TestDecodeCliffUnderOverload(t *testing.T) {
	// Push the load far beyond the CB threshold: decoding must degrade
	// (this is the Section 2.1 storage cliff, contrast with CAESAR).
	const flows = 2000
	run := func(l1 int) float64 {
		cfg := Config{
			Layer1Counters: l1,
			Layer1Bits:     8,
			Layer2Counters: 256,
			Seed:           4,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := hashing.NewPRNG(5)
		ids := make([]hashing.FlowID, flows)
		truth := make([]int, flows)
		for i := range ids {
			ids[i] = hashing.FlowID(hashing.Mix64(uint64(i) + 99))
			truth[i] = 1 + rng.Intn(50)
			for j := 0; j < truth[i]; j++ {
				s.Observe(ids[i])
			}
		}
		res := s.Decode(ids, 40)
		var pts []stats.EstimatePoint
		for i := range ids {
			pts = append(pts, stats.EstimatePoint{Actual: truth[i], Estimated: res.Estimates[i]})
		}
		return stats.AverageRelativeError(pts)
	}
	generous := run(3 * flows) // ~24 bits/flow: exact regime
	starved := run(flows / 2)  // ~2 bits/flow: beyond the cliff
	if generous > 0.01 {
		t.Errorf("generous CB ARE = %.4f, want ~0", generous)
	}
	if starved < 10*generous+0.1 {
		t.Errorf("starved CB ARE = %.4f: expected a sharp cliff vs %.4f", starved, generous)
	}
}

func TestDecodeOnHeavyTailedTrace(t *testing.T) {
	tr, err := trace.Generate(trace.GenConfig{
		Flows: 1500, Seed: 6, Sizes: trace.BoundedSizes(1500)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layer1Counters: 3 * tr.NumFlows(),
		// 10-bit first layer: only elephant-touched counters overflow, so
		// the layer-2 graph stays sparse enough to decode.
		Layer1Bits:     10,
		Layer2Counters: tr.NumFlows(),
		Seed:           7,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		s.Observe(p.Flow)
	}
	ids := trace.SortedFlowIDs(tr.Truth)
	res := s.Decode(ids, 60)
	exact := 0
	for i, id := range ids {
		if res.Estimates[i] == float64(tr.Truth[id]) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(ids)); frac < 0.95 {
		t.Fatalf("only %.1f%% of flows decoded exactly in the generous regime", 100*frac)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s, err := New(Config{Layer1Counters: 8192, Layer1Bits: 8, Layer2Counters: 1024, Layer2Bits: 56, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (8192.0*8 + 1024*56) / 8192
	if math.Abs(s.MemoryKB()-want) > 1e-9 {
		t.Fatalf("MemoryKB = %v, want %v", s.MemoryKB(), want)
	}
}

func TestLayer2Saturation(t *testing.T) {
	cfg := Config{
		Layer1Counters: 8,
		Layer1Bits:     1, // wraps every 2 packets
		Layer2Counters: 4,
		Layer2Bits:     2, // layer-2 cap 3: saturates fast
		Seed:           8,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(1)
	}
	if s.Layer2Saturations() == 0 {
		t.Fatal("expected layer-2 saturations with 2-bit overflow counters")
	}
}

func TestDecodeEmptySketch(t *testing.T) {
	s, err := New(Config{Layer1Counters: 64, Layer2Counters: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Decode([]hashing.FlowID{5}, 10)
	// An unseen flow on an empty sketch decodes to the lower bound 1...
	// except all its counters are zero, so the upper bound is 0 — clipping
	// keeps estimates at the lower bound. Either 0 or 1 is acceptable; it
	// must not be negative or huge.
	if res.Estimates[0] < 0 || res.Estimates[0] > 1 {
		t.Fatalf("empty-sketch estimate = %v", res.Estimates[0])
	}
}

func BenchmarkObserve(b *testing.B) {
	s, _ := New(Config{Layer1Counters: 1 << 16, Layer2Counters: 1 << 12, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(hashing.FlowID(i % 10000))
	}
}

func BenchmarkDecode(b *testing.B) {
	const flows = 2000
	s, _ := New(Config{Layer1Counters: 3 * flows, Layer2Counters: 512, Seed: 1})
	rng := hashing.NewPRNG(1)
	ids := make([]hashing.FlowID, flows)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(uint64(i)))
		for j := 0; j < 1+rng.Intn(50); j++ {
			s.Observe(ids[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Decode(ids, 30)
	}
}

// decodeInstance builds the property tests' instance in the generous
// regime (3 counters per flow, deep layers), one flow per entry of
// sizesRaw, and decodes it.
func decodeInstance(seed uint64, sizesRaw []uint8) (*Sketch, []hashing.FlowID, []int, DecodeResult) {
	flows := len(sizesRaw)
	s, err := New(Config{
		Layer1Counters: 3*flows + 9,
		// 10-bit first layer: with sizes <= 200 almost nothing overflows,
		// so stage-1 decode is near-trivial and the property isolates the
		// flow-layer decoder.
		Layer1Bits:     10,
		Layer2Counters: 3*flows + 16,
		Seed:           seed,
	})
	if err != nil {
		panic(err)
	}
	ids := make([]hashing.FlowID, flows)
	truth := make([]int, flows)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(seed + uint64(i)))
		truth[i] = int(sizesRaw[i]%200) + 1
		for j := 0; j < truth[i]; j++ {
			s.Observe(ids[i])
		}
	}
	return s, ids, truth, s.Decode(ids, 60)
}

// stoppingSet marks the flows of the instance's layer-1 stopping set: what
// remains after repeatedly removing any flow that is the only remaining
// flow on one of its layer-1 counters. Every other flow can be peeled, so
// an exact decoder recovers it; flows inside the set can be mutually
// ambiguous (two flows on the same k counters cannot be told apart).
func stoppingSet(s *Sketch, ids []hashing.FlowID) []bool {
	counters := make([][]uint32, len(ids))
	load := make([]int, s.cfg.Layer1Counters)
	for i, id := range ids {
		counters[i] = s.sel1.Select(id, nil)
		for _, c := range counters[i] {
			load[c]++
		}
	}
	stuck := make([]bool, len(ids))
	for i := range stuck {
		stuck[i] = true
	}
	for peeled := true; peeled; {
		peeled = false
		for i, cs := range counters {
			if !stuck[i] || !slices.ContainsFunc(cs, func(c uint32) bool { return load[c] == 1 }) {
				continue
			}
			stuck[i] = false
			for _, c := range cs {
				load[c]--
			}
			peeled = true
		}
	}
	return stuck
}

// decodeFault reports how a decode breaks the guarantees that hold at any
// seed, or "" when it keeps them: every flow outside the stopping set
// decodes exactly, a Converged result is exact for every flow, and no flow
// is wildly wrong (that would be a decoder bug, not ambiguity).
func decodeFault(s *Sketch, ids []hashing.FlowID, truth []int, res DecodeResult) string {
	stuck := stoppingSet(s, ids)
	for i := range ids {
		got, want := res.Estimates[i], float64(truth[i])
		switch {
		case got == want:
		case !stuck[i]:
			return fmt.Sprintf("flow %d is outside the stopping set but decodes to %v, truth %v", i, got, want)
		case res.Converged:
			return fmt.Sprintf("decode converged but flow %d decodes to %v, truth %v", i, got, want)
		case math.Abs(got-want) > want+1200:
			return fmt.Sprintf("flow %d decodes to %v, truth %v", i, got, want)
		}
	}
	return ""
}

func TestDecodePropertyQuick(t *testing.T) {
	// Property: random small instances in the generous regime decode
	// exactly wherever exactness is guaranteed (decodeFault). The seeded
	// Rand makes a failure reproducible; the property must hold at any
	// seed.
	f := func(seed uint64, sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 60 {
			return true
		}
		if fault := decodeFault(decodeInstance(seed, sizesRaw)); fault != "" {
			t.Logf("seed %#x, sizes %#v: %s", seed, sizesRaw, fault)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2008))}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeStoppingSetPair pins a recorded instance that no decoder can
// fully decode: flows 1 and 2 (sizes 199 and 152) map to the same three
// layer-1 counters, so their sizes cannot be split. The decode must not
// claim convergence, and the three flows outside the pair must still
// decode exactly.
func TestDecodeStoppingSetPair(t *testing.T) {
	s, ids, truth, res := decodeInstance(0x609d57cc7d5a5a89, []uint8{0x48, 0xc6, 0x97, 0xb3, 0xdf})
	a, b := s.sel1.Select(ids[1], nil), s.sel1.Select(ids[2], nil)
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatalf("flows 1 and 2 map to layer-1 counters %v and %v; the recorded instance shares them", a, b)
	}
	if got, want := stoppingSet(s, ids), []bool{false, true, true, false, false}; !slices.Equal(got, want) {
		t.Fatalf("stopping set %v, want %v", got, want)
	}
	if res.Converged {
		t.Fatalf("decode of two indistinguishable flows claims convergence: %v, truth %v", res.Estimates, truth)
	}
	for _, i := range []int{0, 3, 4} {
		if res.Estimates[i] != float64(truth[i]) {
			t.Errorf("flow %d outside the pair decodes to %v, truth %d", i, res.Estimates[i], truth[i])
		}
	}
	if fault := decodeFault(s, ids, truth, res); fault != "" {
		t.Fatal(fault)
	}
}
