package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/caesar-sketch/caesar/internal/cache"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/sketch"
)

func buildLoadedSketch(t *testing.T) *Sketch {
	t.Helper()
	s, err := New(Config{
		K:             3,
		L:             512,
		CounterBits:   20,
		CacheEntries:  64,
		CacheCapacity: 8,
		Policy:        cache.LRU,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := hashing.NewPRNG(7)
	for i := 0; i < 20000; i++ {
		// Zipf-ish mix: a few heavy flows plus a long tail.
		var flow hashing.FlowID
		if rng.Intn(4) == 0 {
			flow = hashing.FlowID(rng.Intn(5))
		} else {
			flow = hashing.FlowID(100 + rng.Intn(2000))
		}
		s.Observe(flow)
	}
	return s
}

func TestSnapshotRoundTripBitExact(t *testing.T) {
	s := buildLoadedSketch(t)

	var buf bytes.Buffer
	wn, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if wn != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", wn, buf.Len())
	}

	var r Sketch
	rn, err := r.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if rn != wn {
		t.Fatalf("ReadFrom consumed %d bytes, snapshot is %d", rn, wn)
	}

	if r.NumPackets() != s.NumPackets() {
		t.Errorf("NumPackets: got %d, want %d", r.NumPackets(), s.NumPackets())
	}
	if r.Units() != s.Units() {
		t.Errorf("Units: got %d, want %d", r.Units(), s.Units())
	}
	if got, want := r.CacheStats(), s.CacheStats(); got != want {
		t.Errorf("CacheStats: got %+v, want %+v", got, want)
	}
	if got, want := r.SRAM().Writes(), s.SRAM().Writes(); got != want {
		t.Errorf("SRAM writes: got %d, want %d", got, want)
	}
	if got, want := r.SRAM().Saturations(), s.SRAM().Saturations(); got != want {
		t.Errorf("SRAM saturations: got %d, want %d", got, want)
	}

	// Estimates and intervals must be bit-identical, not merely close: the
	// restored state drives the exact same float operations.
	se, re := s.Estimator(), r.Estimator()
	se.Q, se.SizeSecondMoment = 2005, 900
	re.Q, re.SizeSecondMoment = 2005, 900
	for f := hashing.FlowID(0); f < 2200; f++ {
		if a, b := se.CSM(f), re.CSM(f); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("flow %d: CSM %v != %v", f, a, b)
		}
		if a, b := se.MLM(f), re.MLM(f); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("flow %d: MLM %v != %v", f, a, b)
		}
		ea, ia := se.CSMInterval(f, 0.95)
		eb, ib := re.CSMInterval(f, 0.95)
		if math.Float64bits(ea) != math.Float64bits(eb) ||
			math.Float64bits(ia.Lo) != math.Float64bits(ib.Lo) ||
			math.Float64bits(ia.Hi) != math.Float64bits(ib.Hi) {
			t.Fatalf("flow %d: CSM interval (%v, %+v) != (%v, %+v)", f, ea, ia, eb, ib)
		}
		if a, b := s.Estimate(f), r.Estimate(f); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("flow %d: Estimate %v != %v", f, a, b)
		}
	}
}

func TestSnapshotLoadedSketchIsQueryOnly(t *testing.T) {
	s := buildLoadedSketch(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, _, err := ReadSketch(&buf)
	if err != nil {
		t.Fatalf("ReadSketch: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Observe on a loaded snapshot should panic: construction is over")
		}
	}()
	r.Observe(1)
}

func TestSnapshotReadFromLeavesReceiverOnError(t *testing.T) {
	s := buildLoadedSketch(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // corrupt the checksum

	r := buildLoadedSketch(t)
	want := r.Estimate(1)
	if _, err := r.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadFrom accepted a corrupted snapshot")
	}
	if got := r.Estimate(1); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("receiver changed by failed ReadFrom: %v -> %v", want, got)
	}
}

func TestSnapshotShapeMismatchRejected(t *testing.T) {
	s := buildLoadedSketch(t)
	s.Flush()
	// Re-encode with a mismatched configuration section: the conf says L=513
	// but the sram section still carries 512 counters.
	var e sketch.Encoder
	e.Section("conf", func(e *sketch.Encoder) {
		e.Int(s.cfg.K)
		e.Int(s.cfg.L + 1)
		e.Int(s.cfg.CounterBits)
		e.Int(s.cfg.CacheEntries)
		e.U64(s.cfg.CacheCapacity)
		e.U8(uint8(s.cfg.Policy))
		e.U64(s.cfg.Seed)
	})
	e.Section("mass", func(e *sketch.Encoder) {
		e.U64(s.units)
		e.U64(s.mergedPackets)
		e.U64(s.mergedUnits)
	})
	e.Section("cach", s.cache.EncodeState)
	e.Section("sram", s.sram.EncodeState)
	if _, err := DecodeSketchState(sketch.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("decode accepted an SRAM section whose shape contradicts the configuration")
	}
}

func TestSnapshotRejectsBadPolicy(t *testing.T) {
	s := buildLoadedSketch(t)
	s.Flush()
	var e sketch.Encoder
	s.EncodeState(&e)
	// The policy byte sits after the four config ints (each 8 bytes with
	// their section framing); rather than compute the offset, decode after
	// patching every plausible policy byte value via a fresh encode.
	var e2 sketch.Encoder
	e2.Section("conf", func(e *sketch.Encoder) {
		e.Int(s.cfg.K)
		e.Int(s.cfg.L)
		e.Int(s.cfg.CounterBits)
		e.Int(s.cfg.CacheEntries)
		e.U64(s.cfg.CacheCapacity)
		e.U8(99) // no such replacement policy
		e.U64(s.cfg.Seed)
	})
	e2.Section("mass", func(e *sketch.Encoder) { e.U64(0); e.U64(0); e.U64(0) })
	if _, err := DecodeSketchState(sketch.NewDecoder(e2.Bytes())); err == nil {
		t.Fatal("decode accepted an unknown cache policy")
	}
}

func TestMergeInvalidatesCachedEstimator(t *testing.T) {
	a := buildLoadedSketch(t)
	b := buildLoadedSketch(t)
	b.Flush()
	before := a.Estimate(0)
	if err := a.MergeSRAM(b); err != nil {
		t.Fatalf("MergeSRAM: %v", err)
	}
	after := a.Estimate(0)
	if math.Float64bits(before) == math.Float64bits(after) {
		t.Error("Estimate unchanged after merge; cached estimator not invalidated")
	}
	// The post-merge estimate must match a freshly built estimator.
	if want := a.Estimator().CSM(0); math.Float64bits(after) != math.Float64bits(want) {
		t.Errorf("cached estimate %v != fresh estimator %v", after, want)
	}
}
