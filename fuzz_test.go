package caesar

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
)

// FuzzSketchObserveEstimate drives a small sketch with an arbitrary packet
// stream and checks the estimator's structural invariants: construction and
// querying never panic, every estimate is finite, CSM can dip below zero
// only by the de-noising term k·n/L (PAPER.md Eq. 20), no estimate exceeds
// the total observed mass times k, and confidence intervals are well-formed
// and centered on their estimate.
func FuzzSketchObserveEstimate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint64(42))
	f.Add([]byte{0}, uint64(0))
	f.Add([]byte{255, 255, 255, 0, 0, 0, 7, 7, 7, 7}, uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		const (
			k = 3
			l = 256
		)
		sk, err := New(Config{
			K:             k,
			Counters:      l,
			CacheEntries:  16,
			CacheCapacity: 8,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// Derive a flow stream from the fuzz bytes. Folding to 32 flow IDs
		// forces heavy counter sharing, the regime where the de-noising and
		// MLM root-finding math actually gets exercised.
		flows := map[FlowID]bool{}
		for _, b := range data {
			id := FlowID(b % 32)
			sk.Observe(id)
			flows[id] = true
		}
		n := float64(len(data))
		if got := sk.NumPackets(); got != uint64(len(data)) {
			t.Fatalf("NumPackets = %d, want %d", got, len(data))
		}

		est := sk.Estimator()
		noise := k * n / l // aggregate de-noising term k·Qμ/L
		for id := range flows {
			for _, m := range []Method{CSM, MLM} {
				x := est.Estimate(id, m)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%v estimate for flow %d is not finite: %v", m, id, x)
				}
				if x < -noise-1e-9 {
					t.Fatalf("%v estimate %v below de-noising floor -%v", m, x, noise)
				}
				if x > k*n+1e-9 {
					t.Fatalf("%v estimate %v exceeds k*n = %v", m, x, k*n)
				}
			}
			mid, iv := est.EstimateWithInterval(id, 0.95)
			if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
				t.Fatalf("interval for flow %d is not finite: [%v, %v]", id, iv.Lo, iv.Hi)
			}
			if iv.Lo > iv.Hi {
				t.Fatalf("interval for flow %d is inverted: [%v, %v]", id, iv.Lo, iv.Hi)
			}
			if !iv.Contains(mid) {
				t.Fatalf("interval [%v, %v] does not contain its own estimate %v", iv.Lo, iv.Hi, mid)
			}
		}
	})
}

// fuzzWindowSnapshots returns two genuine caesar-shardedwindow snapshots to
// seed the snapshot fuzzers with: a lossless window of 2 sealed epochs over
// 2 shards, and a lossy one-epoch window whose sealed epoch lost shard 1 to
// a worker panic after an earlier epoch was retired, so its loss section
// carries drops and a quarantine flag and its rets section is non-zero.
func fuzzWindowSnapshots(f *testing.F) (lossless, lossy []byte) {
	cfg := Config{Counters: 128, CacheEntries: 16, CacheCapacity: 8, Seed: 21}
	seal := func(w *ShardedWindow, epochs int, beforeEpoch func(int)) []byte {
		h := w.Ingester()
		for e := 0; e < epochs; e++ {
			beforeEpoch(e)
			for i := 0; i < 300; i++ {
				h.Observe(FlowID(i % 24))
			}
			if err := w.Rotate(); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	w, err := NewShardedWindow(2, 2, cfg)
	if err != nil {
		f.Fatal(err)
	}
	lossless = seal(w, 2, func(int) {})

	var armed atomic.Bool
	w, err = NewShardedWindowOptions(1, 2, cfg, ShardedOptions{
		batchSize: 16,
		Hooks: ShardedHooks{OnWorkerBatch: func(shard, _ int) {
			if shard == 1 && armed.CompareAndSwap(true, false) {
				panic("fuzz seed: injected worker panic")
			}
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	lossy = seal(w, 2, func(e int) { armed.Store(e == 1) })

	// The lossy seed must carry what it is for: a quarantined shard in its
	// sealed epoch and a retired epoch's packets.
	r, err := ReadShardedWindow(bytes.NewReader(lossy))
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	sealed := r.Epochs()[0]
	if sealed.Stats().QuarantinedShards != 1 || sealed.DroppedPackets() == 0 || r.NumPackets() == sealed.NumPackets() {
		f.Fatalf("lossy seed: sealed epoch %+v, window packets %d; want one quarantined shard, drops and a retired epoch",
			sealed.Stats(), r.NumPackets())
	}
	return lossless, lossy
}

// loadWindow restores a window from data when it decodes, checks that it
// answers without NaN, and closes it (a restore starts the current epoch's
// workers). It reports whether data loaded.
func loadWindow(t *testing.T, data []byte) bool {
	w, err := ReadShardedWindow(bytes.NewReader(data))
	if err != nil {
		return false
	}
	defer w.Close()
	if x := w.Estimate(1, CSM); math.IsNaN(x) {
		t.Fatalf("loaded window returned NaN estimate")
	}
	if x := w.EstimateMany([]FlowID{1, 2}, MLM, nil); math.IsNaN(x[0]) || math.IsNaN(x[1]) {
		t.Fatalf("loaded window returned NaN bulk estimates %v", x)
	}
	return true
}

// FuzzTornSnapshot models torn and corrupted writes directly: it starts
// from genuinely valid CSNP bytes (one plain sketch and the two window
// checkpoints of fuzzWindowSnapshots) and applies the two corruptions a
// crashed or failing disk produces — truncation at an arbitrary offset and
// bit flips. The container contract under test: the CRC32 covers every
// byte after the magic, so ANY mutation of a valid snapshot must surface as
// an error — never a panic, never a silently-wrong sketch — and a failed
// ReadFrom leaves the receiver bit-identical. (This is the same contract
// the chaos suite's TestChaosTornSnapshotWrite checks through the snapfile
// hooks; the fuzzer explores the offset space those fixed cases cannot.)
func FuzzTornSnapshot(f *testing.F) {
	sk, err := New(Config{Counters: 128, CacheEntries: 16, CacheCapacity: 8, Seed: 21})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		sk.Observe(FlowID(i % 24))
	}
	var pb bytes.Buffer
	if _, err := sk.WriteTo(&pb); err != nil {
		f.Fatal(err)
	}
	lossless, lossy := fuzzWindowSnapshots(f)
	sources := [][]byte{pb.Bytes(), lossless, lossy} // src selects one, mod 3

	f.Add(byte(0), uint32(0), uint32(0), byte(0)) // untouched plain snapshot
	f.Add(byte(1), uint32(0), uint32(0), byte(0)) // untouched lossless window
	f.Add(byte(0), uint32(1), uint32(0), byte(0)) // near-total truncation
	f.Add(byte(1), uint32(len(lossless)/2), uint32(0), byte(0))
	f.Add(byte(0), uint32(0), uint32(5), byte(1))                  // header bit flip
	f.Add(byte(1), uint32(0), uint32(len(lossless)-1), byte(0x80)) // CRC bit flip
	f.Add(byte(2), uint32(0), uint32(0), byte(0))                  // untouched lossy window
	f.Add(byte(2), uint32(len(lossy)*3/4), uint32(0), byte(0))     // truncated in the loss ledger

	f.Fuzz(func(t *testing.T, src byte, truncateAt, flipPos uint32, flipMask byte) {
		which := int(src) % len(sources)
		valid := sources[which]
		mutated := append([]byte(nil), valid...)
		if int(truncateAt) < len(mutated) {
			mutated = mutated[:truncateAt]
		}
		if flipMask != 0 && len(mutated) > 0 {
			mutated[int(flipPos)%len(mutated)] ^= flipMask
		}
		torn := !bytes.Equal(mutated, valid)

		// The standalone loaders must reject every torn variant cleanly, and
		// the window loader must take an intact window checkpoint.
		if _, err := ReadSketch(bytes.NewReader(mutated)); torn && err == nil {
			t.Fatalf("ReadSketch accepted torn snapshot (truncate=%d flip=%d/%#x)", truncateAt, flipPos, flipMask)
		}
		loaded := loadWindow(t, mutated)
		if torn && loaded {
			t.Fatalf("ReadShardedWindow accepted torn snapshot (truncate=%d flip=%d/%#x)", truncateAt, flipPos, flipMask)
		}
		if !torn && which > 0 && !loaded {
			t.Fatalf("ReadShardedWindow rejected intact window checkpoint %d", which)
		}

		// A failed in-place load must leave the receiver untouched; an intact
		// one must succeed and answer queries.
		recv, err := New(Config{Counters: 128, CacheEntries: 16, CacheCapacity: 8, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			recv.Observe(FlowID(i % 9))
		}
		before := recv.Estimate(3)
		if _, err := recv.ReadFrom(bytes.NewReader(mutated)); err != nil {
			if which == 0 && !torn {
				t.Fatalf("ReadFrom rejected an intact snapshot: %v", err)
			}
			if got := recv.Estimate(3); math.Float64bits(got) != math.Float64bits(before) {
				t.Fatalf("failed ReadFrom mutated receiver: %v != %v", got, before)
			}
		} else if torn {
			t.Fatalf("ReadFrom accepted torn snapshot (truncate=%d flip=%d/%#x)", truncateAt, flipPos, flipMask)
		}
	})
}

// FuzzSnapshotReadFrom throws arbitrary bytes at every public snapshot
// reader. The contract under test: corrupted, truncated, or adversarial
// snapshots are reported as errors — never a panic, never a hang on a huge
// length prefix — and a failed ReadFrom leaves the receiver untouched. The
// seed corpus includes a genuine snapshot of each container kind so the
// mutator explores the deep decode paths, not just the magic check.
func FuzzSnapshotReadFrom(f *testing.F) {
	mkSketch := func(seed uint64) *Sketch {
		sk, err := New(Config{Counters: 128, CacheEntries: 16, CacheCapacity: 8, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			sk.Observe(FlowID(i % 40))
		}
		return sk
	}
	var plain bytes.Buffer
	if _, err := mkSketch(3).WriteTo(&plain); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	lossless, lossy := fuzzWindowSnapshots(f)
	f.Add(lossless)
	f.Add(lossy)
	f.Add([]byte("CSNP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if sk, err := ReadSketch(bytes.NewReader(data)); err == nil {
			// A snapshot that decodes must answer queries sanely.
			if x := sk.Estimate(1); math.IsNaN(x) {
				t.Fatalf("loaded sketch returned NaN estimate")
			}
		}

		// A failed ReadFrom must leave the receiver bit-identical.
		recv := mkSketch(9)
		want := recv.Estimate(1)
		if _, err := recv.ReadFrom(bytes.NewReader(data)); err != nil {
			if got := recv.Estimate(1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("failed ReadFrom mutated receiver: %v != %v", got, want)
			}
		}

		loadWindow(t, data)
	})
}
