package core

import (
	"fmt"
	"io"

	"github.com/caesar-sketch/caesar/internal/cache"
	"github.com/caesar-sketch/caesar/internal/counters"
	"github.com/caesar-sketch/caesar/internal/sketch"
)

// AlgoName identifies CAESAR snapshots in the CSNP container.
const AlgoName = "caesar"

// Interface compliance: CAESAR is a sketch.Sketch.
var _ sketch.Sketch = (*Sketch)(nil)

// EncodeState appends the sketch's complete post-flush state to a snapshot
// payload: configuration, mass accounting, cache statistics, and the SRAM
// counter array. The sketch must be flushed (WriteTo does this for you);
// the on-chip cache is empty by the paper's end-of-epoch contract
// (Section 3.2), so only its statistics are recorded.
func (s *Sketch) EncodeState(e *sketch.Encoder) {
	if !s.flushed {
		panic("core: EncodeState before Flush; snapshots are end-of-epoch artifacts")
	}
	e.Section("conf", func(e *sketch.Encoder) {
		e.Int(s.cfg.K)
		e.Int(s.cfg.L)
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
}

// DecodeSketchState rebuilds a flushed sketch from state written by
// EncodeState. The result is a query-phase artifact: estimates and
// intervals are bit-identical to the writer's, and Observe panics.
func DecodeSketchState(d *sketch.Decoder) (*Sketch, error) {
	var cfg Config
	d.Section("conf", func(d *sketch.Decoder) {
		cfg.K = d.Int()
		cfg.L = d.Int()
		cfg.CounterBits = d.Int()
		cfg.CacheEntries = d.Int()
		cfg.CacheCapacity = d.U64()
		cfg.Policy = cache.Policy(d.U8())
		cfg.Seed = d.U64()
	})
	if err := d.Err(); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot configuration rejected: %w", err)
	}
	d.Section("mass", func(d *sketch.Decoder) {
		s.units = d.U64()
		s.mergedPackets = d.U64()
		s.mergedUnits = d.U64()
	})
	var cacheErr error
	d.Section("cach", func(d *sketch.Decoder) { cacheErr = s.cache.DecodeState(d) })
	var arr *counters.Array
	var sramErr error
	d.Section("sram", func(d *sketch.Decoder) { arr, sramErr = counters.DecodeArrayState(d) })
	if err := firstErr(d.Err(), cacheErr, sramErr); err != nil {
		return nil, err
	}
	if arr.Len() != s.cfg.L || arr.Bits() != s.cfg.CounterBits {
		return nil, fmt.Errorf("core: snapshot SRAM %dx%d does not match configuration %dx%d",
			arr.Len(), arr.Bits(), s.cfg.L, s.cfg.CounterBits)
	}
	s.sram = arr
	s.flushed = true
	return s, nil
}

// WriteTo serializes the sketch in the CSNP snapshot format, flushing the
// construction phase first. It implements io.WriterTo.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	s.Flush()
	var e sketch.Encoder
	s.EncodeState(&e)
	return sketch.WriteSnapshot(w, AlgoName, e.Bytes())
}

// ReadFrom replaces the sketch with the state read from a CSNP snapshot.
// It implements io.ReaderFrom; on error the receiver is left unchanged.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	ns, n, err := ReadSketch(r)
	if err != nil {
		return n, err
	}
	*s = *ns
	return n, nil
}

// ReadSketch reads a CAESAR snapshot into a fresh sketch.
func ReadSketch(r io.Reader) (*Sketch, int64, error) {
	payload, n, err := sketch.ReadSnapshot(r, AlgoName)
	if err != nil {
		return nil, n, err
	}
	s, err := DecodeSketchState(sketch.NewDecoder(payload))
	return s, n, err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
