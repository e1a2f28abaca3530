package caesar

import (
	"io"

	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/snapfile"
)

// This file implements checkpoint/restore for the public API, layered on
// the CSNP snapshot container (docs/SNAPSHOT.md). Snapshots realize the
// paper's two-phase architecture as two processes: a construction process
// observes traffic and writes its end-of-epoch state; a query process loads
// it — anywhere, any time later — and computes bit-identical estimates and
// confidence intervals.

// WriteTo serializes the sketch's complete end-of-epoch state, flushing the
// construction phase first. It implements io.WriterTo; load the snapshot
// with ReadSketch (or Sketch.ReadFrom) for estimates bit-identical to this
// sketch's.
func (sk *Sketch) WriteTo(w io.Writer) (int64, error) {
	return sk.s.WriteTo(w)
}

// ReadFrom replaces the sketch with the state read from a snapshot written
// by WriteTo. It implements io.ReaderFrom; on error the receiver is left
// unchanged. The loaded sketch is in its query phase: Observe panics.
func (sk *Sketch) ReadFrom(r io.Reader) (int64, error) {
	ns, n, err := core.ReadSketch(r)
	if err != nil {
		return n, err
	}
	sk.s = ns
	return n, nil
}

// ReadSketch loads a snapshot written by Sketch.WriteTo into a fresh sketch.
func ReadSketch(r io.Reader) (*Sketch, error) {
	s, _, err := core.ReadSketch(r)
	if err != nil {
		return nil, err
	}
	return &Sketch{s: s}, nil
}

// Estimate returns the flow's estimated size by the paper's default query
// method (CSM), flushing the construction phase first if needed. Use
// Estimator for MLM or confidence intervals.
func (sk *Sketch) Estimate(flow FlowID) float64 { return sk.s.Estimate(flow) }

// EstimateMany is the bulk counterpart of Estimate: the default CSM query
// for every flow in flows, with flows[i]'s estimate at index i of the
// result. It is bit-identical to calling Estimate in a loop and shares the
// same cached query view (invalidated by Flush, Merge, and ReadFrom). dst
// is reused as backing storage when it has capacity; see
// Estimator.EstimateMany for the full contract.
func (sk *Sketch) EstimateMany(flows []FlowID, dst []float64) []float64 {
	return sk.s.EstimateMany(flows, dst)
}

// SnapshotFile writes the sketch snapshot (Sketch.WriteTo) to path
// crash-safely: temp file, fsync, atomic rename (see WriteSnapshotFile).
func (sk *Sketch) SnapshotFile(path string) error {
	return WriteSnapshotFile(path, sk)
}

// WriteSnapshotFile writes any snapshot source (a Sketch, a ShardedWindow,
// ...) to path atomically; see internal/snapfile for the crash-safety
// contract.
func WriteSnapshotFile(path string, src io.WriterTo) error {
	return snapfile.Write(path, src)
}
