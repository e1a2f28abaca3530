package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/snapfile"
)

// Bounded-loss restart: every checkpoint writes a sidecar .meta file
// recording how many packets the service had accounted at that instant.
// The window snapshot persists only sealed epochs, so a crash loses the
// open epoch by design — the meta file is what lets a restart say exactly
// how much: packets presented since start minus packets the restored
// snapshot accounts for.

// checkpointMeta is the sidecar record written (crash-safely, like the
// snapshot itself) next to every checkpoint.
type checkpointMeta struct {
	// Rotations is the window's seal count at the checkpoint — also the
	// ordinal of the epoch that was open, i.e. the first epoch a crash
	// after this checkpoint loses.
	Rotations int `json:"rotations"`
	// Accounted is NumPackets + DroppedPackets at the checkpoint (spans
	// open and sealed epochs).
	Accounted uint64 `json:"accounted"`
	// Ingested is every packet presented to the window by this service
	// lineage (resumes across restarts at the restored accounted count).
	Ingested uint64 `json:"ingested"`
	// ShedPackets is the admission-control shed count at the checkpoint.
	ShedPackets uint64    `json:"shed_packets"`
	WrittenAt   time.Time `json:"written_at"`
}

func metaPath(snapPath string) string { return snapPath + ".meta" }

// jsonPayload adapts a marshalled value to snapfile's io.WriterTo contract.
type jsonPayload struct{ b []byte }

func (p jsonPayload) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.b)
	return int64(n), err
}

// writeMeta persists the current accounting next to the checkpoint.
// Called with snapMu held, immediately after the snapshot write, so the
// pair can be at most one checkpoint apart (and reconciliation clamps the
// stale-meta direction to zero).
func (s *server) writeMeta() error {
	m := checkpointMeta{
		Rotations:   s.w.Rotations(),
		Accounted:   s.w.NumPackets() + s.w.DroppedPackets(),
		Ingested:    s.ingested.Load(),
		ShedPackets: s.shedPackets.Load(),
		WrittenAt:   time.Now(),
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encode checkpoint meta: %w", err)
	}
	return snapfile.Write(metaPath(s.opts.snapPath), jsonPayload{b})
}

func readMeta(path string) (checkpointMeta, error) {
	var m checkpointMeta
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("decode %s: %w", path, err)
	}
	return m, nil
}

// reconReport is the restart-time reconciliation: exactly what a crash
// cost, served at GET /reconciliation and logged as a "reconcile" event.
type reconReport struct {
	// Checkpoint is the snapshot file the window was restored from.
	Checkpoint string `json:"checkpoint"`
	// CheckpointAt is when the last pre-crash checkpoint meta was written.
	CheckpointAt time.Time `json:"checkpoint_at,omitzero"`
	// RestoredRotations is the seal count of the restored window; the
	// fresh epoch opened on restart has this ordinal.
	RestoredRotations int `json:"restored_rotations"`
	// RestoredAccounted is NumPackets + DroppedPackets of the restored
	// window — everything the sealed surface still answers for.
	RestoredAccounted uint64 `json:"restored_accounted"`
	// LostEpoch is the ordinal of the epoch that was open at the last
	// checkpoint — the first (and, absent later checkpoints, only) epoch
	// the crash lost.
	LostEpoch int `json:"lost_epoch"`
	// LostPackets is exactly how many accounted packets died with the
	// crash: packets presented per the meta file minus packets the
	// restored snapshot accounts for.
	LostPackets uint64 `json:"lost_packets"`
	// MetaMissing marks a restore that found a snapshot but no meta
	// sidecar; LostPackets is then a lower bound (zero).
	MetaMissing bool `json:"meta_missing,omitempty"`
}

// buildReconciliation compares the restored window against the last
// checkpoint's meta sidecar. It must run before any post-restart ingest,
// which would count into the restored window's accounted total.
func buildReconciliation(snapPath string, w *caesar.ShardedWindow) reconReport {
	restored := w.NumPackets() + w.DroppedPackets()
	rep := reconReport{
		Checkpoint:        snapPath,
		RestoredRotations: w.Rotations(),
		RestoredAccounted: restored,
		LostEpoch:         w.Rotations(),
	}
	m, err := readMeta(metaPath(snapPath))
	if err != nil {
		// A missing meta file, or a torn or corrupt one: reconcile
		// conservatively, as if it were missing, rather than refusing to
		// start.
		rep.MetaMissing = true
		return rep
	}
	rep.CheckpointAt = m.WrittenAt
	rep.LostEpoch = m.Rotations
	if m.Ingested > restored {
		rep.LostPackets = m.Ingested - restored
	}
	return rep
}
