// Package supervise implements the self-healing control loop for the
// caesar-serve daemon. A Supervisor periodically probes the measurement
// window's health and, when the window reports Degraded or Quarantined,
// forces an early seal+rotate: fresh shards heal quarantine by
// construction (a quarantined worker only poisons the epoch it crashed
// in), so rotation is the recovery action. Rotations are spaced by a
// seeded, jittered exponential backoff so a crash-looping shard cannot
// cause a rotation storm, and every action is appended to an ops-visible
// EventLog. The same loop can checkpoint on a cadence. Sealed epochs change
// only at a rotation, and the daemon checkpoints after every rotation, so a
// cadence checkpoint adds a fresh accounting record (a restart then counts
// the open epoch's loss up to the last cadence) and retries a post-rotation
// checkpoint that failed.
//
// The loop is split into a pure, clock-parameterized Step(now) — which
// tests drive with a fake clock to assert exact recovery schedules — and
// a Run(ctx) wrapper that drives Step off a wall-clock ticker plus an
// out-of-band Kick channel (fired by the quarantine hook so recovery is
// not delayed by up to one probe interval).
package supervise

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/caesar-sketch/caesar/internal/backoff"
)

// Probe is one health observation of the supervised window.
type Probe struct {
	// Healthy reports whether the live epoch is fully operational. Any
	// false value (Degraded, Quarantined) makes the supervisor schedule a
	// recovery rotation.
	Healthy bool
	// Detail names the unhealthy state for the event log, e.g.
	// "quarantined (1 shard)". Ignored when Healthy.
	Detail string
	// Dropped is the window's cumulative accounted drop count, recorded in
	// rotation events so operators can correlate recovery with loss.
	Dropped uint64
}

// Config wires a Supervisor to the thing it supervises. Probe and Rotate
// are required; everything else has a usable zero value.
type Config struct {
	// Probe returns the current health observation. Called once per Step.
	Probe func() Probe
	// Rotate forces an early seal+rotate of the live epoch and bounds the
	// seal itself. Called when a probe reports unhealthy and the backoff
	// allows.
	Rotate func() error
	// Checkpoint persists a snapshot. Optional; called every
	// CheckpointEvery when set.
	Checkpoint func() error

	// CheckpointEvery is the checkpoint cadence; 0 disables periodic
	// checkpoints (the daemon still checkpoints on rotation and shutdown).
	CheckpointEvery time.Duration
	// CheckEvery is Run's probe interval (default 250ms).
	CheckEvery time.Duration

	// Backoff spaces recovery rotations. Zero value selects the backoff
	// package defaults with jitter disabled; the daemon passes
	// DefaultJitter explicitly.
	Backoff backoff.Policy
	// Seed derives the deterministic jitter stream.
	Seed uint64

	// Log receives recovery events. Nil allocates a default-sized log.
	Log *EventLog
	// Now stamps Run's steps; nil selects time.Now. Tests drive Step
	// directly instead.
	Now func() time.Time
}

// Supervisor runs the recovery loop. Create with New; all exported
// methods are safe for concurrent use.
type Supervisor struct {
	cfg Config
	log *EventLog

	mu             sync.Mutex
	bo             *backoff.Backoff
	healthy        bool // last observed health; starts true (no spurious "healed")
	notBefore      time.Time
	lastCheckpoint time.Time
	rotations      uint64
	checkpoints    uint64

	kick chan struct{}
}

// Stats is a point-in-time snapshot of the supervisor's counters, exposed
// on /events alongside the log.
type Stats struct {
	Rotations   uint64    `json:"rotations"`
	Checkpoints uint64    `json:"checkpoints"`
	Healthy     bool      `json:"healthy"`
	NotBefore   time.Time `json:"not_before,omitzero"`
	Attempt     int       `json:"attempt"`
}

var errNoRotate = errors.New("supervise: Config.Rotate is nil")

// New returns a supervisor over cfg. It does not start the loop; call Run
// (or drive Step from a test clock).
func New(cfg Config) *Supervisor {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = NewEventLog(0, cfg.Now)
	}
	return &Supervisor{
		cfg:     cfg,
		log:     cfg.Log,
		bo:      backoff.New(cfg.Backoff, cfg.Seed),
		healthy: true,
		kick:    make(chan struct{}, 1),
	}
}

// Log returns the event log the supervisor appends to.
func (s *Supervisor) Log() *EventLog { return s.log }

// Stats returns a snapshot of the supervisor's counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Rotations:   s.rotations,
		Checkpoints: s.checkpoints,
		Healthy:     s.healthy,
		NotBefore:   s.notBefore,
		Attempt:     s.bo.Attempt(),
	}
}

// Kick requests an immediate Step from Run, bypassing the probe interval.
// The serve daemon calls this from the quarantine hook so recovery starts
// as soon as a worker crashes instead of at the next tick. Non-blocking;
// coalesces with a pending kick.
func (s *Supervisor) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Step runs one iteration of the control loop at the given instant:
// probe, maybe rotate (respecting the backoff window), maybe checkpoint.
// Deterministic given the probe results and clock — the chaos tests drive
// it directly with a fake clock to assert the recovery schedule.
func (s *Supervisor) Step(now time.Time) {
	probe := s.cfg.Probe()

	s.mu.Lock()
	wasHealthy := s.healthy
	s.healthy = probe.Healthy
	due := !probe.Healthy && !now.Before(s.notBefore)
	if due {
		// Claim the rotation slot before releasing the lock so concurrent
		// Steps cannot double-rotate: push notBefore out by the next
		// backoff delay whether or not the rotation below succeeds (a
		// failing Rotate must not retry in a tight loop).
		delay := s.bo.Next()
		s.notBefore = now.Add(delay)
	}
	if probe.Healthy && !wasHealthy {
		s.bo.Reset()
		s.notBefore = time.Time{}
	}
	checkpointDue := s.cfg.Checkpoint != nil && s.cfg.CheckpointEvery > 0 &&
		now.Sub(s.lastCheckpoint) >= s.cfg.CheckpointEvery
	if checkpointDue {
		s.lastCheckpoint = now
	}
	s.mu.Unlock()

	switch {
	case !probe.Healthy && wasHealthy:
		s.log.Append(KindDegraded, "window unhealthy: %s (dropped=%d)", probe.Detail, probe.Dropped)
	case probe.Healthy && !wasHealthy:
		s.log.Append(KindHealed, "window healthy again; backoff reset")
	}

	if due {
		if err := s.ForceRotate(); err != nil {
			s.log.Append(KindRotateErr, "forced rotation failed: %v", err)
		}
	}
	if checkpointDue {
		if err := s.Checkpoint(); err != nil {
			s.log.Append(KindCheckErr, "checkpoint failed: %v", err)
		}
	}
}

// ForceRotate seals and rotates the live epoch through Config.Rotate,
// recording the action in the event log and the Rotations count. Step
// calls it for recovery rotations; rotations the daemon starts itself
// (POST /rotate, its timer, shutdown) call the seal directly and are not
// counted here. The returned error must be checked — an unnoticed failed
// recovery defeats the supervisor's purpose.
func (s *Supervisor) ForceRotate() error {
	if s.cfg.Rotate == nil {
		return errNoRotate
	}
	if err := s.cfg.Rotate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.rotations++
	n := s.rotations
	attempt := s.bo.Attempt()
	s.mu.Unlock()
	s.log.Append(KindRotate, "forced seal+rotate #%d (backoff attempt %d)", n, attempt)
	return nil
}

// Checkpoint persists a snapshot via the configured hook, recording the
// action in the event log. The returned error must be checked.
func (s *Supervisor) Checkpoint() error {
	if s.cfg.Checkpoint == nil {
		return nil
	}
	if err := s.cfg.Checkpoint(); err != nil {
		return err
	}
	s.mu.Lock()
	s.checkpoints++
	n := s.checkpoints
	s.mu.Unlock()
	s.log.Append(KindCheckpoint, "checkpoint #%d written", n)
	return nil
}

// Run drives Step off a CheckEvery ticker and the Kick channel until ctx
// is cancelled. Blocks; the daemon runs it in its own goroutine.
func (s *Supervisor) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-s.kick:
		}
		s.Step(s.cfg.Now())
	}
}
