package supervise

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar/internal/backoff"
)

// fakeClock drives Step deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestEventLogRingEvictsOldest(t *testing.T) {
	c := newFakeClock()
	l := NewEventLog(4, c.now)
	for i := 0; i < 10; i++ {
		if seq := l.Append("k", "event %d", i); seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
	evs := l.Events()
	if len(evs) != 4 || l.Len() != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(6 + i) // oldest surviving is event 6
		if ev.Seq != wantSeq || ev.Msg != fmt.Sprintf("event %d", wantSeq) {
			t.Fatalf("event[%d] = {Seq:%d Msg:%q}, want seq %d", i, ev.Seq, ev.Msg, wantSeq)
		}
	}
}

func TestEventLogDefaultSize(t *testing.T) {
	l := NewEventLog(0, nil)
	for i := 0; i < DefaultEventLogSize+10; i++ {
		l.Append("k", "x")
	}
	if l.Len() != DefaultEventLogSize {
		t.Fatalf("default ring holds %d, want %d", l.Len(), DefaultEventLogSize)
	}
}

// scripted builds a supervisor whose probe health is controlled by the
// test and whose rotations/checkpoints count into atomics.
type scripted struct {
	healthy   atomic.Bool
	rotations atomic.Uint64
	checks    atomic.Uint64
	rotateErr error
	checkErr  error
}

func (sc *scripted) config(c *fakeClock, p backoff.Policy) Config {
	return Config{
		Probe: func() Probe {
			return Probe{Healthy: sc.healthy.Load(), Detail: "quarantined (1 shard)"}
		},
		Rotate: func() error {
			if sc.rotateErr != nil {
				return sc.rotateErr
			}
			sc.rotations.Add(1)
			return nil
		},
		Checkpoint: func() error {
			if sc.checkErr != nil {
				return sc.checkErr
			}
			sc.checks.Add(1)
			return nil
		},
		Backoff: p,
		Seed:    7,
		Now:     c.now,
		Log:     NewEventLog(64, c.now),
	}
}

func kinds(l *EventLog) []string {
	evs := l.Events()
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func TestStepRotatesUnderBackoffSchedule(t *testing.T) {
	c := newFakeClock()
	sc := &scripted{}
	p := backoff.Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0}
	s := New(sc.config(c, p))

	// Healthy steps do nothing.
	sc.healthy.Store(true)
	s.Step(c.now())
	if got := sc.rotations.Load(); got != 0 {
		t.Fatalf("healthy step rotated %d times", got)
	}

	// Going unhealthy rotates immediately and opens a 100ms backoff window.
	sc.healthy.Store(false)
	s.Step(c.now())
	if got := sc.rotations.Load(); got != 1 {
		t.Fatalf("first unhealthy step: %d rotations, want 1", got)
	}
	// Still unhealthy inside the window: no second rotation.
	c.advance(50 * time.Millisecond)
	s.Step(c.now())
	if got := sc.rotations.Load(); got != 1 {
		t.Fatalf("step inside backoff window rotated (total %d)", got)
	}
	// Past the window: rotates again, next window is 200ms.
	c.advance(60 * time.Millisecond)
	s.Step(c.now())
	if got := sc.rotations.Load(); got != 2 {
		t.Fatalf("step past backoff window: %d rotations, want 2", got)
	}
	st := s.Stats()
	wantNotBefore := c.now().Add(200 * time.Millisecond)
	if !st.NotBefore.Equal(wantNotBefore) {
		t.Fatalf("NotBefore = %v, want %v", st.NotBefore, wantNotBefore)
	}

	// Healing resets the backoff; the next failure rotates immediately.
	sc.healthy.Store(true)
	s.Step(c.now())
	if st := s.Stats(); st.Attempt != 0 || !st.NotBefore.IsZero() {
		t.Fatalf("heal did not reset backoff: %+v", st)
	}
	sc.healthy.Store(false)
	s.Step(c.now())
	if got := sc.rotations.Load(); got != 3 {
		t.Fatalf("post-heal failure: %d rotations, want 3", got)
	}

	got := kinds(s.Log())
	want := []string{KindDegraded, KindRotate, KindRotate, KindHealed, KindDegraded, KindRotate}
	if len(got) != len(want) {
		t.Fatalf("event kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestStepRotateFailureStillBacksOff(t *testing.T) {
	c := newFakeClock()
	sc := &scripted{rotateErr: errors.New("seal stuck")}
	p := backoff.Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0}
	s := New(sc.config(c, p))

	sc.healthy.Store(false)
	s.Step(c.now())
	s.Step(c.now()) // same instant: inside the window, must not retry
	if st := s.Stats(); st.Attempt != 1 {
		t.Fatalf("failed rotation did not consume a backoff attempt: %+v", st)
	}
	found := false
	for _, ev := range s.Log().Events() {
		if ev.Kind == KindRotateErr {
			found = true
		}
		if ev.Kind == KindRotate {
			t.Fatalf("failed rotation logged success: %+v", ev)
		}
	}
	if !found {
		t.Fatal("no rotate-err event logged")
	}
	if got := s.Stats().Rotations; got != 0 {
		t.Fatalf("failed rotations counted as %d successes", got)
	}
}

func TestStepCheckpointCadence(t *testing.T) {
	c := newFakeClock()
	sc := &scripted{}
	sc.healthy.Store(true)
	cfg := sc.config(c, backoff.Policy{})
	cfg.CheckpointEvery = time.Second
	s := New(cfg)

	// First step checkpoints (lastCheckpoint starts at zero), then the
	// cadence holds: one checkpoint per elapsed second, not per step.
	s.Step(c.now())
	c.advance(300 * time.Millisecond)
	s.Step(c.now())
	if got := sc.checks.Load(); got != 1 {
		t.Fatalf("%d checkpoints before cadence elapsed, want 1", got)
	}
	c.advance(800 * time.Millisecond)
	s.Step(c.now())
	if got := sc.checks.Load(); got != 2 {
		t.Fatalf("%d checkpoints after cadence elapsed, want 2", got)
	}
	if st := s.Stats(); st.Checkpoints != 2 {
		t.Fatalf("Stats.Checkpoints = %d, want 2", st.Checkpoints)
	}
}

func TestStepCheckpointFailureLogged(t *testing.T) {
	c := newFakeClock()
	sc := &scripted{checkErr: errors.New("disk full")}
	sc.healthy.Store(true)
	cfg := sc.config(c, backoff.Policy{})
	cfg.CheckpointEvery = time.Second
	s := New(cfg)
	s.Step(c.now())
	evs := s.Log().Events()
	if len(evs) != 1 || evs[0].Kind != KindCheckErr {
		t.Fatalf("events = %+v, want one %s", evs, KindCheckErr)
	}
}

func TestForceRotateWithoutRotateFails(t *testing.T) {
	s := New(Config{Probe: func() Probe { return Probe{Healthy: true} }})
	if err := s.ForceRotate(); err == nil {
		t.Fatal("ForceRotate with nil Rotate succeeded")
	}
}

func TestRunRespondsToKick(t *testing.T) {
	sc := &scripted{}
	sc.healthy.Store(false)
	cfg := sc.config(newFakeClock(), backoff.Policy{Base: time.Millisecond, Jitter: 0})
	cfg.Now = time.Now
	cfg.CheckEvery = time.Hour // only Kick can trigger a step
	s := New(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()

	s.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for sc.rotations.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kick did not trigger a rotation within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}
