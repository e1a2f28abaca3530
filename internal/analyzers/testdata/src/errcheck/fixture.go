// Package fixture exercises the errcheck analyzer: module-internal calls
// whose error result is dropped as a bare statement are violations;
// explicit assignment, deferred cleanup, and error-free calls are clean.
package fixture

import (
	"context"
	"errors"
	"strconv"
)

func fallible() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func pure() int { return 1 }

func drops() {
	fallible() // want "error that is silently dropped"
	pair()     // want "error that is silently dropped"
	pure()     // clean: no error result
}

func handles() error {
	_ = fallible() // clean: explicitly discarded
	if err := fallible(); err != nil {
		return err
	}
	defer fallible()  // clean: deferred cleanup idiom
	strconv.Atoi("7") // clean: stdlib is classic errcheck's job, not ours
	//caesar:ignore errcheck fixture demonstrating a justified drop
	fallible()
	return nil
}

// The deadline-bounded shutdown APIs (ShardedWindow.CloseContext and
// RotateContext) return the only signal that a deadline expired and
// batches were counted as dropped; dropping that error hides a lossy close.
// These shutdown-shaped methods pin the analyzer to that contract.
type shutdownAPI struct{}

func (shutdownAPI) CloseContext(ctx context.Context) error { return nil }

func (shutdownAPI) FlushContext(ctx context.Context) error { return nil }

func shutsDown(ctx context.Context) error {
	var s shutdownAPI
	s.CloseContext(ctx) // want "error that is silently dropped"
	s.FlushContext(ctx) // want "error that is silently dropped"
	if err := s.FlushContext(ctx); err != nil {
		return err // clean: timeout surfaced to the caller
	}
	_ = s.CloseContext(ctx) // clean: explicitly discarded
	return nil
}

// The supervisor recovery APIs (supervise.Supervisor.ForceRotate and
// Checkpoint, serve's rotate) return the only evidence that a
// recovery action failed — a dropped error here means the service believes
// it healed when it did not. These mirror-shaped methods pin the analyzer
// to the self-healing service layer's contract; Kick and Step are
// error-free by design and must stay clean as bare statements.
type supervisorAPI struct{}

func (supervisorAPI) ForceRotate(ctx context.Context) error { return nil }

func (supervisorAPI) Checkpoint() error { return nil }

func (supervisorAPI) Kick() {}

// backoffAPI mirrors internal/backoff: Next returns the delay, not an
// error, so consuming an attempt as a bare statement is clean.
type backoffAPI struct{}

func (backoffAPI) Next() int { return 0 }

func supervises(ctx context.Context) error {
	var sup supervisorAPI
	sup.ForceRotate(ctx) // want "error that is silently dropped"
	sup.Checkpoint()     // want "error that is silently dropped"
	sup.Kick()           // clean: no error result
	var bo backoffAPI
	bo.Next() // clean: returns a duration, not an error
	if err := sup.ForceRotate(ctx); err != nil {
		return err // clean: failed rotation surfaced to the caller
	}
	_ = sup.Checkpoint() // clean: explicitly discarded
	return nil
}
