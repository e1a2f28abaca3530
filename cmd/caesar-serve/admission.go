package main

import (
	"net/http"
	"strconv"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/snapfile"
)

// serveOptions is the service-layer configuration of a server: persistence,
// admission control, and fault-injection hooks. withDefaults fills every
// zero limit with the daemon's value; main sets only snapPath,
// drainTimeout and overflow, and tests shrink the admission limits.
type serveOptions struct {
	// snapPath receives crash-safe checkpoints (plus a sidecar .meta file
	// for restart reconciliation); "" disables persistence.
	snapPath string
	// maxBody caps the POST /observe request body in bytes (1 MiB).
	maxBody int64
	// maxInflight bounds concurrently admitted /observe requests (64);
	// requests beyond it are shed per the overflow policy.
	maxInflight int
	// observeTimeout is how long an /observe request may wait for an
	// admission slot under the Block/Sample policies before it is shed
	// with 503 (1s; Drop sheds immediately with 429).
	observeTimeout time.Duration
	// overflow mirrors the window's ingest overflow policy so admission
	// control sheds the way the ingest path would.
	overflow caesar.OverflowPolicy
	// drainTimeout bounds every seal (see rotate); the -drain-timeout flag
	// it comes from also bounds the shutdown connection drain.
	drainTimeout time.Duration
	// snapHooks plugs internal/faultinject into checkpoint writes; nil in
	// production.
	snapHooks *snapfile.Hooks
}

func (o serveOptions) withDefaults() serveOptions {
	if o.maxBody <= 0 {
		o.maxBody = 1 << 20
	}
	if o.maxInflight <= 0 {
		o.maxInflight = 64
	}
	if o.observeTimeout <= 0 {
		o.observeTimeout = time.Second
	}
	if o.drainTimeout <= 0 {
		o.drainTimeout = 5 * time.Second
	}
	return o
}

// admit claims an in-flight slot for an /observe request. On success the
// returned release func is non-nil and must be called when ingest
// finishes. On shed it returns (nil, status): 429 under Drop (the policy
// that never waits), 503 when a Block/Sample wait exhausted its deadline
// or the client went away.
func (s *server) admit(r *http.Request) (release func(), status int) {
	select {
	case s.inflight <- struct{}{}:
		return s.releaseSlot, 0
	default:
	}
	if s.opts.overflow == caesar.Drop {
		return nil, http.StatusTooManyRequests
	}
	t := time.NewTimer(s.opts.observeTimeout)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		return s.releaseSlot, 0
	case <-t.C:
		return nil, http.StatusServiceUnavailable
	case <-r.Context().Done():
		return nil, http.StatusServiceUnavailable
	}
}

func (s *server) releaseSlot() { <-s.inflight }

// shed records a rejected /observe request in the service-level ledger and
// answers it with a structured error and Retry-After: 1, the daemon's
// admission wait in whole seconds. Shed packets never reach the window,
// so the idle service-wide invariant is
// presented == NumPackets + DroppedPackets + shedPackets.
func (s *server) shed(rw http.ResponseWriter, status, packets int) {
	s.shedRequests.Add(1)
	s.shedPackets.Add(uint64(packets))
	rw.Header().Set("Retry-After", "1")
	httpError(rw, status, "ingest at capacity (%d in-flight): %d packets shed under the %s policy",
		s.opts.maxInflight, packets, s.opts.overflow)
}

// coverage stamps a read response with the service's accounting headers
// and returns the multiplicative loss correction the handler must apply
// to its estimates: 1 while the live epoch is healthy (raw estimates, the
// historical behavior), 1/(1-rho) when it is degraded — the paper's
// Figure 7 correction, served from the sealed surface with explicit
// staleness so a reader knows it is looking at adjusted, older data.
func (s *server) coverage(rw http.ResponseWriter) float64 {
	rho := s.w.EffectiveLossRate()
	health := s.w.Health()
	h := rw.Header()
	h.Set("X-Caesar-Coverage", strconv.FormatFloat(1-rho, 'g', -1, 64))
	h.Set("X-Caesar-Health", health.String())
	if health == caesar.Healthy {
		return 1
	}
	h.Set("X-Caesar-Degraded", "true")
	if ns := s.lastSeal.Load(); ns != 0 {
		h.Set("X-Caesar-Staleness", time.Since(time.Unix(0, ns)).Round(time.Millisecond).String())
	}
	if v, ok := s.w.LastSealed(); ok {
		h.Set("X-Caesar-Sealed-Rotation", strconv.Itoa(v.Rotation()))
	}
	if rho < 1 {
		return 1 / (1 - rho)
	}
	return 1
}
