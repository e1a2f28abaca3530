package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/detect"
	"github.com/caesar-sketch/caesar/internal/snapfile"
	"github.com/caesar-sketch/caesar/internal/supervise"
)

// server wires a live ShardedWindow, the detect package, and the snapshot
// layer behind an HTTP JSON API. All handlers are safe for concurrent use:
// the window serializes its own queries, and the candidate set (the flow
// memory the sketch deliberately does not keep) has its own lock.
type server struct {
	w    *caesar.ShardedWindow
	opts serveOptions

	// ingest is the window handle every POST /observe request shares:
	// concurrent requests serialize on its mutex, and it follows the window
	// across rotations.
	ingest *caesar.WindowIngester

	candMu sync.Mutex
	cand   detect.Candidates

	// snapMu serializes checkpoint writes (snapshot + meta sidecar).
	snapMu sync.Mutex

	// rotateMu keeps HTTP-triggered, timer-triggered, and supervisor
	// rotations from interleaving their rotate-then-snapshot sequences.
	rotateMu sync.Mutex

	// inflight is the admission budget: one slot per concurrently admitted
	// /observe request.
	inflight chan struct{}

	// Service-level accounting. ingested counts every packet presented to
	// the window (admitted /observe + trace replay), before the packets
	// are handed over; shed* count requests admission control rejected,
	// whose packets never reached the window. Together:
	// presented >= NumPackets + DroppedPackets + shedPackets at every
	// instant, with equality once the window is idle.
	ingested     atomic.Uint64
	shedPackets  atomic.Uint64
	shedRequests atomic.Uint64

	// lastSeal is the unix-nano time of the last successful rotation, for
	// the degraded read path's staleness header; 0 before the first seal.
	lastSeal atomic.Int64

	// events is the ops-visible recovery log (served at /events); the
	// supervisor appends to the same log.
	events *supervise.EventLog
	sup    atomic.Pointer[supervise.Supervisor]

	// recon is the restart reconciliation report, nil on a fresh start.
	recon atomic.Pointer[reconReport]
}

func newServer(w *caesar.ShardedWindow, opts serveOptions) *server {
	opts = opts.withDefaults()
	return &server{
		w:        w,
		opts:     opts,
		ingest:   w.Ingester(),
		inflight: make(chan struct{}, opts.maxInflight),
		events:   supervise.NewEventLog(0, nil),
	}
}

// setSupervisor binds the recovery supervisor once main has built it (the
// supervisor needs the server's rotate/snapshot, so it comes second).
func (s *server) setSupervisor(sv *supervise.Supervisor) { s.sup.Store(sv) }

// onQuarantine is the window's OnQuarantine hook target: log the fault and
// kick the supervisor so recovery starts now, not at the next probe tick.
func (s *server) onQuarantine(shard int, reason string) {
	s.events.Append("quarantine", "shard %d quarantined: %s", shard, reason)
	if sv := s.sup.Load(); sv != nil {
		sv.Kick()
	}
}

// noteIngested counts packets presented to the window (see server.ingested).
func (s *server) noteIngested(n int) { s.ingested.Add(uint64(n)) }

// setReconciliation installs the restart report and logs it as an event.
func (s *server) setReconciliation(rep reconReport) {
	s.recon.Store(&rep)
	s.ingested.Store(rep.RestoredAccounted)
	s.events.Append("reconcile",
		"restored %d rotations (%d packets accounted); crash lost epoch %d onward, %d packets",
		rep.RestoredRotations, rep.RestoredAccounted, rep.LostEpoch, rep.LostPackets)
}

// probe is the supervisor's health observation of the window.
func (s *server) probe() supervise.Probe {
	st := s.w.Stats()
	detail := st.Health.String()
	if st.QuarantinedShards > 0 {
		detail = fmt.Sprintf("%s (%d quarantined shards)", detail, st.QuarantinedShards)
	}
	return supervise.Probe{
		Healthy: st.Health == caesar.Healthy,
		Detail:  detail,
		Dropped: st.DroppedPackets,
	}
}

// addCandidates records flows into the detector candidate set.
func (s *server) addCandidates(flows []caesar.FlowID) {
	s.candMu.Lock()
	s.cand.AddBatch(flows)
	s.candMu.Unlock()
}

// candidates returns the current candidate list without copying it:
// Candidates.Flows never writes to a slice it has returned, so detectors
// can scan it after candMu is released while ingest keeps adding flows.
// Callers must not modify it.
func (s *server) candidates() []caesar.FlowID {
	s.candMu.Lock()
	defer s.candMu.Unlock()
	return s.cand.Flows()
}

// rotate seals the current epoch and, when configured, checkpoints the
// window. It is the one seal entry: POST /rotate, the -rotate-every loop,
// the supervisor's recovery rotations and the SIGTERM seal all call it.
// The snapshot happens after the seal so it always includes the epoch that
// just closed. The seal runs under the drain timeout, counted from before
// rotateMu is taken: a seal stuck behind a wedged worker gives up at the
// deadline (the worker is quarantined and the epoch ring stays consistent —
// ShardedWindow.RotateContext's contract), so it cannot hold rotateMu, and with
// it every later rotation and the shutdown seal, forever.
func (s *server) rotate() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.drainTimeout)
	defer cancel()
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	if err := s.w.RotateContext(ctx); err != nil {
		return err
	}
	s.lastSeal.Store(time.Now().UnixNano())
	return s.snapshot()
}

// rotateOnTicks is the -rotate-every loop: it rotates on every tick until
// ctx is done. A failed rotation is logged to /events and the loop keeps
// going, because the next seal starts on fresh shards and retries the
// checkpoint; stopping would freeze the query surface and let the open
// epoch grow without bound.
func (s *server) rotateOnTicks(ctx context.Context, ticks <-chan time.Time) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
			if err := s.rotate(); err != nil {
				log.Printf("caesar-serve: periodic rotate: %v", err)
				s.events.Append(supervise.KindRotateErr, "timed rotation failed: %v", err)
			}
		}
	}
}

// snapshot checkpoints the window crash-safely (temp file, fsync, atomic
// rename), so a crash mid-write never destroys the previous good file,
// then writes the reconciliation meta sidecar the same way.
func (s *server) snapshot() error {
	if s.opts.snapPath == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := snapfile.Write(s.opts.snapPath, s.w, s.opts.snapHooks); err != nil {
		return err
	}
	return s.writeMeta()
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /drops", s.handleDrops)
	mux.HandleFunc("GET /epochs", s.handleEpochs)
	mux.HandleFunc("GET /estimate", s.handleEstimate)
	mux.HandleFunc("GET /topk", s.handleTopK)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /changes", s.handleChanges)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /reconciliation", s.handleReconciliation)
	mux.HandleFunc("POST /observe", s.handleObserve)
	mux.HandleFunc("POST /rotate", s.handleRotate)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	return mux
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		log.Printf("caesar-serve: encode response: %v", err)
	}
}

func httpError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseFlow accepts decimal or 0x-prefixed hex flow IDs.
func parseFlow(s string) (caesar.FlowID, error) {
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	return caesar.FlowID(v), err
}

func parseMethod(s string) (caesar.Method, error) {
	switch strings.ToLower(s) {
	case "", "csm":
		return caesar.CSM, nil
	case "mlm":
		return caesar.MLM, nil
	}
	return caesar.CSM, fmt.Errorf("unknown method %q (want csm or mlm)", s)
}

type healthzResponse struct {
	Health         string  `json:"health"`
	EpochsSealed   int     `json:"epochs_sealed"`
	Rotations      int     `json:"rotations"`
	NumPackets     uint64  `json:"num_packets"`
	DroppedPackets uint64  `json:"dropped_packets"`
	LossRate       float64 `json:"loss_rate"`
}

func (s *server) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, healthzResponse{
		Health:         s.w.Health().String(),
		EpochsSealed:   s.w.EpochsSealed(),
		Rotations:      s.w.Rotations(),
		NumPackets:     s.w.NumPackets(),
		DroppedPackets: s.w.DroppedPackets(),
		LossRate:       s.w.EffectiveLossRate(),
	})
}

type statsResponse struct {
	Packets           int     `json:"packets"`
	CacheHits         int     `json:"cache_hits"`
	CacheMisses       int     `json:"cache_misses"`
	SRAMWrites        int     `json:"sram_writes"`
	CacheKB           float64 `json:"cache_kb"`
	SRAMKB            float64 `json:"sram_kb"`
	DroppedPackets    uint64  `json:"dropped_packets"`
	QuarantinedShards int     `json:"quarantined_shards"`
	Health            string  `json:"health"`
	EffectiveLossRate float64 `json:"effective_loss_rate"`
	EpochsSealed      int     `json:"epochs_sealed"`
	Rotations         int     `json:"rotations"`
	NumShards         int     `json:"num_shards"`
	Candidates        int     `json:"candidates"`
}

func (s *server) handleStats(rw http.ResponseWriter, _ *http.Request) {
	st := s.w.Stats()
	s.candMu.Lock()
	nc := s.cand.Len()
	s.candMu.Unlock()
	writeJSON(rw, statsResponse{
		Packets:           st.Packets,
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
		SRAMWrites:        st.SRAMWrites,
		CacheKB:           st.CacheKB,
		SRAMKB:            st.SRAMKB,
		DroppedPackets:    st.DroppedPackets,
		QuarantinedShards: st.QuarantinedShards,
		Health:            st.Health.String(),
		EffectiveLossRate: st.EffectiveLossRate,
		EpochsSealed:      s.w.EpochsSealed(),
		Rotations:         s.w.Rotations(),
		NumShards:         s.w.NumShards(),
		Candidates:        nc,
	})
}

type dropsResponse struct {
	DroppedPackets    uint64 `json:"dropped_packets"`
	DroppedOverflow   uint64 `json:"dropped_overflow"`
	DroppedSampled    uint64 `json:"dropped_sampled"`
	DroppedQuarantine uint64 `json:"dropped_quarantine"`
	DroppedTimeout    uint64 `json:"dropped_timeout"`
	DroppedAfterClose uint64 `json:"dropped_after_close"`
	DroppedInjected   uint64 `json:"dropped_injected"`
	DroppedBatches    uint64 `json:"dropped_batches"`
	// Service-level shedding, additive to (not part of) the window ledger:
	// shed packets never reached the window, so
	// ingested_packets + shed_packets == everything presented to the
	// service. ingested_packets counts a batch before the window takes
	// it, so ingested_packets >= NumPackets + DroppedPackets at every
	// instant, and the two are equal once the window is idle.
	ShedPackets     uint64 `json:"shed_packets"`
	ShedRequests    uint64 `json:"shed_requests"`
	IngestedPackets uint64 `json:"ingested_packets"`
}

func (s *server) handleDrops(rw http.ResponseWriter, _ *http.Request) {
	st := s.w.Stats()
	writeJSON(rw, dropsResponse{
		DroppedPackets:    st.DroppedPackets,
		DroppedOverflow:   st.DroppedOverflow,
		DroppedSampled:    st.DroppedSampled,
		DroppedQuarantine: st.DroppedQuarantine,
		DroppedTimeout:    st.DroppedTimeout,
		DroppedAfterClose: st.DroppedAfterClose,
		DroppedInjected:   st.DroppedInjected,
		DroppedBatches:    st.DroppedBatches,
		ShedPackets:       s.shedPackets.Load(),
		ShedRequests:      s.shedRequests.Load(),
		IngestedPackets:   s.ingested.Load(),
	})
}

type epochResponse struct {
	Rotation       int    `json:"rotation"`
	NumPackets     uint64 `json:"num_packets"`
	DroppedPackets uint64 `json:"dropped_packets"`
	Health         string `json:"health"`
}

func (s *server) handleEpochs(rw http.ResponseWriter, _ *http.Request) {
	views := s.w.Epochs()
	out := make([]epochResponse, 0, len(views))
	for _, v := range views {
		st := v.Stats()
		out = append(out, epochResponse{
			Rotation:       v.Rotation(),
			NumPackets:     v.NumPackets(),
			DroppedPackets: v.DroppedPackets(),
			Health:         st.Health.String(),
		})
	}
	writeJSON(rw, out)
}

type estimateResponse struct {
	Flow     caesar.FlowID `json:"flow"`
	Estimate float64       `json:"estimate"`
	Lo       *float64      `json:"lo,omitempty"`
	Hi       *float64      `json:"hi,omitempty"`
}

// handleEstimate answers /estimate?flow=ID[&flow=ID...][&method=csm|mlm]
// [&alpha=0.95]. With alpha set, each flow also gets its confidence bounds;
// without it, multiple flows answer through one bulk pass.
func (s *server) handleEstimate(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	raw := q["flow"]
	if len(raw) == 0 {
		httpError(rw, http.StatusBadRequest, "at least one flow parameter is required")
		return
	}
	flows := make([]caesar.FlowID, 0, len(raw))
	for _, fs := range raw {
		f, err := parseFlow(fs)
		if err != nil {
			httpError(rw, http.StatusBadRequest, "bad flow %q: %v", fs, err)
			return
		}
		flows = append(flows, f)
	}
	m, err := parseMethod(q.Get("method"))
	if err != nil {
		httpError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	// The degraded read path: when the live epoch is unhealthy, answers
	// still come from the sealed surface, scaled by the Figure 7 loss
	// correction; the headers say so explicitly.
	correct := s.coverage(rw)
	out := make([]estimateResponse, len(flows))
	if as := q.Get("alpha"); as != "" {
		alpha, err := strconv.ParseFloat(as, 64)
		if err != nil || alpha <= 0 || alpha >= 1 {
			httpError(rw, http.StatusBadRequest, "bad alpha %q: want a value in (0,1)", as)
			return
		}
		for i, f := range flows {
			est, iv := s.w.EstimateWithInterval(f, alpha)
			lo, hi := iv.Lo*correct, iv.Hi*correct
			out[i] = estimateResponse{Flow: f, Estimate: est * correct, Lo: &lo, Hi: &hi}
		}
	} else {
		ests := s.w.EstimateMany(flows, m, nil)
		for i, f := range flows {
			out[i] = estimateResponse{Flow: f, Estimate: ests[i] * correct}
		}
	}
	writeJSON(rw, out)
}

type topKResponse struct {
	Flow     caesar.FlowID `json:"flow"`
	Estimate float64       `json:"estimate"`
}

// handleTopK answers /topk?k=N[&method=csm|mlm]: the k largest flows of the
// sealed window out of the observed candidate set.
func (s *server) handleTopK(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k := 10
	if ks := q.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 {
			httpError(rw, http.StatusBadRequest, "bad k %q", ks)
			return
		}
		k = v
	}
	m, err := parseMethod(q.Get("method"))
	if err != nil {
		httpError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	correct := s.coverage(rw)
	top := detect.TopK(s.w, s.candidates(), m, k, 0)
	out := make([]topKResponse, len(top))
	for i, f := range top {
		out[i] = topKResponse{Flow: f.ID, Estimate: f.Estimate * correct}
	}
	writeJSON(rw, out)
}

type alertResponse struct {
	Flow     caesar.FlowID `json:"flow"`
	Estimate float64       `json:"estimate"`
	Lo       float64       `json:"lo"`
}

// handleAlerts answers /alerts?threshold=X[&alpha=0.95]: every candidate
// whose confidence interval sits entirely above the threshold.
func (s *server) handleAlerts(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ts := q.Get("threshold")
	if ts == "" {
		httpError(rw, http.StatusBadRequest, "threshold parameter is required")
		return
	}
	threshold, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		httpError(rw, http.StatusBadRequest, "bad threshold %q: %v", ts, err)
		return
	}
	alpha := 0.95
	if as := q.Get("alpha"); as != "" {
		alpha, err = strconv.ParseFloat(as, 64)
		if err != nil || alpha <= 0 || alpha >= 1 {
			httpError(rw, http.StatusBadRequest, "bad alpha %q: want a value in (0,1)", as)
			return
		}
	}
	s.coverage(rw) // the alert rows themselves are not loss-adjusted
	alerts := detect.OverThreshold(s.w, s.candidates(), alpha, threshold)
	out := make([]alertResponse, len(alerts))
	for i, a := range alerts {
		out[i] = alertResponse{Flow: a.ID, Estimate: a.Estimate, Lo: a.Lo}
	}
	writeJSON(rw, out)
}

type changeResponse struct {
	Flow   caesar.FlowID `json:"flow"`
	Before float64       `json:"before"`
	After  float64       `json:"after"`
	Delta  float64       `json:"delta"`
}

// handleChanges answers /changes?min=X[&method=csm|mlm]: candidates whose
// estimate moved by at least min packets between the two newest sealed
// epochs. Needs two sealed epochs; answers empty before the second seal.
func (s *server) handleChanges(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minDelta := 0.0
	if ms := q.Get("min"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil || v < 0 {
			httpError(rw, http.StatusBadRequest, "bad min %q", ms)
			return
		}
		minDelta = v
	}
	m, err := parseMethod(q.Get("method"))
	if err != nil {
		httpError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	s.coverage(rw) // the change rows themselves are not loss-adjusted
	out := []changeResponse{}
	if epochs := s.w.Epochs(); len(epochs) >= 2 {
		prev, cur := epochs[len(epochs)-2], epochs[len(epochs)-1]
		for _, c := range detect.Changes(prev, cur, s.candidates(), m, minDelta, 0) {
			out = append(out, changeResponse{Flow: c.ID, Before: c.Before, After: c.After, Delta: c.Delta})
		}
	}
	writeJSON(rw, out)
}

// handleObserve ingests a batch of flow IDs: POST /observe with
// {"flows":[...]}. The body is capped at maxBody bytes; admitted flows
// enter the current epoch and the candidate set, while requests beyond
// the in-flight budget are shed with 429/503 + Retry-After and counted in
// the service-level ledger (see dropsResponse).
func (s *server) handleObserve(rw http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(rw, r.Body, s.opts.maxBody)
	b := observePool.Get().(*observeBuf)
	defer b.release()
	flows, err := b.decode(r.Body, r.ContentLength, s.opts.maxBody)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(rw, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		httpError(rw, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(flows) == 0 {
		b.writeObserved(rw, 0)
		return
	}
	release, status := s.admit(r)
	if release == nil {
		s.shed(rw, status, len(flows))
		return
	}
	defer release()
	s.noteIngested(len(flows))
	s.ingest.ObserveBatch(flows)
	s.addCandidates(flows)
	b.writeObserved(rw, len(flows))
}

type eventsResponse struct {
	Supervisor *supervise.Stats  `json:"supervisor,omitempty"`
	Events     []supervise.Event `json:"events"`
}

// handleEvents answers GET /events: the recovery event log (quarantines,
// forced rotations, checkpoints, reconciliation), oldest first, plus the
// supervisor's counters when one is running.
func (s *server) handleEvents(rw http.ResponseWriter, _ *http.Request) {
	resp := eventsResponse{Events: s.events.Events()}
	if sv := s.sup.Load(); sv != nil {
		st := sv.Stats()
		resp.Supervisor = &st
	}
	writeJSON(rw, resp)
}

// handleReconciliation answers GET /reconciliation: the bounded-loss
// restart report, or 404 on a process that started fresh.
func (s *server) handleReconciliation(rw http.ResponseWriter, _ *http.Request) {
	rep := s.recon.Load()
	if rep == nil {
		httpError(rw, http.StatusNotFound, "no restart reconciliation: this process started fresh")
		return
	}
	writeJSON(rw, *rep)
}

// handleRotate seals the current epoch (and checkpoints, when configured):
// POST /rotate.
func (s *server) handleRotate(rw http.ResponseWriter, _ *http.Request) {
	if err := s.rotate(); err != nil {
		httpError(rw, http.StatusInternalServerError, "rotate: %v", err)
		return
	}
	writeJSON(rw, map[string]int{"rotations": s.w.Rotations()})
}

// handleSnapshot forces a checkpoint now: POST /snapshot.
func (s *server) handleSnapshot(rw http.ResponseWriter, _ *http.Request) {
	if s.opts.snapPath == "" {
		httpError(rw, http.StatusConflict, "snapshotting is disabled (no -snapshot path)")
		return
	}
	if err := s.snapshot(); err != nil {
		httpError(rw, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(rw, map[string]string{"snapshot": s.opts.snapPath})
}
