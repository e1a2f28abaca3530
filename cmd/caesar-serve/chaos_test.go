package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/backoff"
	"github.com/caesar-sketch/caesar/internal/faultinject"
	"github.com/caesar-sketch/caesar/internal/snapfile"
	"github.com/caesar-sketch/caesar/internal/supervise"
)

// The chaos-serve suite drives the self-healing service layer through
// HTTP-level faults — worker panics mid-epoch, slow clients, mid-body
// disconnects, checkpoint write failures, admission overload, SIGKILL —
// and asserts the service's contracts: the supervisor rotates within its
// backoff bounds, reads keep answering (loss-adjusted, with coverage
// headers) while degraded, the service-level ledger stays exact
// (presented == NumPackets + DroppedPackets + shed), and a restart
// reconciles exactly what the crash lost. CI runs TestChaosServe* under
// -race -count=3 (make chaos-serve).

// chaosWindow builds the small window the in-process chaos tests share.
func chaosWindow(t *testing.T, opts caesar.ShardedOptions) *caesar.ShardedWindow {
	t.Helper()
	w, err := caesar.NewShardedWindowOptions(3, 2, caesar.Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          5,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// waitDegraded polls until the armed worker panic has taken effect.
func waitDegraded(t *testing.T, w *caesar.ShardedWindow) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.Health() == caesar.Healthy {
		if time.Now().After(deadline) {
			t.Fatal("window never degraded after the armed panic")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitQuiesced polls until the worker queues have drained (the accounted
// total stops moving), so header/estimate assertions see a stable window.
func waitQuiesced(t *testing.T, w *caesar.ShardedWindow) {
	t.Helper()
	prev := w.NumPackets() + w.DroppedPackets()
	for i := 0; i < 500; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := w.NumPackets() + w.DroppedPackets()
		if cur == prev {
			return
		}
		prev = cur
	}
	t.Fatal("window never quiesced")
}

// eventKinds flattens the /events log for membership assertions.
func eventKinds(evs []supervise.Event) map[string]int {
	out := map[string]int{}
	for _, ev := range evs {
		out[ev.Kind]++
	}
	return out
}

// TestChaosServeSupervisorRecovery is the acceptance scenario: a seeded
// worker panic mid-epoch degrades the live epoch; the supervisor (driven
// deterministically through Step with a fake clock) forces a seal+rotate
// exactly within its backoff bounds; while degraded, reads keep answering
// from the sealed surface with coverage/staleness headers and the Figure 7
// loss correction; and after recovery the service-level ledger invariant
// holds exactly.
func TestChaosServeSupervisorRecovery(t *testing.T) {
	inj := faultinject.New(17)
	armed := inj.ArmedPanicWorker(0)
	var srv *server
	w := chaosWindow(t, caesar.ShardedOptions{
		Hooks: caesar.ShardedHooks{
			OnWorkerBatch: armed.Hook(),
			OnQuarantine: func(shard int, reason string) {
				if srv != nil {
					srv.onQuarantine(shard, reason)
				}
			},
		},
	})
	srv = newServer(w, serveOptions{})
	sup := supervise.New(supervise.Config{
		Probe:   srv.probe,
		Rotate:  srv.rotate,
		Backoff: backoff.Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0},
		Seed:    17,
		Log:     srv.events,
	})
	srv.setSupervisor(sup)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Healthy baseline: one sealed epoch so the degraded path has a query
	// surface, and healthy reads carry coverage 1.
	observe(t, ts, 7, 3000)
	postJSON[map[string]int](t, ts, "/rotate", nil)
	resp, err := ts.Client().Get(ts.URL + "/estimate?flow=7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Caesar-Health"); h != "healthy" {
		t.Fatalf("healthy read: X-Caesar-Health = %q", h)
	}
	if c := resp.Header.Get("X-Caesar-Coverage"); c != "1" {
		t.Fatalf("healthy read: X-Caesar-Coverage = %q, want 1", c)
	}

	// Panic a shard worker mid-epoch. The observe wave is large enough that
	// shard 0 sees full batches, so the armed panic fires.
	armed.Arm()
	observe(t, ts, 9, 4096)
	waitDegraded(t, w)
	waitQuiesced(t, w)

	// Degraded read path: still 200, explicit headers, and the estimate is
	// exactly the raw sealed-surface answer times the loss correction.
	rho := w.EffectiveLossRate()
	if rho <= 0 || rho >= 1 {
		t.Fatalf("EffectiveLossRate = %v after quarantine drops, want in (0,1)", rho)
	}
	correct := 1 / (1 - rho)
	raw := w.Estimate(7, caesar.CSM)
	resp, err = ts.Client().Get(ts.URL + "/estimate?flow=7")
	if err != nil {
		t.Fatal(err)
	}
	var rows []estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /estimate: status %d, want 200", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Caesar-Health"); h != "degraded" {
		t.Fatalf("degraded read: X-Caesar-Health = %q", h)
	}
	if d := resp.Header.Get("X-Caesar-Degraded"); d != "true" {
		t.Fatalf("degraded read: X-Caesar-Degraded = %q", d)
	}
	if st := resp.Header.Get("X-Caesar-Staleness"); st == "" {
		t.Fatal("degraded read: no X-Caesar-Staleness header")
	}
	if want := raw * correct; rows[0].Estimate != want {
		t.Fatalf("degraded estimate = %v, want exactly raw %v x correction %v = %v",
			rows[0].Estimate, raw, correct, want)
	}
	// The detector endpoints carry the same headers (their rows are not
	// loss-adjusted).
	for _, path := range []string{"/alerts?threshold=100", "/changes"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded %s: status %d, want 200", path, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Caesar-Health"); h != "degraded" {
			t.Fatalf("degraded %s: X-Caesar-Health = %q", path, h)
		}
		if d := resp.Header.Get("X-Caesar-Degraded"); d != "true" {
			t.Fatalf("degraded %s: X-Caesar-Degraded = %q", path, d)
		}
		if c, want := resp.Header.Get("X-Caesar-Coverage"), strconv.FormatFloat(1-rho, 'g', -1, 64); c != want {
			t.Fatalf("degraded %s: X-Caesar-Coverage = %q, want %q", path, c, want)
		}
	}

	// Supervisor recovery, clocked by hand: the first Step rotates
	// immediately (fresh shards heal quarantine), opening a 100ms backoff
	// window that a second fault must respect.
	t0 := time.Now()
	sup.Step(t0)
	if got := sup.Stats().Rotations; got != 1 {
		t.Fatalf("first unhealthy Step forced %d rotations, want 1", got)
	}
	if w.Health() != caesar.Healthy {
		t.Fatal("forced rotation did not heal the window")
	}

	// Second fault before the backoff window closes: no rotation inside
	// the window, rotation exactly once past it.
	armed.Arm()
	observe(t, ts, 11, 4096)
	waitDegraded(t, w)
	sup.Step(t0.Add(50 * time.Millisecond))
	if got := sup.Stats().Rotations; got != 1 {
		t.Fatalf("Step inside the backoff window rotated (total %d)", got)
	}
	sup.Step(t0.Add(150 * time.Millisecond))
	if got := sup.Stats().Rotations; got != 2 {
		t.Fatalf("Step past the backoff window: %d rotations, want 2", got)
	}
	if w.Health() != caesar.Healthy {
		t.Fatal("second forced rotation did not heal the window")
	}
	sup.Step(t0.Add(200 * time.Millisecond)) // healthy: logs healed, resets backoff

	// The ops log saw the whole story.
	ev := getJSON[eventsResponse](t, ts, "/events")
	kinds := eventKinds(ev.Events)
	if kinds["quarantine"] < 2 {
		t.Fatalf("events = %v, want both worker panics logged as quarantine", kinds)
	}
	if kinds[supervise.KindRotate] != 2 || kinds[supervise.KindDegraded] == 0 || kinds[supervise.KindHealed] == 0 {
		t.Fatalf("events = %v, want 2 rotations plus degraded/healed transitions", kinds)
	}
	if ev.Supervisor == nil || ev.Supervisor.Rotations != 2 {
		t.Fatalf("supervisor stats on /events = %+v", ev.Supervisor)
	}

	// The ledger invariant across the whole recovery, exactly: everything
	// presented is either counted in the window or was shed (here: nothing).
	dr := getJSON[dropsResponse](t, ts, "/drops")
	hz := getJSON[healthzResponse](t, ts, "/healthz")
	if dr.ShedPackets != 0 || dr.ShedRequests != 0 {
		t.Fatalf("unexpected shedding: %+v", dr)
	}
	if dr.DroppedQuarantine == 0 {
		t.Fatal("no quarantine drops counted despite two worker panics")
	}
	if got := hz.NumPackets + hz.DroppedPackets; got != dr.IngestedPackets {
		t.Fatalf("ledger invariant broken: NumPackets %d + dropped %d = %d, want ingested %d",
			hz.NumPackets, hz.DroppedPackets, got, dr.IngestedPackets)
	}
}

// TestChaosServeAdmissionControl pins the shedding contract: with the
// in-flight budget exhausted, Drop sheds immediately with 429, Block sheds
// with 503 only after the admission deadline, both carry Retry-After, and
// shed packets land in the service ledger without touching the window.
func TestChaosServeAdmissionControl(t *testing.T) {
	t.Run("drop-sheds-429", func(t *testing.T) {
		w := chaosWindow(t, caesar.ShardedOptions{OverflowPolicy: caesar.Drop})
		srv := newServer(w, serveOptions{maxInflight: 1, observeTimeout: 50 * time.Millisecond, overflow: caesar.Drop})
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()

		srv.inflight <- struct{}{} // exhaust the budget
		body, _ := json.Marshal(observeRequest{Flows: []caesar.FlowID{1, 2, 3, 4, 5}})
		resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed under Drop: status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("Retry-After = %q, want 1", ra)
		}
		dr := getJSON[dropsResponse](t, ts, "/drops")
		if dr.ShedPackets != 5 || dr.ShedRequests != 1 || dr.IngestedPackets != 0 {
			t.Fatalf("shed ledger = %+v, want 5 packets / 1 request shed, 0 ingested", dr)
		}

		<-srv.inflight // release; the service recovers
		code := postObserveStatus(t, ts, []caesar.FlowID{1, 2, 3, 4, 5})
		if code != http.StatusOK {
			t.Fatalf("post-release observe: status %d, want 200", code)
		}
		dr = getJSON[dropsResponse](t, ts, "/drops")
		if dr.IngestedPackets != 5 || dr.ShedPackets != 5 {
			t.Fatalf("post-release ledger = %+v, want 5 ingested + 5 shed", dr)
		}
	})

	t.Run("block-waits-then-503", func(t *testing.T) {
		w := chaosWindow(t, caesar.ShardedOptions{})
		srv := newServer(w, serveOptions{maxInflight: 1, observeTimeout: 80 * time.Millisecond})
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()

		srv.inflight <- struct{}{}
		start := time.Now()
		code := postObserveStatus(t, ts, []caesar.FlowID{1, 2, 3})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("shed under Block: status %d, want 503", code)
		}
		if waited := time.Since(start); waited < 80*time.Millisecond {
			t.Fatalf("Block policy shed after %v, before the %v admission deadline", waited, 80*time.Millisecond)
		}
		dr := getJSON[dropsResponse](t, ts, "/drops")
		if dr.ShedPackets != 3 || dr.ShedRequests != 1 {
			t.Fatalf("shed ledger = %+v", dr)
		}
	})
}

func postObserveStatus(t *testing.T, ts *httptest.Server, flows []caesar.FlowID) int {
	t.Helper()
	body, err := json.Marshal(observeRequest{Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestChaosServeBodyCap pins the request-size guard: an oversized /observe
// body is rejected with a structured 413 before touching the window.
func TestChaosServeBodyCap(t *testing.T) {
	w := chaosWindow(t, caesar.ShardedOptions{})
	srv := newServer(w, serveOptions{maxBody: 64})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	flows := make([]caesar.FlowID, 500)
	for i := range flows {
		flows[i] = caesar.FlowID(i)
	}
	body, _ := json.Marshal(observeRequest{Flows: flows})
	resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("oversized body: want a structured error, got %v (%v)", e, err)
	}
	if dr := getJSON[dropsResponse](t, ts, "/drops"); dr.IngestedPackets != 0 {
		t.Fatalf("oversized body ingested %d packets", dr.IngestedPackets)
	}
}

// TestChaosServeMidBodyDisconnect injects a client that dies partway
// through its upload: the request must fail without admitting any packets
// and without leaking an admission slot.
func TestChaosServeMidBodyDisconnect(t *testing.T) {
	w := chaosWindow(t, caesar.ShardedOptions{})
	srv := newServer(w, serveOptions{maxInflight: 1})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body, _ := json.Marshal(observeRequest{Flows: []caesar.FlowID{1, 2, 3, 4, 5, 6, 7, 8}})
	partial, err := io.ReadAll(io.LimitReader(faultinject.NewDisconnectReader(body, 10), int64(len(body))))
	if err != nil && len(partial) == 0 {
		t.Fatal(err)
	}

	// Speak raw HTTP so the advertised Content-Length exceeds what the
	// dying client actually sends, exactly like a dropped connection.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /observe HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write(partial); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-body disconnect

	// No packets admitted, nothing shed (the request never reached
	// admission), and the single slot was not leaked: follow-up requests
	// on the 1-slot budget all succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if dr := getJSON[dropsResponse](t, ts, "/drops"); dr.IngestedPackets == 0 && dr.ShedPackets == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnected request leaked packets into the ledger")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if code := postObserveStatus(t, ts, []caesar.FlowID{9}); code != http.StatusOK {
			t.Fatalf("observe %d after disconnect: status %d (admission slot leaked?)", i, code)
		}
	}
	if dr := getJSON[dropsResponse](t, ts, "/drops"); dr.IngestedPackets != 3 || dr.ShedRequests != 0 {
		t.Fatalf("post-disconnect ledger = %+v, want 3 ingested, 0 shed", dr)
	}
}

// TestChaosServeSlowClient pins the slowloris guard: with a server-side
// ReadTimeout, a client trickling its body cannot hold a connection past
// the deadline, and the service keeps answering afterwards.
func TestChaosServeSlowClient(t *testing.T) {
	w := chaosWindow(t, caesar.ShardedOptions{})
	srv := newServer(w, serveOptions{})
	ts := httptest.NewUnstartedServer(srv.handler())
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.ReadHeaderTimeout = 150 * time.Millisecond
	ts.Start()
	defer ts.Close()

	body, _ := json.Marshal(observeRequest{Flows: []caesar.FlowID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}})
	// ~20 chunks x 40ms = 800ms of trickle against a 150ms read budget.
	slow := faultinject.NewSlowReader(body, len(body)/20+1, 40*time.Millisecond)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/observe", slow)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	resp, err := ts.Client().Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			t.Fatal("slowloris request succeeded against the read timeout")
		}
	}
	if dr := getJSON[dropsResponse](t, ts, "/drops"); dr.IngestedPackets != 0 {
		t.Fatalf("slowloris body ingested %d packets", dr.IngestedPackets)
	}
	if code := postObserveStatus(t, ts, []caesar.FlowID{5}); code != http.StatusOK {
		t.Fatalf("well-behaved observe after the slowloris: status %d", code)
	}
}

// TestChaosServeCheckpointFailure injects a failing checkpoint write: the
// request reports the failure, the previous checkpoint file survives
// byte-for-byte (snapfile's contract), and the next write recovers.
func TestChaosServeCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.csnp")
	w := chaosWindow(t, caesar.ShardedOptions{})
	srv := newServer(w, serveOptions{snapPath: snap})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// A good checkpoint first.
	observe(t, ts, 7, 1000)
	postJSON[map[string]int](t, ts, "/rotate", nil)
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("first checkpoint never landed: %v", err)
	}

	// Arm the fault: the next checkpoint write dies before rename.
	inj := faultinject.New(23)
	srv.opts.snapHooks = &snapfile.Hooks{BeforeRename: inj.FailCheckpoints(1)}
	resp, err := ts.Client().Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed checkpoint: status %d, want 500", resp.StatusCode)
	}
	if got := inj.CheckpointFailures(); got != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", got)
	}
	after, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed checkpoint write altered the previous good checkpoint")
	}

	// The disk recovers: more data, a rotation, a bigger checkpoint.
	observe(t, ts, 9, 1000)
	postJSON[map[string]int](t, ts, "/rotate", nil)
	recovered, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(good, recovered) {
		t.Fatal("post-recovery checkpoint did not advance past the pre-fault one")
	}
}

// TestChaosServeCheckpointCountsInFlightObserve parks one /observe batch
// inside the window's ingest and checkpoints under it. The batch is already
// in the open epoch, which the checkpoint does not hold, so the meta
// sidecar must already count it: a crash at that instant loses exactly
// that batch, and reconciling the checkpoint must say so.
func TestChaosServeCheckpointCountsInFlightObserve(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.csnp")
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	var hooked atomic.Bool
	w := chaosWindow(t, caesar.ShardedOptions{Hooks: caesar.ShardedHooks{
		BeforeEnqueue: func(shard, packets int) bool {
			if hooked.CompareAndSwap(false, true) {
				close(parked)
				<-release // park the first full batch inside ObserveBatch
			}
			return true
		},
	}})
	srv := newServer(w, serveOptions{snapPath: snap})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	defer unpark() // runs first: ts.Close waits for in-flight handlers

	// One flow, so all 512 packets route to one shard and fill its batch.
	flows := make([]caesar.FlowID, 512)
	for i := range flows {
		flows[i] = 7
	}
	body, err := json.Marshal(observeRequest{Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	posted := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			posted <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		posted <- resp.StatusCode
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the /observe batch never reached the window")
	}

	snapErr := srv.snapshot()
	unpark()
	if code := <-posted; code != http.StatusOK {
		t.Fatalf("parked /observe: status %d, want 200", code)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	m, err := readMeta(metaPath(snap))
	if err != nil {
		t.Fatal(err)
	}
	if m.Ingested != 512 {
		t.Fatalf("meta ingested = %d while a 512-packet batch sat in the open epoch, want 512", m.Ingested)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := caesar.ReadShardedWindow(f)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if rep := buildReconciliation(snap, restored); rep.LostPackets != 512 {
		t.Fatalf("reconciled lost_packets = %d, want the 512 packets of the open epoch", rep.LostPackets)
	}
}

// TestChaosServeTimedRotationSurvivesFailure pins the -rotate-every loop
// against a failed rotation: the first tick seals but its checkpoint write
// fails, which lands in /events as rotate-err; the loop keeps ticking, and
// the second tick seals and checkpoints.
func TestChaosServeTimedRotationSurvivesFailure(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.csnp")
	inj := faultinject.New(29)
	w := chaosWindow(t, caesar.ShardedOptions{})
	srv := newServer(w, serveOptions{snapPath: snap, snapHooks: &snapfile.Hooks{BeforeRename: inj.FailCheckpoints(1)}})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	observe(t, ts, 7, 1000)

	ticks := make(chan time.Time)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.rotateOnTicks(ctx, ticks)
	}()
	tick := func() {
		t.Helper()
		select {
		case ticks <- time.Now():
		case <-time.After(5 * time.Second):
			t.Fatal("the timed rotation loop stopped taking ticks")
		}
	}
	tick()
	tick() // taken only once the first tick's rotation has returned
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the timed rotation loop ignored its context")
	}

	if got := w.Rotations(); got != 2 {
		t.Fatalf("Rotations = %d after two ticks, want 2", got)
	}
	if got := inj.CheckpointFailures(); got != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", got)
	}
	ev := getJSON[eventsResponse](t, ts, "/events")
	if got := eventKinds(ev.Events)[supervise.KindRotateErr]; got != 1 {
		t.Fatalf("events = %+v, want one rotate-err for the failed checkpoint", ev.Events)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("the second tick wrote no checkpoint: %v", err)
	}
	defer f.Close()
	restored, err := caesar.ReadShardedWindow(f)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Rotations() != 2 || restored.NumPackets() != 1000 {
		t.Fatalf("checkpoint holds %d rotations and %d packets, want the second tick's 2 and 1000",
			restored.Rotations(), restored.NumPackets())
	}
}

// TestChaosServeRotateDeadline wedges a shard worker and rotates over
// HTTP: POST /rotate must answer 500 within the drain timeout instead of
// holding rotateMu forever, the sealed epoch must quarantine the wedged
// shard, the next bounded rotation must go through, and once the worker is
// released the service ledger must balance exactly.
func TestChaosServeRotateDeadline(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	var wedged atomic.Bool
	w := chaosWindow(t, caesar.ShardedOptions{Hooks: caesar.ShardedHooks{
		OnWorkerBatch: func(shard, packets int) {
			if wedged.CompareAndSwap(false, true) {
				<-release // wedge the first worker to take a batch
			}
		},
	}})
	srv := newServer(w, serveOptions{drainTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	defer unwedge() // runs first: ts.Close waits for in-flight handlers

	observe(t, ts, 7, 1000)
	for deadline := time.Now().Add(5 * time.Second); !wedged.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker ever took a batch")
		}
	}

	rotated := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/rotate", "application/json", nil)
		if err != nil {
			t.Error(err)
			rotated <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rotated <- resp.StatusCode
	}()
	select {
	case code := <-rotated:
		if code != http.StatusInternalServerError {
			t.Fatalf("POST /rotate behind a wedged worker: status %d, want 500", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("POST /rotate still blocked 5s behind a wedged worker")
	}
	sealed, ok := w.LastSealed()
	if !ok || sealed.Stats().QuarantinedShards != 1 {
		t.Fatalf("sealed epoch does not quarantine the wedged shard (ok %v, stats %+v)", ok, sealed.Stats())
	}

	// rotateMu is free again: the next rotate, the same call the
	// supervisor and the shutdown seal make, goes through on the fresh
	// shards.
	observe(t, ts, 9, 500)
	next := make(chan error, 1)
	go func() { next <- srv.rotate() }()
	select {
	case err := <-next:
		if err != nil {
			t.Fatalf("rotation after the cut-short one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bounded rotate still blocked on rotateMu after 5s")
	}

	if got := w.DroppedPackets(); got != 0 {
		t.Fatalf("%d packets dropped before the wedged worker was released, want 0", got)
	}
	unwedge()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The released worker applies its wedged batch, then counts the rest
	// of its ring as timeout drops. Those drops are atomic and follow the
	// apply, so once they show, the shard's packet count is final and safe
	// to read.
	for deadline := time.Now().Add(5 * time.Second); w.DroppedPackets() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the released worker never drained its ring")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		presented := srv.ingested.Load() + srv.shedPackets.Load()
		counted := w.NumPackets() + w.DroppedPackets() + srv.shedPackets.Load()
		if presented == 1500 && counted == presented {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger: presented %d, NumPackets %d + dropped %d + shed %d = %d",
				presented, w.NumPackets(), w.DroppedPackets(), srv.shedPackets.Load(), counted)
		}
	}
}

// TestChaosServeReconciliationSIGKILL is the bounded-loss restart drill at
// process granularity: ingest a known count, checkpoint, ingest more,
// snapshot the meta, SIGKILL, restart — the reconciliation report must
// state exactly the injected loss.
func TestChaosServeReconciliationSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "caesar-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "state.csnp")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-snapshot", snap,
		"-epochs", "3", "-shards", "2",
		"-counters", "16384", "-cache-entries", "1024", "-cache-cap", "32",
		"-seed", "7",
	}

	// First life: 1000 packets sealed + checkpointed, then 345 more that
	// only the meta sidecar (written by POST /snapshot) knows about.
	cmd, base := startServe(t, bin, args)
	postFlowsSmoke(t, base, 0, 1000)
	postSmoke(t, base, "/rotate")
	postFlowsSmoke(t, base, 50, 345)
	postSmoke(t, base, "/snapshot")
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Second life: the report states exactly what died.
	cmd2, base2 := startServe(t, bin, args)
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	var rep reconReport
	getSmoke(t, base2, "/reconciliation", &rep)
	if rep.RestoredAccounted != 1000 {
		t.Fatalf("RestoredAccounted = %d, want the 1000 sealed packets", rep.RestoredAccounted)
	}
	if rep.LostPackets != 345 {
		t.Fatalf("LostPackets = %d, want exactly the 345 injected post-checkpoint packets", rep.LostPackets)
	}
	if rep.LostEpoch != 1 || rep.RestoredRotations != 1 {
		t.Fatalf("lost epoch %d / restored rotations %d, want 1 / 1", rep.LostEpoch, rep.RestoredRotations)
	}
	if rep.MetaMissing {
		t.Fatal("reconciliation claims the meta sidecar was missing")
	}
	var ev eventsResponse
	getSmoke(t, base2, "/events", &ev)
	if eventKinds(ev.Events)["reconcile"] != 1 {
		t.Fatalf("events after restart = %+v, want one reconcile entry", ev.Events)
	}
	var dr dropsResponse
	getSmoke(t, base2, "/drops", &dr)
	if dr.IngestedPackets != 1000 {
		t.Fatalf("restored ingested counter = %d, want to resume at the 1000 accounted packets", dr.IngestedPackets)
	}
}

// TestChaosServeSIGTERMSeal drives main's graceful shutdown at process
// granularity: SIGTERM must drain, seal the open epoch and checkpoint it,
// then exit 0, so a restart answers for every packet and reconciles no
// loss.
func TestChaosServeSIGTERMSeal(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "caesar-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "state.csnp")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-snapshot", snap,
		"-epochs", "3", "-shards", "2",
		"-counters", "16384", "-cache-entries", "1024", "-cache-cap", "32",
		"-seed", "7",
	}

	// First life: 1000 packets sealed, 345 more left in the open epoch for
	// the shutdown seal.
	cmd, base := startServe(t, bin, args)
	postFlowsSmoke(t, base, 0, 1000)
	postSmoke(t, base, "/rotate")
	postFlowsSmoke(t, base, 50, 345)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("caesar-serve after SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		t.Fatal("caesar-serve still running 10s after SIGTERM")
	}

	// Second life: the final checkpoint holds both epochs, and its meta
	// sidecar accounts for every packet.
	cmd2, base2 := startServe(t, bin, args)
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	var hz healthzResponse
	getSmoke(t, base2, "/healthz", &hz)
	if hz.NumPackets != 1345 || hz.Rotations != 2 {
		t.Fatalf("restored healthz = %+v, want num_packets 1345 and rotations 2", hz)
	}
	var rep reconReport
	getSmoke(t, base2, "/reconciliation", &rep)
	if rep.LostPackets != 0 || rep.MetaMissing {
		t.Fatalf("reconciliation after a graceful shutdown = %+v, want lost_packets 0", rep)
	}
}

// postFlowsSmoke pushes n packets over distinct flows starting at base
// through the process-level /observe endpoint in one batch.
func postFlowsSmoke(t *testing.T, baseURL string, flowBase, n int) {
	t.Helper()
	flows := make([]caesar.FlowID, n)
	for i := range flows {
		flows[i] = caesar.FlowID(flowBase + i%50)
	}
	body, err := json.Marshal(observeRequest{Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /observe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /observe: status %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["observed"] != n {
		t.Fatalf("observed %d packets, want %d", out["observed"], n)
	}
}
