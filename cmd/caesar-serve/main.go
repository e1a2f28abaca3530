// Command caesar-serve is the live measurement service: a ShardedWindow
// ingesting continuously (from a CTR1 trace replay and/or the /observe
// endpoint) while an HTTP JSON API answers estimates, detector verdicts,
// and observability counters from the sealed epochs — the paper's two-phase
// architecture folded into one long-running process, with the query phase
// always one rotation behind the construction phase.
//
// Usage:
//
//	caesar-serve [-listen 127.0.0.1:0] [-trace t.ctr1] [-snapshot state.csnp]
//	             [-epochs 4] [-shards 0] [-rotate-every 10s] ...
//
// Endpoints: GET /healthz /stats /drops /epochs /estimate /topk /alerts
// /changes /events /reconciliation; POST /observe /rotate /snapshot. See
// docs/SERVICE.md.
//
// The daemon is self-healing: a supervisor goroutine probes the window's
// health and, when a shard worker fault degrades the live epoch, forces an
// early seal+rotate under jittered exponential backoff (fresh shards heal
// quarantine by construction). Every recovery action is served at /events.
// POST /observe runs behind admission control (bounded in-flight budget,
// body size cap, 429/503 + Retry-After shedding), and reads degrade
// loudly: X-Caesar-* headers carry coverage and staleness while estimates
// get the paper's est/(1-rho) loss correction.
//
// With -snapshot, the window is checkpointed crash-safely after every
// rotation (and on the -checkpoint-every cadence); on startup the file, if
// present, is loaded, measurement resumes where the last checkpoint
// sealed, and GET /reconciliation reports exactly which epoch and how many
// accounted packets the crash lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/backoff"
	"github.com/caesar-sketch/caesar/internal/supervise"
	"github.com/caesar-sketch/caesar/internal/trace"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:0", "HTTP listen address; port 0 picks a free port")
		tracePath    = flag.String("trace", "", "CTR1 trace file to replay as the ingest source")
		replayLoop   = flag.Bool("replay-loop", false, "restart the trace replay when it is exhausted")
		snapPath     = flag.String("snapshot", "", "checkpoint file: written after every rotation, loaded on start when present")
		epochs       = flag.Int("epochs", 4, "sealed epochs the sliding window retains")
		shards       = flag.Int("shards", 0, "ingest shards per epoch; 0 = GOMAXPROCS")
		rotateEvery  = flag.Duration("rotate-every", 0, "rotate on this period; 0 = only on POST /rotate")
		counters     = flag.Int("counters", 1<<16, "off-chip counters per epoch (L)")
		cacheEntries = flag.Int("cache-entries", 1<<12, "on-chip cache entries per epoch (M)")
		cacheCap     = flag.Uint64("cache-cap", 64, "cache entry capacity (y)")
		seed         = flag.Uint64("seed", 1, "base hash seed; epochs derive theirs from it")

		overflow        = flag.String("overflow", "block", "ingest overflow policy: block, drop, or sample")
		drainTimeout    = flag.Duration("drain-timeout", 5*time.Second, "bound on the SIGTERM connection drain and on every seal: final, timed, supervisor recovery, and POST /rotate")
		checkpointEvery = flag.Duration("checkpoint-every", 0, "supervisor checkpoint cadence; 0 = checkpoint only on rotation")
	)
	flag.Parse()

	pol, err := parseOverflow(*overflow)
	if err != nil {
		log.Fatalf("caesar-serve: %v", err)
	}

	// The quarantine hook must be installed at window construction, before
	// the server that consumes it exists; the cell closes the loop.
	var srvCell atomic.Pointer[server]
	shOpts := caesar.ShardedOptions{
		OverflowPolicy: pol,
		Hooks: caesar.ShardedHooks{
			OnQuarantine: func(shard int, reason string) {
				if s := srvCell.Load(); s != nil {
					s.onQuarantine(shard, reason)
				}
			},
		},
	}

	w, restored, err := openWindow(*snapPath, *epochs, *shards, caesar.Config{
		Counters:      *counters,
		CacheEntries:  *cacheEntries,
		CacheCapacity: *cacheCap,
		Seed:          *seed,
	}, shOpts)
	if err != nil {
		log.Fatalf("caesar-serve: %v", err)
	}
	defer w.Close()

	srv := newServer(w, serveOptions{
		snapPath:     *snapPath,
		drainTimeout: *drainTimeout,
		overflow:     pol,
	})
	srvCell.Store(srv)
	if restored {
		rep := buildReconciliation(*snapPath, w)
		srv.setReconciliation(rep)
		log.Printf("caesar-serve: restored %d sealed epochs (%d rotations, %d packets) from %s; crash lost %d packets from epoch %d",
			w.EpochsSealed(), w.Rotations(), w.NumPackets(), *snapPath, rep.LostPackets, rep.LostEpoch)
	}

	sup := supervise.New(supervise.Config{
		Probe:           srv.probe,
		Rotate:          srv.rotate,
		Checkpoint:      srv.snapshot,
		CheckpointEvery: *checkpointEvery,
		Backoff:         backoff.Policy{Jitter: backoff.DefaultJitter},
		Seed:            *seed,
		Log:             srv.events,
	})
	srv.setSupervisor(sup)
	supCtx, stopSup := context.WithCancel(context.Background())
	defer stopSup()
	go sup.Run(supCtx)

	// The trace replay is the daemon's line-rate producer: one Ingester
	// handle, batches straight out of the packet array.
	stopReplay := make(chan struct{})
	replayDone := make(chan struct{})
	if *tracePath != "" {
		tr, err := loadTrace(*tracePath)
		if err != nil {
			log.Fatalf("caesar-serve: %v", err)
		}
		srv.addCandidates(trace.SortedFlowIDs(tr.Truth))
		go replay(w, tr, *replayLoop, stopReplay, replayDone, srv.noteIngested)
		log.Printf("caesar-serve: replaying %d packets over %d flows from %s (loop=%v)",
			tr.NumPackets(), tr.NumFlows(), *tracePath, *replayLoop)
	} else {
		close(replayDone)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("caesar-serve: listen: %v", err)
	}
	// The smoke test (and any supervisor) parses this exact line to learn
	// the bound port; keep it first on stdout and stable.
	fmt.Printf("caesar-serve: listening on http://%s\n", ln.Addr())
	httpSrv := newHTTPServer(srv.handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *rotateEvery > 0 {
		ticker := time.NewTicker(*rotateEvery)
		defer ticker.Stop()
		go srv.rotateOnTicks(supCtx, ticker.C)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("caesar-serve: serve: %v", err)
		}
	case s := <-sig:
		log.Printf("caesar-serve: %v: draining, sealing, and checkpointing", s)
		close(stopReplay)
		<-replayDone
		stopSup()
		// Drain in-flight requests for at most drainTimeout, then seal and
		// checkpoint through rotate, whose own deadline of the same size
		// keeps a wedged worker from holding shutdown hostage. A crash
		// (SIGKILL) skips this path by definition — then the previous
		// checkpoint plus the reconciliation report bound the loss.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("caesar-serve: drain: %v", err)
		}
		cancel()
		if err := srv.rotate(); err != nil {
			log.Printf("caesar-serve: final seal: %v", err)
		}
	}
}

// newHTTPServer wraps the handler in an http.Server with bounded read and
// idle timeouts, so a slowloris client (or a dead peer) cannot pin a
// connection — and its admission slot's worth of server memory — forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// parseOverflow maps the -overflow flag to the ingest policy.
func parseOverflow(s string) (caesar.OverflowPolicy, error) {
	switch s {
	case "", "block":
		return caesar.Block, nil
	case "drop":
		return caesar.Drop, nil
	case "sample":
		return caesar.Sample, nil
	}
	return caesar.Block, fmt.Errorf("unknown overflow policy %q (want block, drop, or sample)", s)
}

// openWindow loads the checkpoint when one exists, otherwise builds a fresh
// window. The checkpoint carries its own sketch configuration (the
// command-line sketch parameters apply only to fresh starts), but the
// runtime options — overflow policy, quarantine hook — are re-supplied on
// restore: snapshots persist counters, not behavior.
func openWindow(snapPath string, epochs, shards int, cfg caesar.Config, opts caesar.ShardedOptions) (*caesar.ShardedWindow, bool, error) {
	if snapPath != "" {
		f, err := os.Open(snapPath)
		if err == nil {
			defer f.Close()
			w, err := caesar.ReadShardedWindowOptions(f, opts)
			if err != nil {
				return nil, false, fmt.Errorf("restore %s: %w", snapPath, err)
			}
			return w, true, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, false, err
		}
	}
	w, err := caesar.NewShardedWindowOptions(epochs, shards, cfg, opts)
	return w, false, err
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// replay feeds the trace's packets through one producer handle in fixed
// batches until the trace ends (or forever with loop). note counts each
// batch into the service's presented-packet ledger for restart
// reconciliation, before the batch reaches the window, so a checkpoint
// taken mid-batch never records fewer packets than the open epoch holds.
func replay(w *caesar.ShardedWindow, tr *trace.Trace, loop bool, stop <-chan struct{}, done chan<- struct{}, note func(int)) {
	defer close(done)
	h := w.Ingester()
	const batch = 512
	buf := make([]caesar.FlowID, 0, batch)
	for {
		for i := 0; i < len(tr.Packets); i += batch {
			select {
			case <-stop:
				return
			default:
			}
			buf = buf[:0]
			for j := i; j < i+batch && j < len(tr.Packets); j++ {
				buf = append(buf, tr.Packets[j].Flow)
			}
			note(len(buf))
			h.ObserveBatch(buf)
		}
		if !loop {
			return
		}
	}
}
