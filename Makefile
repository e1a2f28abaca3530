# CAESAR development targets. `make ci` runs everything the CI workflow
# runs; the individual targets are one command each so the tier-1 verify
# (`make build test`) and the new checks stay trivially reproducible.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt lint lint-vettool lint-waivers lint-json chaos chaos-serve fuzz-smoke snapshot-compat bench-smoke bench-test hashquality serve-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the expensive internal/expt experiment sweeps under the race
# detector; the race-focused tests (Sharded Observe/Close stress) still run.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-formatted (gofmt -l lists it) or
# gofmt cannot parse one (it exits nonzero).
fmt:
	out=$$(gofmt -l .) && test -z "$$out"

lint:
	$(GO) run ./cmd/caesar-lint ./...

# The same passes under the go vet driver, which also covers _test.go files
# and threads package facts (the allocfree certified sets) through .vetx.
lint-vettool:
	$(GO) build -o dist/caesar-lint ./cmd/caesar-lint
	$(GO) vet -vettool=$(CURDIR)/dist/caesar-lint ./...

# Audits every //caesar:ignore in the tree: prints file, analyzers, and
# justification; fails on waivers with no justification or naming unknown
# passes.
lint-waivers:
	$(GO) run ./cmd/caesar-lint -waivers -strict ./...

# Machine-readable findings for dashboards and diff tooling
# (schema: internal/analyzers/framework/json.go, version 1).
lint-json:
	@mkdir -p dist
	$(GO) run ./cmd/caesar-lint -json ./... > dist/lint.json
	@echo "wrote dist/lint.json"

# The fault-injection chaos suite (chaos_test.go, docs/ROBUSTNESS.md):
# overload drops, worker panics + quarantine, deadline-bounded shutdown,
# torn snapshot writes. Runs under the race detector, three times, because
# the bugs it hunts are scheduling-dependent; every run must prove the
# exact accounting invariant observed == counted + dropped.
chaos:
	$(GO) test -race -count=3 -run='^TestChaos' .

# The HTTP-level chaos suite for the self-healing service layer
# (cmd/caesar-serve/chaos_test.go, docs/SERVICE.md "Ops runbook"):
# mid-epoch worker panics healed by supervised seal+rotate within backoff
# bounds, degraded reads with coverage headers, admission-control shedding
# under Drop and Block, slow clients against the read timeouts, mid-body
# disconnects, failing checkpoint writes, a timed rotation that outlives a
# failed one, a rotation bounded by the drain timeout behind a wedged
# worker, a checkpoint that counts an /observe batch still in flight
# (TestChaosServeCheckpointCountsInFlightObserve), a SIGTERM that seals and
# checkpoints the open epoch and exits 0 (TestChaosServeSIGTERMSeal), and a
# SIGKILL + restart reconciliation drill whose lost-packet count must match
# the injected loss exactly.
chaos-serve:
	$(GO) test -race -count=3 -run='^TestChaosServe' ./cmd/caesar-serve

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSketchObserveEstimate -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotReadFrom -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzTornSnapshot -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzFiveTupleHash -fuzztime=$(FUZZTIME) ./internal/hashing
	$(GO) test -run='^$$' -fuzz=FuzzDetectOrder -fuzztime=$(FUZZTIME) ./detect
	$(GO) test -run='^$$' -fuzz=FuzzObserveBody -fuzztime=$(FUZZTIME) ./cmd/caesar-serve

# Verifies the committed CSNP golden fixtures still round-trip byte for byte
# (writer) and bit for bit (reader). Regenerate intentionally-changed
# fixtures with: go test ./internal/sketch -run TestSnapshotGolden -update
snapshot-compat:
	$(GO) test -run=TestSnapshotGoldenCompat -count=1 ./internal/sketch

# Statistical gates on the flow-ID stage (internal/hashing/quality_test.go):
# per-input-bit avalanche for the fast keyed hash, the SHA-1 derivation, and
# the Mix64 finalizer (with a teeth test proving the thresholds reject a
# weakened mixer), KSelector chi-square uniformity, and the million-flow
# collision census for both hashes.
hashquality:
	$(GO) test -run 'TestHashQuality' -count=1 ./internal/hashing

# Fast perf gate for CI: no hot path may allocate — single-sketch ingest
# (TestSketchObserveZeroAllocs), sharded line-rate ingest
# (TestIngestZeroAllocs), bulk query (TestEstimateManyZeroAllocs), the
# windowed bulk query (TestShardedWindowEstimateManyZeroAllocs), and the
# fused tuple-block path (TestFlowIDZeroAllocs, plus the FlowIDer scratch
# gate in internal/hashing) and caesar-serve's /observe body scanner
# (TestObserveScanZeroAllocs) are deterministic gates; the bench runs also
# surface the ns/op trend — including the fast flow-ID hash — in the job
# log.
bench-smoke:
	$(GO) test -run='TestSketchObserveZeroAllocs|TestEstimateManyZeroAllocs|TestShardedWindowEstimateManyZeroAllocs|TestIngestZeroAllocs|TestFlowIDZeroAllocs' -count=1 .
	$(GO) test -run='TestFlowIDerZeroAllocs' -count=1 ./internal/hashing
	$(GO) test -run='TestObserveScanZeroAllocs' -count=1 ./cmd/caesar-serve
	$(GO) test -run='^$$' -bench='BenchmarkSketchObserve$$' -benchtime=100x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkFlowID' -benchtime=100x -benchmem ./internal/hashing

# The benchmark's own tests (bench/README.md). bench/ is a separate module
# built against this checkout through a replace directive, so the root
# `go test ./...` neither runs nor compiles it; this target keeps the
# benchmark building as the root API changes.
bench-test:
	cd bench && $(GO) test ./...

# End-to-end drill of the live measurement service (docs/SERVICE.md):
# builds the real caesar-serve binary, boots it on a trace replay with
# checkpointing, queries every endpoint, SIGKILLs the process, restarts it
# from the checkpoint, and requires the sealed epochs to answer
# bit-identically across the crash.
serve-smoke:
	$(GO) test -run=TestServeSmoke -count=1 -v ./cmd/caesar-serve

ci: build vet fmt test race lint lint-vettool lint-waivers chaos chaos-serve fuzz-smoke snapshot-compat bench-smoke bench-test hashquality serve-smoke
