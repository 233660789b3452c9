GO ?= go

# Where CI-run bench artifacts land (uploaded as workflow artifacts).
BENCH_OUT ?= /tmp/qgear-bench
# Scratch store directory for the warm-restart acceptance check.
WARMSTART_DIR ?= /tmp/qgear-warmstart
# Coverage profile and floor for internal/observable (near-dead code
# until PR 5; the floor keeps the expectation pathway exercised).
COVER_OUT ?= /tmp/qgear-observable-cover.out
OBSERVABLE_COVER_FLOOR ?= 85

.PHONY: build vet fmt-check test test-fresh check cover-observable serve bench \
	bench-serve bench-baseline bench-gate ci-load ci-warmstart ci-chaos \
	ci-scaling ci-sweep ci-store clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness: fail listing the offending files.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

test: vet
	$(GO) test -race ./...

# Fresh (uncached) race pass over the concurrency-heavy suites
# (observable/backend joined in PR 5: term-parallel and chunk-parallel
# expectation evaluation share one read-only state across goroutines).
test-fresh:
	$(GO) test -race -count=1 ./internal/mgpu/... ./internal/service/... \
		./internal/kernel/... ./internal/store/... ./internal/observable/... \
		./internal/backend/... ./internal/telemetry/...

# The tier-1 gate: plain build + test, as CI runs it. CI calls this
# target (not raw go commands), so the gate is defined exactly once.
# The observable coverage floor rides along: the expectation pathway's
# core package must stay exercised, not decay back into dead code.
check: cover-observable
	$(GO) build ./... && $(GO) test ./...

# Coverage floor for internal/observable (fails below
# OBSERVABLE_COVER_FLOOR percent). The package's ~1s suite runs once
# more inside the plain `go test ./...` (coverage builds don't share
# the test cache) — accepted so the tier-1 gate stays one target.
cover-observable:
	@$(GO) test -coverprofile=$(COVER_OUT) ./internal/observable > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor=$(OBSERVABLE_COVER_FLOOR) 'BEGIN { \
		if (t + 0 < floor) { printf "internal/observable coverage %.1f%% is below the %d%% floor\n", t, floor; exit 1 } \
		printf "internal/observable coverage %.1f%% (floor %d%%)\n", t, floor }'

serve: build
	$(GO) run ./cmd/qgear-serve serve -addr :8042 -fusion 2

# Tiled-executor ablation at acceptance sizes (QFT-24, QCrank image
# encoding): per-gate sweeps vs cache-blocked tile runs, with the
# speedup trajectory recorded in BENCH_qft.json / BENCH_qcrank.json.
bench: build
	$(GO) run ./cmd/qgear-bench -exp tiling -large -json-dir .

# Re-record the committed small-size baselines the CI bench gate
# compares against (run after an intentional perf-affecting change).
bench-baseline: build
	$(GO) run ./cmd/qgear-bench -exp tiling -json-dir bench/baseline

# The CI bench-regression gate: rerun the small-size ablation and fail
# if speedup regresses >20% vs bench/baseline, or if bit-identity
# (max |Δp| = 0, identical fixed-seed counts) is ever violated.
bench-gate: build
	$(GO) run ./cmd/qgear-bench -exp tiling -json-dir $(BENCH_OUT) \
		-gate-baseline bench/baseline -gate-tol 0.20

# Serving smoke load: 100 clients each submit one distinct GHZ-16
# circuit twice, so the second round is served from the result cache.
bench-serve: build
	$(GO) run ./cmd/qgear-bench load -clients 100 -requests 2 -qubits 16 -expect-every 0

# CI service load check: 50 clients of mixed simulate/expectation HTTP
# load through an embedded server with a deliberately tight byte budget
# and a live store, so eviction, spill, and store-hit paths all run
# under real concurrency. -require-metrics makes it the observability
# gate too: the run fails when /metrics is missing a required family or
# the scraped counters disagree with /v1/stats. The percentile report
# lands in $(BENCH_OUT)/BENCH_load.json for artifact upload.
ci-load: build
	rm -rf $(WARMSTART_DIR)-load
	mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/qgear-bench load -clients 50 -requests 6 -qubits 14 \
		-shots 64 -expect-every 3 \
		-max-cache-bytes 2097152 -store-dir $(WARMSTART_DIR)-load \
		-require-metrics -out $(BENCH_OUT)/BENCH_load.json

# Workers-axis scaling smoke: the lane-kernel bit-identity fuzz suites
# and the multi-worker tiled ablation path, race-enabled and uncached.
# Worker count must never change an amplitude bit — the correctness
# half of the scaling gate (timing is gated by bench-gate, single-core,
# where host core counts cannot skew it).
ci-scaling: build
	$(GO) test -race -count=1 -run 'BitIdentity|TiledGateSoup|MaskedNorm2' \
		./internal/statevec/ ./internal/kernel/
	$(GO) test -race -count=1 -run 'TestTilingAblation' ./internal/bench/

# Chaos acceptance: the seeded fault-injection suite, race-enabled.
# Injected disk faults, short writes, execution panics, and tight
# deadlines must leave the server serving, quarantines firing, fallback
# re-simulations bit-identical, and no job hung — the hardened-serving
# invariants, checked deterministically.
ci-chaos: build
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/service/

# Sweep acceptance: the compile-once property under race detection.
# The differential suites prove per-point sweep values bit-identical to
# individually-submitted jobs on all four engines (backend layer) and
# through the full service path; the 1000-point acceptance run proves a
# 1k-point TFIM sweep — plus the same 1k points resubmitted as
# individual expectation jobs — costs exactly one plan compile, via the
# plan-cache counters of /v1/stats.
ci-sweep: build
	$(GO) test -race -count=1 -run 'TestRunSweep|TestRunGradient|TestPlanBind|TestStructuralFingerprint' \
		./internal/backend/ ./internal/kernel/ ./internal/circuit/
	$(GO) test -race -count=1 -run 'TestServiceSweep|TestServiceGradient|TestHTTPSweep|TestHTTPGradient|TestHTTPLongPoll' \
		./internal/service/
	QGEAR_SWEEP_ACCEPTANCE_POINTS=1000 $(GO) test -race -count=1 -v \
		-run 'TestServiceSweepCompileOnce' -timeout 20m ./internal/service/

# Bounded-store acceptance, race-enabled: the store and service suites
# covering on-disk GC, the manifest journal, sharding/migration, and
# the store-layer bugfix regressions — then the two-phase acceptance
# run: (1) 2000 concurrent saves against a tight byte budget, with the
# on-disk footprint audited against the budget after every wave and
# warm-restart survivors verified bit-identical; (2) a 10k-artifact
# store whose second Open must index everything from the manifest
# journal alone — zero ReadDir calls, proven by faultfs op counters.
# The phase report lands in $(BENCH_OUT)/BENCH_store.json.
ci-store: build
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'TestChaosStoreGCFaultingDeletes|TestChaosManifestReplayAfterKill|TestStoreAdmissionSkipsCheapResults|TestWarmRestart|TestCorruptStore' \
		./internal/service/
	mkdir -p $(BENCH_OUT)
	QGEAR_STORE_ACCEPTANCE_N=10000 QGEAR_STORE_STATS_OUT=$(BENCH_OUT)/BENCH_store.json \
		$(GO) test -race -count=1 -v -run 'TestStoreAcceptance' -timeout 20m ./internal/store/

# Warm-restart acceptance: seed a store in one process, kill it, and
# verify from a second process that repeat submissions are store hits
# with bit-identical probabilities and exact shot counts.
ci-warmstart: build
	rm -rf $(WARMSTART_DIR)
	$(GO) run ./cmd/qgear-serve warmstart -phase seed -store-dir $(WARMSTART_DIR)
	$(GO) run ./cmd/qgear-serve warmstart -phase verify -store-dir $(WARMSTART_DIR)

clean:
	$(GO) clean ./...
