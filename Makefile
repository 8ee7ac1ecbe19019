GO ?= go

.PHONY: build test vet lint race chaos smoke fuzz mvbench bench bench-engine bench-solver check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: the stock vet passes, then the repository contracts —
# the five analyzers maporder, ctxloop, frozenmut, sentinelwrap and
# faultpoint (checked against their golden fixtures, then run over every
# package with its tests), the context, dead-export and gofmt rules — which
# are plain tests in internal/contracts and so also run under `make test`.
# See README "Static analysis" for the contract catalog and the
# lint:ignore grammar.
lint:
	$(GO) vet ./...
	$(GO) test ./internal/contracts

# Race-enabled tests of the concurrent layers: the parallel refinement
# engine, sharded product generation (the compose differential tests
# force the multi-worker path), the pipeline package (root), the CSR
# sweep kernels, the solvers sharding them across workers, the serving
# layer (queue workers + singleflight cache), and the metrics registry
# (lock-free counters/histograms hammered concurrently with scrapes), and
# the process generator (concurrent calls on one shared System). The
# worker-count invariance tests (markov TestWorkerCountNeverChangesResult,
# root TestWorkerCountNeverChangesMeasures, serve
# TestServeCacheHitIndependentOfWorkers) run here at 0, 1 and 4 workers.
race:
	$(GO) test -race . ./internal/bisim ./internal/sparse ./internal/compose ./internal/markov ./internal/imc ./internal/serve ./internal/sweep ./internal/obs ./internal/fault ./internal/retry ./internal/process

# Fault-injection suite under the race detector: sweeps under injected
# errors/panics/latency must stay byte-identical to fault-free runs,
# interrupted sweeps must resume executing only the remaining points,
# and the worker pool must survive injected job panics. Seeds are fixed
# in the tests, so failures reproduce exactly.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestQueueFull429|TestHighWatermark|TestDrain|TestServerDrain|TestFaultAdmin|TestSweepStatus|TestSweepSSE|TestSweepRunning' ./internal/serve
	$(GO) test -race -count=1 ./internal/fault ./internal/retry

# One tiny pipeline through every CLI binary; flag regressions fail here.
smoke:
	./scripts/smoke.sh

# Short native fuzzing of the five inputs that arrive from outside: the
# .aut read/write round trip, MCL property queries, LOTOS specifications,
# fault specs and /v1/solve request bodies (decoding, validation and
# model resolution). Crashers land in the package's testdata/fuzz
# corpus; commit them with their fix.
fuzz:
	$(GO) test -run XXX -fuzz FuzzAutRoundTrip -fuzztime 10s ./internal/aut
	$(GO) test -run XXX -fuzz FuzzParseQuery -fuzztime 10s ./internal/mcl
	$(GO) test -run XXX -fuzz FuzzParseLOTOS -fuzztime 10s ./internal/lotos
	$(GO) test -run XXX -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault
	$(GO) test -run XXX -fuzz FuzzDecodeSolveRequest -fuzztime 10s ./internal/serve

# The benchmark harness is its own module (mvbench/go.mod) importing
# multival/internal/..., so the root build never compiles it: vet and
# test it here so API changes that break it fail fast.
mvbench:
	cd mvbench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark suite (one run per experiment + engine micro-benchmarks).
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# Just the state-space engine trajectory: compose-then-minimize at
# 10k/40k/100k states and parallel-vs-sequential partition refinement.
bench-engine:
	$(GO) test -run XXX -bench 'ComposeMinimize|Partition50k' -benchtime 3x .

# The solver + serving + composition trajectory: 100k-state steady
# state (CSR kernel vs the closure reference), multi-BSCC absorption via
# the adjoint SCC-block solver, uniformization, policy-iteration
# throughput bounds, the server's cold-solve vs cache-hit request
# latency, sequential vs sharded generation of the ~100k-state product,
# the 3x3 fame sweep and process-calculus generation, repeated for
# benchstat and summarized under the git-ignored .bench_build/; a ledger
# entry needs OUT_JSON=BENCH_PR<n>.json (and OUT_TXT). Pass a previous
# summary through `./scripts/bench.sh --compare BENCH_PR15.json` for a
# delta table.
bench-solver:
	./scripts/bench.sh

check: build vet test lint race chaos smoke fuzz mvbench
