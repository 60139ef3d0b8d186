# Tier-1: the build and full test suite (the seed gate).
.PHONY: test
test:
	go build ./... && go test ./...

# Tier-1.5: concurrency hygiene, observability, fault-containment, and
# serving gates — vet everything, run the worker-pool, compile-cache,
# shared-program, fault, observability, preprocessor and server packages
# under the race detector (the compile cache's single-flight must never
# hand a contained panic to the callers parked on it; the preprocessor's
# shared header tokens must stay read-only with 8 goroutines expanding
# them), fail if the nil-observer step path or a one- or two-operand
# scheduling point allocates, fail if preprocessing a Juliet-shaped unit
# or compiling a unit of nothing but the stdio/stdlib/string headers
# exceeds its allocation ceiling, fail if running that unit costs more
# than 2 allocations over an empty main (the headers' function
# designators must cost a run nothing) or the setDenom order search on
# one worker exceeds its allocation ceiling, fail if starting a span
# without a collector installed allocates, smoke-run the
# observer-overhead and span-overhead benchmarks, exercise the end-to-end
# containment gate (a panic injected at every site, at -j 1, 2 and 8,
# must fail exactly one cell and never crash the suite), replay the fuzz
# seed corpora — FuzzPipeline's under the race detector, since it runs
# one compiled program on 8 goroutines at once and requires results
# byte-identical to a sequential run and to an observed run — and run the
# daemon lifecycle smoke test (boot on a free port, one analyze
# round-trip, SIGTERM drain). The search gates: the parallel POR explorer
# must report byte-identical outcome sets to the sequential DFS oracle on
# every suite case with choice points, and the whole search package must
# be race-clean (workers share the frontier, the POR registry and the
# dedup table). The cluster gates: the ring/breaker/failover/
# single-flight package race-clean, the router smoke (one shard + one
# router, analyze round-trip, clean SIGTERM drains), and the chaos gate
# — 3 real shard processes behind the router, 1% injected forward
# faults, one shard SIGKILLed mid-load and restarted, auditing zero
# client-visible crashes, exact verdict-counter agreement (client ==
# router delivered == per-instance shard counters), drained queues, a
# full breaker open → half-open → closed cycle, that the router's
# cross-node single-flight coalesced duplicate compiles, and that the
# restarted shard recompiles a pre-kill key exactly once to the same
# verdict. The observability gates on top: the UB coverage hot path
# (evaluated/fired counters on every check site) must not allocate, and
# the chaos run finishes by SIGKILLing a shard under a pinned trace id
# and asserting GET /v1/trace/{id} assembles one Chrome trace with the
# router's failed forward + backoff spans and spans from the surviving
# shard processes.
.PHONY: check
check: test
	go vet ./...
	go test -race ./internal/runner/... ./internal/driver/... ./internal/tools/... ./internal/obs/... ./internal/fault/... ./internal/cpp/...
	go test -race ./internal/server/...
	go test -race ./internal/cluster/...
	go test ./internal/interp/ -run 'ObserverPathAllocs' -count=1
	go test ./internal/cpp/ -run 'TestPreprocessAllocs' -count=1
	go test ./internal/driver/ -run 'TestCompileHeadersAllocs|TestRunHeadersAllocs' -count=1
	go test ./internal/search/ -run 'TestOrderSearchAllocs' -count=1
	go test ./internal/obs/ -run 'SpanNoCollector' -count=1
	go test ./internal/obs/ -run 'TestCoverageLedgerAllocs' -count=1
	go test ./internal/interp/ -run '^$$' -bench BenchmarkObserverOverhead -benchtime 100x
	go test ./internal/obs/ -run '^$$' -bench BenchmarkSpanOverhead -benchtime 100x
	go test ./cmd/ubsuite/ -run TestContainmentGate -count=1
	go test ./internal/lexer/ ./internal/parser/ ./internal/cpp/ -run '^Fuzz' -count=1
	go test -race ./internal/interp/ -run '^FuzzPipeline$$' -count=1
	go test ./cmd/undefd/ -run 'TestDaemonSmoke|TestRouterSmoke' -count=1
	go test ./internal/search/ -run 'TestDifferentialGate|TestExploreConfigMatrix' -count=1
	go test -race ./internal/search/ -count=1
	go run ./cmd/undefbench -cluster 3 -kill 1 -c 12 -d 6s -inject 'cluster.forward=error%0.01' -seed 1

# Fuzz smoke: 30s of coverage-guided fuzzing per frontend stage, for the
# whole pipeline (FuzzPipeline: frontend + interpreter), and for the
# search. New crashers land in testdata/fuzz/ and become permanent
# regression seeds.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/lexer/ -run=NONE -fuzz=FuzzLexer -fuzztime 30s
	go test ./internal/parser/ -run=NONE -fuzz=FuzzParser -fuzztime 30s
	go test ./internal/cpp/ -run=NONE -fuzz=FuzzCPP -fuzztime 30s
	go test ./internal/interp/ -run=NONE -fuzz=FuzzPipeline -fuzztime 30s
	go test ./internal/search/ -run=NONE -fuzz=FuzzExploreDiff -fuzztime 30s

# Serving throughput: a 10s closed-loop load run against an in-process
# undefd service (reported in EXPERIMENTS.md). Exits non-zero if the
# daemon dies, the /metrics counters disagree with the client tally, or
# the admission queue fails to drain.
.PHONY: bench-serve
bench-serve:
	go run ./cmd/undefbench -spawn -c 16 -d 10s

# Exploration serving: the same closed loop against the streamed
# /v1/explore, auditing every response's NDJSON frames and the explore
# counters (reported in EXPERIMENTS.md).
.PHONY: bench-explore
bench-explore:
	go run ./cmd/undefbench -spawn -explore -c 16 -d 10s

# Cluster chaos benchmark: a longer kill-shards-under-load run (reported
# in EXPERIMENTS.md) — 3 shard processes + router, one SIGKILL + restart
# mid-load, 1% injected forward faults, full invariants audit.
.PHONY: bench-cluster
bench-cluster:
	go run ./cmd/undefbench -cluster 3 -kill 1 -c 16 -d 15s -inject 'cluster.forward=error%0.01' -seed 1

# Fuller observability benchmark (reported in EXPERIMENTS.md).
.PHONY: bench-obs
bench-obs:
	go test ./internal/interp/ -run '^$$' -bench BenchmarkObserverOverhead -benchtime 1s -count 3

# Tracing demo: run the Figure 2 suite with span collection on and write
# trace.json — Chrome trace-event JSON that loads directly in
# chrome://tracing or https://ui.perfetto.dev (one row per matrix cell:
# cell → compile → interp).
.PHONY: trace-demo
trace-demo:
	go run ./cmd/ubsuite -suite juliet -trace-out trace.json

# Regenerate the paper's evaluation figures (parallel by default; see -j).
.PHONY: figures
figures:
	go run ./cmd/ubsuite -suite juliet
	go run ./cmd/ubsuite -suite own
	go run ./cmd/ubsuite -catalog

.PHONY: bench
bench:
	go test -bench=. -benchmem
