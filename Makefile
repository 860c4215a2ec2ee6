# BlockPilot CI entry points. `make ci` is what the tier-1 gate runs:
# vet + build + full test suite + race detector on the concurrency-heavy
# packages (OCC-WSI core, MV-STM engine, mempool, pipeline, network, sim,
# telemetry, flight recorder, health recorder) + the flight-recorder,
# block-tracer and health-recorder disabled-path budget gates + a live
# health-sampler smoke (health-smoke)
# + a short-mode smoke of the contention benchmark suite + the
# contention-adaptive scheduler smoke (adaptive-smoke) + the
# cluster-simulator scenario matrix with its mutation self-check and span-chain
# oracle (sim-smoke) + the disk-backed state persistence battery at 500k
# accounts (state-smoke) + a short corpus pass over the fuzz targets
# (fuzz-smoke).
# See docs/TESTING.md for the oracle definitions, the scenario matrix, and
# seed-replay instructions.
#
# `make bench` records the performance baseline: the contention suite
# (striped vs single-lock MVState, mempool batching, end-to-end Propose)
# written to BENCH_proposer.json, the validator wall-clock suite written to
# BENCH_validator.json, the state-commit suite (parallel commit & Merkle root
# hashing vs the serial tail) written to BENCH_state.json, plus the Go
# micro-benchmarks with -benchmem. `make bench-check` re-records the suites
# and fails when a headline metric regressed >15% vs the committed baselines.
# See docs/PERFORMANCE.md for methodology.
#
# `make trace-demo` runs a short skewed workload with the flight recorder on
# and leaves trace.json (open at https://ui.perfetto.dev) plus the hot-key
# attribution report on stdout. See docs/OBSERVABILITY.md.

GO ?= go

.PHONY: all ci vet build test race race-all flight-budget trace-budget health-budget health-smoke bench-smoke adaptive-smoke sim-smoke state-smoke fuzz-smoke bench bench-go bench-state bench-check telemetry-bench flight-bench trace-demo crit-demo health-demo clean

all: ci

ci: vet build test race flight-budget trace-budget health-budget health-smoke bench-smoke adaptive-smoke sim-smoke state-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/adaptive/... ./internal/core/... ./internal/mv/... ./internal/mempool/... ./internal/pipeline/... ./internal/network/... ./internal/telemetry/... ./internal/flight/... ./internal/trace/... ./internal/health/... ./internal/trie/... ./internal/trie/store/... ./internal/state/...

# Race detector over the *entire* module, cluster simulator included. Slower
# than `race`; run before merging concurrency changes.
race-all:
	$(GO) test -race ./...

# The flight recorder's zero-cost gate: with no recorder installed the
# hot-path helpers must stay within the ns budget and allocate nothing.
flight-budget:
	$(GO) test -run TestDisabledPathBudget -count=1 ./internal/flight/ ./internal/telemetry/

# The block tracer's zero-cost gate: with no collector installed every
# tracing helper must stay one atomic load, 0 allocs, under the ns budget.
trace-budget:
	$(GO) test -run TestDisabledPathBudget -count=1 ./internal/trace/

# The health recorder's zero-cost gate: with no recorder installed the
# Heartbeat/Enabled/Active helpers must stay one atomic load, 0 allocs,
# under the ns budget.
health-budget:
	$(GO) test -run TestDisabledPathBudget -count=1 ./internal/health/

# Live end-to-end pass of the health recorder: a real sampler at a fast
# interval over actual runtime metrics, heartbeats flowing through the
# enabled path.
health-smoke:
	$(GO) test -short -count=1 -run TestHealthSmoke ./internal/health/

# Short-mode pass over the contention + state-commit suites (every code
# path, seconds of runtime, no artifact written) plus the MV-STM engine
# smoke: one mixed block through the Block-STM proposer, serializability
# checked against a serial replay.
bench-smoke:
	$(GO) test -short -run 'TestContentionSmoke|TestStateCommitSmoke' ./internal/bench/
	$(GO) test -short -count=1 -run 'TestMVSmoke' ./internal/core/

# Contention-adaptive scheduler gate: the serial-lane / commutative-merge
# torture (three chained hotspot blocks per engine, serializability-checked
# against a serial replay) plus the short adaptive smoke, both engines.
adaptive-smoke:
	$(GO) test -count=1 -run 'TestAdaptiveLaneTorture|TestAdaptiveSmoke' ./internal/core/
	$(GO) test -count=1 ./internal/adaptive/

# Cluster-simulator gate: every fault scenario (9) at 4 seeds under BOTH
# proposer engines (TestScenarioMatrix = occ-wsi, TestScenarioMatrixMVSTM =
# mv-stm, TestScenarioMatrixAdaptive = both engines with the contention
# controller attached), all five oracles checked per run (serializability,
# parity, pipeline-safety, corruption-detection, span-chain completeness),
# digest-determinism double-runs, and the seeded-bug mutation self-check.
# A failing run prints `bpbench -exp sim -scenario S -seed N -engine E [-adaptive]` to
# replay it exactly.
sim-smoke:
	$(GO) test -count=1 -run 'TestScenarioMatrix|TestDigestDeterminism|TestMutationSelfCheck|TestTraceSpansComplete' ./internal/sim/

# Short corpus pass over the property fuzz targets: a few seconds of input
# generation per target, enough to exercise the generators and seed corpora
# without the open-ended fuzzing budget (see docs/TESTING.md for long runs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTrieBatchVsUpdate -fuzztime 3s ./internal/trie/
	$(GO) test -run '^$$' -fuzz FuzzBlockProfileRoundTrip -fuzztime 3s ./internal/types/
	$(GO) test -run '^$$' -fuzz FuzzMempoolAdmit -fuzztime 3s ./internal/mempool/
	$(GO) test -run '^$$' -fuzz FuzzMVVersionChain -fuzztime 3s ./internal/mv/
	$(GO) test -run '^$$' -fuzz FuzzNodeStore -fuzztime 3s ./internal/trie/store/
	$(GO) test -run '^$$' -fuzz FuzzKeccakSponge -fuzztime 3s ./internal/crypto/

# Disk-backed state gate: the persistence battery's CI short-mode scale run —
# a 500k-account chunked genesis plus chained block commits with pruning,
# bounded-heap asserted, final root reopen-verified. The full 5M-account
# acceptance run is the same test at BLOCKPILOT_SCALE_ACCOUNTS=5000000.
state-smoke:
	BLOCKPILOT_SCALE_ACCOUNTS=500000 $(GO) test -count=1 -timeout 30m -run 'TestDiskStateScale' ./internal/bench/
	$(GO) test -count=1 -run 'TestDiskStateSmoke|TestDiskSnapshotParity|TestCrashRecoveryEveryOffset' ./internal/bench/ ./internal/state/ ./internal/trie/store/

# Full baseline: contention suite -> BENCH_proposer.json, validator suite ->
# BENCH_validator.json, state-commit suite -> BENCH_state.json, then the Go
# micro-benchmarks (allocation counts via -benchmem).
bench: bench-go
	$(GO) run ./cmd/bpbench -exp contention -telemetry-report=false -bench-out BENCH_proposer.json
	$(GO) run ./cmd/bpbench -exp validator -telemetry-report=false -bench-out BENCH_validator.json
	$(GO) run ./cmd/bpbench -exp state -telemetry-report=false -bench-out BENCH_state.json

# Bench regression gate: re-record the three suites into a scratch dir and
# diff their headline metrics (best commits/s and txs/s per workload, best
# commits/s per (workload, engine) of the OCC-WSI vs MV-STM ablation —
# notably the MV-STM Zipfian row — state-commit speedup) against the
# committed BENCH_*.json baselines with cmd/benchdiff, failing when one
# regressed more than BENCH_THRESHOLD.
BENCH_THRESHOLD ?= 0.15
bench-check:
	@mkdir -p .bench-check
	$(GO) run ./cmd/bpbench -exp contention -telemetry-report=false -bench-out .bench-check/BENCH_proposer.json
	$(GO) run ./cmd/bpbench -exp validator -telemetry-report=false -bench-out .bench-check/BENCH_validator.json
	$(GO) run ./cmd/bpbench -exp state -telemetry-report=false -bench-out .bench-check/BENCH_state.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) \
		BENCH_proposer.json .bench-check/BENCH_proposer.json \
		BENCH_validator.json .bench-check/BENCH_validator.json \
		BENCH_state.json .bench-check/BENCH_state.json

# State-commit suite alone (the commit & root-hash tail across worker
# counts): writes BENCH_state.json.
bench-state:
	$(GO) run ./cmd/bpbench -exp state -telemetry-report=false -bench-out BENCH_state.json

bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/bench/ ./internal/scheduler/ ./internal/mempool/ ./internal/crypto/ ./internal/trie/

telemetry-bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/telemetry/

flight-bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/flight/

# Flight-recorder walkthrough: a short Zipfian (hotspot) workload with the
# recorder enabled; writes trace.json and prints the hot-key report.
trace-demo:
	$(GO) run ./cmd/bpinspect hotkeys -blocks 3 -threads 8 -swap-ratio 0.85 -pairs 3 -trace-out trace.json

# Critical-path walkthrough: the block lifecycle tracer over the default and
# hotspot workloads; prints per-block waterfalls and the stall-attribution
# summary (see docs/OBSERVABILITY.md).
crit-demo:
	$(GO) run ./cmd/bpinspect crit -blocks 4 -threads 8
	$(GO) run ./cmd/bpinspect crit -blocks 4 -threads 8 -swap-ratio 0.85 -pairs 3

# Runtime-health walkthrough: sparkline time series + watchdog incident
# history over a short local run (see docs/OBSERVABILITY.md).
health-demo:
	$(GO) run ./cmd/bpinspect health -blocks 4 -threads 8

clean:
	$(GO) clean ./...
