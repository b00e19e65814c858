GO ?= go

.PHONY: all check fmt vet build test race bench bench-smoke events-smoke fault-smoke matrix-smoke prof-smoke shard-smoke fuzz

all: check

# check is the default gate. scripts/check.sh is the one list of gates
# (formatting, vet, build, the full test suite, the race detector over the
# internal packages and the smoke tests); the targets below run one gate
# each. Performance is measured by the repository benchmark (BENCHMARK.json,
# benchmark/README.md), not here.
check:
	@./scripts/check.sh

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# bench-smoke proves the experiment runner's memoization end to end: one
# experiment run twice through one pool must serve the second pass from the
# cache (Hits > 0, no extra simulations executed).
bench-smoke:
	@./scripts/bench_smoke.sh

# events-smoke proves the event-stream determinism contract through the real
# binaries: one scenario run twice with -events must record byte-identical
# JSONL, and lyra-events must reconstruct a complete job lifecycle from it.
events-smoke:
	@./scripts/events_smoke.sh

# fault-smoke proves the fault layer end to end: crash-heavy simulator and
# testbed runs with -audit -events must exit 0 with zero lost jobs, report
# recoveries, and (simulator) stay byte-deterministic under faults.
fault-smoke:
	@./scripts/fault_smoke.sh

# matrix-smoke proves the declarative scenario harness end to end: the
# shipped pack (testdata/scenarios/) dry-compiles, the smoke spec's
# scenario×scheme matrix meets its SLO assertions through the real
# lyra-matrix binary, and the same matrix with bounds tightened 100x fails
# with the violations spelled out (the gate demonstrably can fail).
matrix-smoke:
	@./scripts/matrix_smoke.sh

# prof-smoke proves the span profiler end to end through lyra-sim: -prof
# attributes >= 90% of wall time to named phases, -trace emits valid Chrome
# trace-event JSON, and turning profiling on leaves the deterministic
# -events stream byte-identical.
prof-smoke:
	@./scripts/prof_smoke.sh

# shard-smoke proves the sharded multi-cluster engine (DESIGN.md §14) end
# to end: a 4-shard audited run is byte-deterministic across two processes
# (lyra-events -diff over concurrent shard goroutines), and a saturated
# topology forces the arbitrator's loan-conflict retry path with the
# cross-shard conservation auditor on.
shard-smoke:
	@./scripts/shard_smoke.sh

# bench runs the audit-overhead benchmark (audit off: the numbers quoted in
# DESIGN.md come from BenchmarkEngineAudit) and the one-second loops of the
# phase-2 kernels: the MCKP solve at the paper's and at prod-ideal's median
# instance size (warm Solver, fresh, reference DP) and alloc.Phase2 around it,
# and of best-fit placement: a 1-GPU worker (lands on a server hosting work)
# and a whole-server worker (falls through to the idle servers) at 1x, 10x and
# 100x the paper's cluster, which must read flat across the three.
bench:
	$(GO) test -run NONE -bench BenchmarkEngineAudit -benchtime 10x ./internal/sim/
	$(GO) test -run NONE -bench 'BenchmarkMultiChoice|BenchmarkPhase2' -benchmem ./internal/knapsack/ ./internal/alloc/
	$(GO) test -run NONE -bench BenchmarkBestFit -benchmem ./internal/place/

# fuzz runs every Fuzz* target of every package for a minute each, beyond
# the seed corpora that already run under `make test`.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s $$pkg || exit 1; \
		done; \
	done
