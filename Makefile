GO ?= go

.PHONY: all check fmt vet build test race bench smoke fuzz

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

# smoke drives the real binaries end to end (scripts/smoke.sh lists the
# cases: bench, events, fault, matrix, prof, shard, trace). `make smoke`
# runs all of them, `make smoke CASE=fault` one.
smoke:
	@./scripts/smoke.sh $(CASE)

# bench runs the audit-overhead benchmark (audit off: the numbers quoted in
# DESIGN.md come from BenchmarkEngineAudit) and the one-second loops of the
# phase-2 kernels: the MCKP solve at the paper's and at prod-ideal's median
# instance size (warm Solver, fresh, reference DP) and alloc.Phase2 around it,
# and of best-fit placement: a 1-GPU worker (lands on a server hosting work)
# and a whole-server worker (falls through to the idle servers) at 1x, 10x and
# 100x the paper's cluster, which must read flat across the three; and of the
# scale tier's set-up: the fault timeline of its 108,338 streams and the clone
# of its 223,777-job trace (allocs/op is the number to watch on both); and
# of the two comparison kernels a registry pass pays for: the §6 LSTM fit
# behind the proactive forecaster (allocs/op should read a few hundred, all
# in NewLSTM) and one Pollux search at its 300-candidate cap; and one
# make-room round trip at the paper's scale (a scale-in for a waiting 8-GPU
# gang over the flexible-server index, then phase 2's apply restoring it).
bench:
	$(GO) test -run NONE -bench BenchmarkEngineAudit -benchtime 10x ./internal/sim/
	$(GO) test -run NONE -bench 'BenchmarkMultiChoice|BenchmarkPhase2' -benchmem ./internal/knapsack/ ./internal/alloc/
	$(GO) test -run NONE -bench BenchmarkBestFit -benchmem ./internal/place/
	$(GO) test -run NONE -bench 'BenchmarkFullSchedule|BenchmarkClone' -benchmem ./internal/fault/ ./internal/trace/
	$(GO) test -run NONE -bench 'BenchmarkForecasterFit|BenchmarkPolluxGA' -benchmem ./internal/orchestrator/ ./internal/alloc/
	$(GO) test -run NONE -bench BenchmarkMakeRoom -benchmem ./internal/sched/

# fuzz runs every Fuzz* target of every package for a minute each, beyond
# the seed corpora that already run under `make test`.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s $$pkg || exit 1; \
		done; \
	done
