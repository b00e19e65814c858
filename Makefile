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

# bench runs the engine's 300-job replay once per mode: auditor off and on
# (BenchmarkEngineAudit; audit off is the hot path DESIGN.md quotes), event
# recorder off, ring and JSONL, fault plan off and on, and span profiler off
# and on (B/op and allocs/op of every off case must match), and the same
# day with every job elastic under a scheduler that rescales each running
# job every epoch (BenchmarkEngineElastic: each rescale moves a finish
# event in the timeline); then the
# one-second loops of the phase-2 kernels: the MCKP solve at the paper's and at prod-ideal's median
# instance size (warm Solver, fresh, reference DP) and alloc.Phase2 around it,
# and of best-fit placement: a 1-GPU worker (lands on a server hosting work)
# and a whole-server worker (falls through to the idle servers) at 1x, 10x and
# 100x the paper's cluster, which must read flat across the three, and a gang
# of whole servers one larger than the idle ones (the nofit rows: the walk
# visits every idle server, grows with the scale and allocates nothing, and
# no GPU is allocated and released again); and of the
# scale tier's set-up: the fault timeline of its 108,338 streams and the clone
# of its 223,777-job trace (allocs/op is the number to watch on both), and,
# once, its 96,300-server cluster (allocs/op counts chunks, not servers); and
# of the comparison kernels a registry pass pays for: the §6 LSTM fit
# behind the proactive forecaster (allocs/op should read a few hundred, all
# in NewLSTM), one Pollux search at its 300-candidate cap and one warm AFS
# call over 354 elastic jobs (both read 0 allocs/op once warm); and one
# make-room round trip at the paper's scale (a scale-in for a waiting 8-GPU
# gang over the flexible-server index, then phase 2's apply restoring it);
# and one whole warm Lyra epoch at that scale with make-room and scale-outs
# firing (its fixture is rebuilt with the timer stopped, so the loop takes
# ~10 s; allocs/op is the number TestEpochAllocationBudget pins); and one
# Lyra reclaim plan at prod-basic's median shape (BenchmarkReclaimPlan: 94
# on-loan candidates, 7 servers asked for); and a fresh one-worker runner
# pool running twelve differently mixed specs over one small trace
# (BenchmarkPoolSim: B/op counts every copy of the trace a run makes, one
# per executed spec); and one whole lyra.Run of the capped, faulted 100x
# tier (the root BenchmarkEpoch/100x-faulted, -short: B/op counts only the
# jobs that can arrive before MaxTime).
bench:
	$(GO) test -run NONE -bench 'BenchmarkEngineAudit|BenchmarkEngineEvents|BenchmarkEngineFaults|BenchmarkEngineProf|BenchmarkEngineElastic' -benchtime 1x -benchmem ./internal/sim/
	$(GO) test -run NONE -bench 'BenchmarkMultiChoice|BenchmarkPhase2' -benchmem ./internal/knapsack/ ./internal/alloc/
	$(GO) test -run NONE -bench BenchmarkBestFit -benchmem ./internal/place/
	$(GO) test -run NONE -bench 'BenchmarkFullSchedule|BenchmarkClone' -benchmem ./internal/fault/ ./internal/trace/
	$(GO) test -run NONE -bench BenchmarkClusterNew -benchtime 1x -benchmem ./internal/cluster/
	$(GO) test -run NONE -bench 'BenchmarkForecasterFit|BenchmarkPolluxGA|BenchmarkAFS' -benchmem ./internal/orchestrator/ ./internal/alloc/
	$(GO) test -run NONE -bench 'BenchmarkMakeRoom|BenchmarkEpoch' -benchmem ./internal/sched/
	$(GO) test -run NONE -bench BenchmarkReclaimPlan -benchmem ./internal/reclaim/
	$(GO) test -run NONE -bench BenchmarkPoolSim -benchmem ./internal/runner/
	$(GO) test -run NONE -bench '^BenchmarkEpoch$$/^100x-faulted$$' -short -benchtime 1x -benchmem .

# fuzz runs every Fuzz* target of every package for a minute each, beyond
# the seed corpora that already run under `make test`.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s $$pkg || exit 1; \
		done; \
	done
