GO ?= go

.PHONY: all check fmt vet build test race bench smoke fuzz

all: check

# check is the default gate. scripts/check.sh is the one list of gates
# (formatting, vet, build, the full test suite, the race detector over the
# internal packages, 15 s of each MCKP fuzz target and of
# FuzzIncrementalVsRescan, which drives phase 2's reused workspace through
# sched.Lyra against cold ones, and the smoke tests); the targets below run
# one gate each. Performance is measured by the repository
# benchmark (BENCHMARK.json, benchmark/README.md), not here.
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

# bench runs scripts/bench.sh, the one list of micro-benchmarks, each at
# its own -benchtime; the script says what each line shows.
bench:
	@./scripts/bench.sh

# fuzz runs every Fuzz* target of every package for a minute each, beyond
# the seed corpora that already run under `make test`.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s $$pkg || exit 1; \
		done; \
	done
