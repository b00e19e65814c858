#!/bin/sh
# check.sh is the repository's full verification gate; `make check` and CI
# both run it.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test (invariant auditor on in every suite)"
go test ./...

echo "== go test -race ./internal/..."
go test -race ./internal/...

echo "== bench-smoke (runner memoization end to end)"
./scripts/bench_smoke.sh

echo "== events-smoke (event-stream determinism end to end)"
./scripts/events_smoke.sh

echo "== fault-smoke (fault injection + recovery end to end)"
./scripts/fault_smoke.sh

echo "== matrix-smoke (declarative scenario specs + SLO gating end to end)"
./scripts/matrix_smoke.sh

echo "== prof-smoke (span profiler + Chrome trace end to end)"
./scripts/prof_smoke.sh

echo "== shard-smoke (sharded engine: determinism + loan-conflict path end to end)"
./scripts/shard_smoke.sh

echo "OK"
