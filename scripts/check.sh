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

echo "== scale-tier set-up, comparison-kernel, scheduling-epoch and reclaim-plan benchmarks, once (they compile and run; the MCKP kernels, the epoch and the plan print their allocs/op)"
go test -run NONE -bench 'BenchmarkFullSchedule|BenchmarkClone' -benchtime 1x ./internal/fault/ ./internal/trace/
go test -run NONE -bench 'BenchmarkForecasterFit|BenchmarkPolluxGA' -benchtime 1x ./internal/orchestrator/ ./internal/alloc/
go test -run NONE -bench 'BenchmarkMultiChoice|BenchmarkPhase2' -benchtime 1x -benchmem ./internal/knapsack/ ./internal/alloc/
go test -run NONE -bench 'BenchmarkMakeRoom|BenchmarkEpoch' -benchtime 1x -benchmem ./internal/sched/
go test -run NONE -bench BenchmarkReclaimPlan -benchtime 1x -benchmem ./internal/reclaim/

echo "== smoke (the real binaries end to end: scripts/smoke.sh lists the cases)"
./scripts/smoke.sh

echo "OK"
