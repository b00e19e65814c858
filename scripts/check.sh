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

echo "== doc paths (every backticked repository path and relative link in the docs exists)"
# Paths are looked up among tracked files, so untracked output never satisfies
# one. A path with a slash is looked up from the repository root (a link from
# its document's directory); a bare file name may be tracked anywhere.
# Absolute paths, globs and brace lists are not one repository file.
# CHANGES.md and results/ are history and may name deleted files.
missing=$(for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
	grep -oE '`[^` ]+\.(go|md|json|jsonl|sh|txt|csv)(:[0-9]+)?`' "$doc" |
		tr -d '`' | sed 's/:[0-9]*$//' | sort -u | while read -r p; do
		case $p in
		/* | *'*'* | *'{'*) ;;
		*/*) git ls-files -- "$p" | grep -q . || echo "$doc: \`$p\`" ;;
		*) git ls-files -- "$p" "*/$p" | grep -q . || echo "$doc: \`$p\`" ;;
		esac
	done
	grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//; s/#.*//; s/ .*//' | sort -u | while read -r l; do
		case $l in
		'' | http://* | https://* | mailto:*) ;;
		*) git ls-files -- "$(dirname "$doc")/$l" | grep -q . || echo "$doc: link $l" ;;
		esac
	done
done)
if [ -n "$missing" ]; then
	echo "doc paths that do not exist:"
	echo "$missing"
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

echo "== engine, scale-tier set-up (fault timeline, trace clone, cluster), comparison-kernel, best-fit placement, scheduling-epoch, reclaim-plan, runner-pool and capped scale-run benchmarks, once (they compile and run; the engine replays, the elastic one rescaling every epoch, the MCKP kernels, the LSTM fit, the Pollux search, a warm AFS call, the placements and the gang that fits nowhere, the epoch, the plan, a pool's batch of mixed runs and the capped lyra.Run print their allocs/op and B/op)"
go test -run NONE -bench 'BenchmarkEngineAudit|BenchmarkEngineEvents|BenchmarkEngineFaults|BenchmarkEngineProf|BenchmarkEngineElastic' -benchtime 1x -benchmem ./internal/sim/
go test -run NONE -bench 'BenchmarkFullSchedule|BenchmarkClone|BenchmarkClusterNew' -benchtime 1x -benchmem ./internal/fault/ ./internal/trace/ ./internal/cluster/
go test -run NONE -bench 'BenchmarkForecasterFit|BenchmarkPolluxGA|BenchmarkAFS' -benchtime 1x -benchmem ./internal/orchestrator/ ./internal/alloc/
go test -run NONE -bench 'BenchmarkMultiChoice|BenchmarkPhase2' -benchtime 1x -benchmem ./internal/knapsack/ ./internal/alloc/
go test -run NONE -bench BenchmarkBestFit -benchtime 1x -benchmem ./internal/place/
go test -run NONE -bench 'BenchmarkMakeRoom|BenchmarkEpoch' -benchtime 1x -benchmem ./internal/sched/
go test -run NONE -bench BenchmarkReclaimPlan -benchtime 1x -benchmem ./internal/reclaim/
go test -run NONE -bench BenchmarkPoolSim -benchtime 1x -benchmem ./internal/runner/
go test -run NONE -bench '^BenchmarkEpoch$/^100x-faulted$' -short -benchtime 1x -benchmem .

echo "== smoke (the real binaries end to end: scripts/smoke.sh lists the cases)"
./scripts/smoke.sh

echo "OK"
