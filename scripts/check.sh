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

echo "== doc budgets (DESIGN.md under 60 KB and CHANGES.md under 30 KB; history moves verbatim to results/)"
for budget in DESIGN.md:60000 CHANGES.md:30000; do
	doc=${budget%%:*} max=${budget#*:}
	size=$(wc -c <"$doc")
	if [ "$size" -ge "$max" ]; then
		echo "$doc is $size bytes, over its $max-byte budget"
		exit 1
	fi
done

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test (invariant auditor on in every suite)"
go test ./...

echo "== go test -race ./internal/..."
go test -race ./internal/...

echo "== fuzz the MCKP kernel against the reference DP and brute force, and phase 2's reused workspace against cold ones (15 s each, one worker; the corpus it grows stays in the Go build cache)"
for target in FuzzMultiChoiceAgainstReference FuzzMultiChoiceAgainstBrute; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 15s -parallel 1 ./internal/knapsack/
done
go test -run '^$' -fuzz '^FuzzIncrementalVsRescan$' -fuzztime 15s -parallel 1 ./internal/sched/

echo "== micro-benchmarks, once (scripts/bench.sh at -benchtime 1x: they compile and run and print their allocs/op and B/op)"
./scripts/bench.sh 1x

echo "== smoke (the real binaries end to end: scripts/smoke.sh lists the cases)"
./scripts/smoke.sh

echo "OK"
