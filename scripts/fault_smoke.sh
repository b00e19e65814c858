#!/bin/sh
# fault_smoke.sh proves the fault layer's robustness contract end to end
# through the real binaries: a crash-heavy simulator run and a crash-heavy
# testbed run, both with -audit and -events, must exit 0 (no job lost, no
# invariant violation), report recoveries, and record the new fault event
# kinds in the stream. The simulator leg is additionally run twice: faulted
# streams are part of the byte-determinism contract (DESIGN.md §8).
set -eu
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== fault-smoke: building lyra-sim and lyra-testbed"
go build -o "$dir/lyra-sim" ./cmd/lyra-sim
go build -o "$dir/lyra-testbed" ./cmd/lyra-testbed

# Crash-heavy: per-server MTBF of 4 hours over 2 days means dozens of
# crashes across 16 servers, plus stragglers.
plan="mtbf=14400,mttr=600,straggler=0.1"

run_sim() {
	"$dir/lyra-sim" -scheme lyra -days 2 -training-servers 8 -inference-servers 8 \
		-seed 7 -faults "$plan" -audit -events "$1"
}

echo "== fault-smoke: crash-heavy simulator run (audit on)"
run_sim "$dir/a.jsonl" > "$dir/sim.out"
cat "$dir/sim.out"

recoveries=$(sed -n 's/^faults .*recoveries=\([0-9][0-9]*\).*/\1/p' "$dir/sim.out")
if [ -z "$recoveries" ] || [ "$recoveries" -eq 0 ]; then
	echo "fault-smoke FAILED: simulator reported no recoveries" >&2
	exit 1
fi
for kind in fault.crash fault.recover job.restart; do
	if ! grep -q "\"kind\":\"$kind\"" "$dir/a.jsonl"; then
		echo "fault-smoke FAILED: no $kind events in the stream" >&2
		exit 1
	fi
done
echo "simulator recovered $recoveries times, all fault kinds present"

echo "== fault-smoke: same faulted scenario twice (determinism)"
run_sim "$dir/b.jsonl" >/dev/null
if ! cmp -s "$dir/a.jsonl" "$dir/b.jsonl"; then
	echo "fault-smoke FAILED: two identical faulted runs diverged" >&2
	exit 1
fi
echo "faulted streams identical ($(wc -l < "$dir/a.jsonl") events)"

echo "== fault-smoke: correlated rack outages (domain plan, audit on)"
go build -o "$dir/lyra-events" ./cmd/lyra-events
# One rack = 8 servers at the default rack size, so with 8 training servers
# a rack outage craters the whole training pool at once — the harshest
# restart-storm shape. Zero lost jobs and two-process byte-determinism are
# both contractual.
domain_plan="mtbf=43200,mttr=600,rackout=21600,rackmttr=900"
run_domain() {
	"$dir/lyra-sim" -scheme lyra -days 2 -training-servers 8 -inference-servers 8 \
		-seed 7 -faults "$domain_plan" -audit -events "$1"
}
run_domain "$dir/d1.jsonl" > "$dir/dom.out"
cat "$dir/dom.out"
submitted=$(sed -n 's/^jobs: \([0-9][0-9]*\) submitted.*/\1/p' "$dir/dom.out")
completed=$(sed -n 's/^jobs: .* \([0-9][0-9]*\) completed.*/\1/p' "$dir/dom.out")
if [ -z "$submitted" ] || [ "$submitted" != "$completed" ]; then
	echo "fault-smoke FAILED: rack outages lost jobs ($completed/$submitted completed)" >&2
	exit 1
fi
if ! grep -q '"kind":"fault.domain"' "$dir/d1.jsonl"; then
	echo "fault-smoke FAILED: no fault.domain events in the stream" >&2
	exit 1
fi
run_domain "$dir/d2.jsonl" >/dev/null
if ! "$dir/lyra-events" -diff "$dir/d1.jsonl" "$dir/d2.jsonl"; then
	echo "fault-smoke FAILED: two identical rack-outage runs diverged" >&2
	exit 1
fi
echo "== fault-smoke: lyra-events -faults summary"
"$dir/lyra-events" -faults "$dir/d1.jsonl"
echo "rack outages lost no jobs ($completed/$submitted), streams identical across two processes"

echo "== fault-smoke: crash-heavy testbed run (audit on)"
"$dir/lyra-testbed" -scheme lyra -jobs 30 -speedup 20000 -seed 7 \
	-faults "mtbf=7200,mttr=300,launchfail=0.1" \
	-audit -events "$dir/tb.jsonl" > "$dir/tb.out"
cat "$dir/tb.out"
tb_recoveries=$(sed -n 's/^faults .*recoveries=\([0-9][0-9]*\).*/\1/p' "$dir/tb.out")
if [ -z "$tb_recoveries" ] || [ "$tb_recoveries" -eq 0 ]; then
	echo "fault-smoke FAILED: testbed reported no recoveries" >&2
	exit 1
fi
echo "testbed recovered $tb_recoveries times"

echo "== fault-smoke: a fault key the testbed cannot honour is an error, not a no-op"
if "$dir/lyra-testbed" -jobs 4 -faults rpcerr=0.02 > /dev/null 2> "$dir/bad.err" || ! grep -q 'valid: mtbf, .*launchfail, retries, seed' "$dir/bad.err"; then
	echo "fault-smoke FAILED: -faults rpcerr=0.02 did not fail with the valid-key list:" >&2
	cat "$dir/bad.err" >&2
	exit 1
fi

echo "fault-smoke OK"
