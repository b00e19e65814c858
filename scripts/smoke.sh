#!/bin/sh
# smoke.sh drives the real binaries end to end: `smoke.sh` runs every case,
# `smoke.sh fault prof` (or `make smoke CASE=fault`) the named ones. The six
# binaries are built once; each case below is one shell function holding the
# assertions of one contract:
#
#   bench   runner memoization: a repeated experiment is served from the cache
#   events  event-stream determinism, the report's counts recounted from the
#           stream, and one job's lifecycle rebuilt from it
#   fault   crash-heavy simulator, rack-outage and testbed runs lose no job
#           and repeat byte for byte
#   matrix  the spec pack compiles, the smoke spec meets its SLOs, and the
#           gate can fail (a gate that cannot fail is not a gate)
#   prof    the span profiler attributes >= 90% and perturbs no event
#   shard   4-shard determinism across processes, the per-shard summary table,
#           and several borrowers served in one arbitration epoch
#   trace   a tracegen CSV replays through lyra-sim -trace-csv, under the
#           default scenario and under ideal, every job done
set -eu
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
sim="$dir/lyra-sim" events="$dir/lyra-events"

cur=setup
fail() {
	echo "$cur-smoke FAILED: $*" >&2
	exit 1
}

# positive N MSG: N must be a number above zero.
positive() {
	[ -n "$1" ] && [ "$1" -gt 0 ] || fail "$2"
}

# twice NAME CMD...: runs CMD -events in two separate processes (stdout of
# the first kept as NAME.out). The streams NAME.jsonl and NAME.2.jsonl and the
# two stdouts must be byte-identical, and lyra-events -diff must agree.
twice() {
	name=$1
	shift
	"$@" -events "$dir/$name.jsonl" > "$dir/$name.out"
	"$@" -events "$dir/$name.2.jsonl" > "$dir/$name.2.out"
	if ! cmp -s "$dir/$name.jsonl" "$dir/$name.2.jsonl"; then
		"$events" -diff "$dir/$name.jsonl" "$dir/$name.2.jsonl" >&2 || true
		fail "two identical $name runs recorded different streams"
	fi
	"$events" -diff "$dir/$name.jsonl" "$dir/$name.2.jsonl" > /dev/null
	cmp -s "$dir/$name.out" "$dir/$name.2.out" || fail "two identical $name runs printed different reports"
	echo "$name: streams identical across two processes ($(wc -l < "$dir/$name.jsonl") events)"
}

# kinds NAME KIND...: every KIND must occur in NAME.jsonl.
kinds() {
	name=$1
	shift
	for kind; do
		n=$(grep -c "\"kind\":\"$kind\"" "$dir/$name.jsonl" || true)
		positive "$n" "no $kind events in the $name stream"
		echo "$name: $n $kind events"
	done
}

# recovered NAME: NAME.out must report at least one recovery.
recovered() {
	cat "$dir/$1.out"
	positive "$(sed -n 's/^faults .*recoveries=\([0-9][0-9]*\).*/\1/p' "$dir/$1.out")" "$1 run reported no recoveries"
}

# counted NAME: every count NAME.out reports is the number of events of one
# kind in NAME.jsonl — the stream is the counter (DESIGN.md §7).
counted() {
	name=$1
	ev() { grep -c "\"kind\":\"$1\"" "$dir/$name.jsonl" || true; }
	got() { sed -n "s/.* $1=\([0-9][0-9]*\).*/\1/p" "$dir/$name.out"; }
	same() { [ "$2" = "$3" ] || fail "$name: the report says $1=$2, the stream counts $3"; }
	same completed "$(sed -n 's/^jobs: .* \([0-9][0-9]*\) completed.*/\1/p' "$dir/$name.out")" "$(ev job.finish)"
	same preemptions "$(got preemptions)" "$(ev job.preempt)"
	same scaling-ops "$(got scaling-ops)" "$(($(ev job.scale_up) + $(ev job.scale_down)))"
	if grep -q '^faults ' "$dir/$name.out"; then
		same crashes "$(got crashes)" "$(ev fault.crash)"
		same recoveries "$(got recoveries)" "$(ev fault.recover)"
	fi
	if grep -q '^runtime ' "$dir/$name.out"; then
		same launched "$(got launched)" "$(ev container.launch)"
		same killed "$(got killed)" "$(ev container.kill)"
		same launch-failures "$(got launch-failures)" "$(ev fault.launch)"
	fi
	echo "$name: every count in the report is the stream's"
}

smoke_bench() {
	"$dir/lyra-bench" -exp fig9 -repeat 2 -stats -stats-json "$dir/stats.json" > /dev/null
	stat() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$dir/stats.json"; }
	echo "requested=$(stat sims_requested) executed=$(stat sims_executed) hits=$(stat cache_hits)"
	positive "$(stat cache_hits)" "repeated run produced no cache hits"
	[ "$(stat sims_executed)" -lt "$(stat sims_requested)" ] ||
		fail "executed $(stat sims_executed) of $(stat sims_requested) requests; memoization saved nothing"
}

smoke_events() {
	twice plain "$sim" -scheme lyra -days 1 -training-servers 8 -inference-servers 8 -seed 7
	counted plain
	job=$(sed -n 's/.*"kind":"job.finish","job":\([0-9][0-9]*\).*/\1/p' "$dir/plain.jsonl" | head -1)
	[ -n "$job" ] || fail "no job.finish event in the stream"
	"$events" -job "$job" "$dir/plain.jsonl" | tail -1
}

smoke_fault() {
	small="-scheme lyra -days 2 -training-servers 8 -inference-servers 8 -seed 7 -audit"
	# Crash-heavy: a per-server MTBF of 4 hours over 2 days is dozens of
	# crashes across 16 servers, plus stragglers.
	twice crashes "$sim" $small -faults "mtbf=14400,mttr=600,straggler=0.1"
	recovered crashes
	counted crashes
	kinds crashes fault.crash fault.recover job.restart

	# One rack is 8 servers, so with 8 training servers a rack outage takes
	# the whole training pool at once: the harshest restart-storm shape.
	twice racks "$sim" $small -faults "mtbf=43200,mttr=600,rackout=21600,rackmttr=900"
	cat "$dir/racks.out"
	submitted=$(sed -n 's/^jobs: \([0-9][0-9]*\) submitted.*/\1/p' "$dir/racks.out")
	completed=$(sed -n 's/^jobs: .* \([0-9][0-9]*\) completed.*/\1/p' "$dir/racks.out")
	[ -n "$submitted" ] && [ "$submitted" = "$completed" ] ||
		fail "rack outages lost jobs ($completed/$submitted completed)"
	kinds racks fault.domain
	"$events" -faults "$dir/racks.jsonl"

	tbfaults="mtbf=7200,mttr=300,launchfail=0.1"
	twice testbed "$dir/lyra-testbed" -scheme lyra -jobs 30 -seed 7 -audit -faults "$tbfaults"
	recovered testbed
	counted testbed
	kinds testbed container.ready fault.launch
	# That leg audits every tick, rule 4's credit-cannot-outrun-the-clock
	# bound included, on a run that crashes servers and fails launches.
	# Auditing only reads state: the same run without it repeats it.
	"$dir/lyra-testbed" -scheme lyra -jobs 30 -seed 7 -faults "$tbfaults" \
		-events "$dir/testbed.off.jsonl" > "$dir/testbed.off.out"
	cmp -s "$dir/testbed.out" "$dir/testbed.off.out" && cmp -s "$dir/testbed.jsonl" "$dir/testbed.off.jsonl" ||
		fail "the testbed run differs with -audit on and off"

	# The prototype replays the simulator's fault timeline, rack outages
	# included: a testbed rack is all four training servers at once.
	twice tbracks "$dir/lyra-testbed" -scheme lyra -jobs 30 -seed 7 -audit -faults "$tbfaults,rackout=7200"
	recovered tbracks
	kinds tbracks fault.domain fault.recover

	# A fault key the testbed cannot honour is an error, not a no-op.
	if "$dir/lyra-testbed" -jobs 4 -faults rpcerr=0.02 > /dev/null 2> "$dir/bad.err" ||
		! grep -q 'valid: mtbf, .*launchfail, retries, seed' "$dir/bad.err"; then
		cat "$dir/bad.err" >&2
		fail "-faults rpcerr=0.02 did not fail with the valid-key list"
	fi
}

smoke_matrix() {
	matrix="$dir/lyra-matrix"
	"$matrix" -spec testdata/scenarios -dry > "$dir/dry.out"
	cells=$(wc -l < "$dir/dry.out")
	[ "$cells" -ge 10 ] || fail "pack compiled to only $cells cells"
	echo "pack compiles to $cells cells"

	"$matrix" -spec testdata/scenarios/smoke.json -audit > "$dir/pass.out"
	cat "$dir/pass.out"
	! grep -q "FAIL" "$dir/pass.out" || fail "smoke matrix reported SLO failures"

	if "$matrix" -spec testdata/scenarios/smoke.json -tighten 0.01 > "$dir/fail.out" 2>&1; then
		fail "tightened SLOs still passed: the gate cannot fail"
	fi
	grep -q "exceeds bound" "$dir/fail.out" || {
		cat "$dir/fail.out" >&2
		fail "failure output does not name the violated bound"
	}
	echo "tightened run failed as required"

	"$matrix" -spec testdata/scenarios/smoke.json -json "$dir/report.json" > /dev/null
	for needle in '"cells"' '"pass": true' '"key"'; do
		grep -q "$needle" "$dir/report.json" || {
			cat "$dir/report.json" >&2
			fail "JSON report missing $needle"
		}
	done
}

smoke_prof() {
	run="$sim -scheme lyra -days 1 -training-servers 8 -inference-servers 8 -seed 7"
	$run -events "$dir/plain.jsonl" > /dev/null
	$run -events "$dir/profiled.jsonl" -prof -trace "$dir/trace.json" > "$dir/prof.txt"
	cmp -s "$dir/plain.jsonl" "$dir/profiled.jsonl" || fail "-prof changed the -events stream"
	echo "event streams byte-identical with and without -prof"

	for phase in sim epoch.sched epoch.orch phase1 phase2 report; do
		grep -q "$phase" "$dir/prof.txt" || {
			cat "$dir/prof.txt" >&2
			fail "report is missing phase \"$phase\""
		}
	done
	attributed=$(awk '/^attributed:/ { print $2 }' "$dir/prof.txt" | tr -d '%')
	awk -v a="$attributed" 'BEGIN { exit !(a >= 90) }' || {
		cat "$dir/prof.txt" >&2
		fail "attributed ${attributed:-?}% < 90% of wall time"
	}
	echo "report attributes ${attributed}% of wall time to named phases"

	# The trace must be valid Chrome trace-event JSON (loadable in Perfetto).
	trace() { jq -e "$1" "$dir/trace.json" > /dev/null || fail "trace: not true: $1"; }
	trace '.displayTimeUnit == "ms"'
	trace '[.traceEvents[] | select(.ph == "M" and .name == "thread_name")] | length >= 1'
	trace '[.traceEvents[] | select(.ph == "X")] | length >= 10'
	trace '[.traceEvents[] | select(.ph == "X") | select(.dur < 0 or .ts < 0)] | length == 0'
	trace '[.traceEvents[] | select(.ph == "X") | .name] | index("epoch.sched") != null'
}

smoke_shard() {
	# Shard schedulers and the arbiter run in shard-ID order on one goroutine;
	# two processes (two map-hash seeds) must record the same stream. Audit on:
	# the cross-shard GPU conservation rules run after every event.
	twice shards "$sim" -scheme lyra -days 1 -training-servers 12 -inference-servers 8 \
		-training-shards 2 -inference-shards 2 -seed 11 -audit
	counted shards
	kinds shards arb.route

	# The summary's per-shard table: its header, and one row per training
	# shard whose routed jobs add up to the stream's arb.route events.
	"$events" "$dir/shards.jsonl" | sed -n '/^arbitrated shards:$/,$p' > "$dir/shards.sum"
	cat "$dir/shards.sum"
	grep -q '^shard  *jobs routed  *loan grants  *servers lent  *reclaims  *returns$' "$dir/shards.sum" ||
		fail "lyra-events summary has no per-shard table header"
	rows=$(awk '$1 ~ /^[0-9]+$/ { n++; routed += $2 } END { print n, routed }' "$dir/shards.sum")
	[ "$rows" = "2 $(grep -c '"kind":"arb.route"' "$dir/shards.jsonl")" ] ||
		fail "per-shard table has (rows, jobs routed) = ($rows), want 2 rows covering every arb.route"

	# A loaded 4+4 topology (load factor 4) has several shards borrowing in one
	# epoch, served in shard-ID order from the live inference pools, and must
	# still audit clean. (A saturated one does not: the first borrower exhausts
	# the netted headroom and nobody else is lent anything.)
	"$sim" -scheme lyra -days 1 -training-servers 16 -inference-servers 32 \
		-training-shards 4 -inference-shards 4 -seed 11 -load 4 \
		-audit -events "$dir/storm.jsonl" > /dev/null
	kinds storm orch.loan
	sed -n 's/^{"t":\([^,]*\),"kind":"orch.loan","cause":"loan-grant",.*"shard":\([0-9]*\)}}$/\1 \2/p' "$dir/storm.jsonl" |
		awk '$1 == t && $2 != shard { both++ } { t = $1; shard = $2 } END { exit !both }' ||
		fail "no arbitration epoch recorded loan-grant orch.loan events from two shards"
}

smoke_trace() {
	"$dir/tracegen" -days 1 -training-gpus 128 -o "$dir/trace.csv"
	"$sim" -trace-csv "$dir/trace.csv" -training-servers 16 -inference-servers 16 -audit > "$dir/csv.out"
	cat "$dir/csv.out"
	rows=$(($(wc -l < "$dir/trace.csv") - 1))
	positive "$rows" "tracegen wrote no jobs"
	# The scenario adapts each run's own copy of the loaded trace: under
	# Ideal every job is elastic, and still every one finishes.
	"$sim" -trace-csv "$dir/trace.csv" -training-servers 16 -inference-servers 16 -audit \
		-scenario ideal > "$dir/csv.ideal.out"
	cat "$dir/csv.ideal.out"
	for out in csv csv.ideal; do
		jobs=$(sed -n 's/^jobs: \([0-9]*\) submitted, \([0-9]*\) completed$/\1 \2/p' "$dir/$out.out")
		[ "$jobs" = "$rows $rows" ] ||
			fail "$out: (submitted, completed) = ($jobs), want all $rows jobs of the CSV"
	done
}

[ $# -gt 0 ] || set -- bench events fault matrix prof shard trace
for cur; do
	case $cur in
	bench | events | fault | matrix | prof | shard | trace) ;;
	*) fail "unknown case (valid: bench events fault matrix prof shard trace)" ;;
	esac
done
cur=setup
echo "== smoke: building the binaries"
for b in lyra-sim lyra-events lyra-testbed lyra-matrix lyra-bench tracegen; do
	go build -o "$dir/$b" "./cmd/$b"
done
for cur; do
	echo "== $cur-smoke"
	"smoke_$cur"
	echo "$cur-smoke OK"
done
