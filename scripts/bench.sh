#!/bin/sh
# bench.sh runs the repository's micro-benchmarks, one `go test -bench` per
# line of the list below, each at its own -benchtime (`make bench`), or all
# at the -benchtime given as the one argument (`scripts/check.sh` passes 1x:
# they compile and run). Performance is measured end to end by the
# repository benchmark (BENCHMARK.json, benchmark/README.md); these are the
# layers under it. Each line is: benchtime, pattern, extra flags and
# packages.
#
# - The engine's 300-job replay once per mode: auditor off and on (audit
#   off is the hot path DESIGN.md quotes), event recorder off, ring and
#   JSONL, fault plan off and on, span profiler off and on (B/op and
#   allocs/op of every off case must match), and the same day with every
#   job elastic under a scheduler that rescales each running job every
#   epoch (each rescale moves a finish event in the timeline).
# - The phase-2 kernels' one-second loops: the MCKP solve on five shapes,
#   the paper's and the median instances of registry-sim, prod-sharded,
#   prod-basic and prod-ideal (warm Solver, fresh, reference DP; the warm
#   rows report cells/op and bound-steps/op) and alloc.Phase2 around it.
# - Best-fit placement: a 1-GPU worker (lands on a server hosting work) and
#   a whole-server worker (falls through to the idle servers) at 1x, 10x
#   and 100x the paper's cluster, which must read flat across the three,
#   and a gang one larger than the idle servers (the nofit rows: the walk
#   visits every idle server, grows with the scale and allocates nothing).
# - The scale tier's set-up: the fault timeline of its 108,338 streams and
#   the clone of its 223,777-job trace (allocs/op is the number to watch on
#   both), and, once, its 96,300-server cluster (allocs/op counts chunks,
#   not servers).
# - The comparison kernels a registry pass pays for: the §6 LSTM fit behind
#   the proactive forecaster (a few hundred allocs/op, all in NewLSTM), one
#   Pollux search at its 300-candidate cap and one warm AFS call over 354
#   elastic jobs (both 0 allocs/op once warm).
# - One make-room round trip at the paper's scale and one whole warm Lyra
#   epoch there with make-room and scale-outs firing (its fixture is
#   rebuilt with the timer stopped, so the loop takes ~10 s; allocs/op is
#   the number TestEpochAllocationBudget pins).
# - One Lyra reclaim plan at prod-basic's median shape (94 on-loan
#   candidates, 7 servers asked for).
# - A fresh one-worker runner pool running twelve differently mixed specs
#   over one small trace (B/op counts every copy of the trace a run makes,
#   one per executed spec).
# - One whole lyra.Run of the capped, faulted 100x tier (-short: B/op counts
#   only the jobs that can arrive before MaxTime).
set -euf
cd "$(dirname "$0")/.."

while read -r benchtime pattern rest; do
	go test -run NONE -bench "$pattern" -benchtime "${1:-$benchtime}" -benchmem $rest </dev/null
done <<'EOF'
1x BenchmarkEngineAudit|BenchmarkEngineEvents|BenchmarkEngineFaults|BenchmarkEngineProf|BenchmarkEngineElastic ./internal/sim/
1s BenchmarkMultiChoice|BenchmarkPhase2 ./internal/knapsack/ ./internal/alloc/
1s BenchmarkBestFit ./internal/place/
1s BenchmarkFullSchedule|BenchmarkClone ./internal/fault/ ./internal/trace/
1x BenchmarkClusterNew ./internal/cluster/
1s BenchmarkForecasterFit|BenchmarkPolluxGA|BenchmarkAFS ./internal/orchestrator/ ./internal/alloc/
1s BenchmarkMakeRoom|BenchmarkEpoch ./internal/sched/
1s BenchmarkReclaimPlan ./internal/reclaim/
1s BenchmarkPoolSim ./internal/runner/
1x ^BenchmarkEpoch$/^100x-faulted$ -short .
EOF
