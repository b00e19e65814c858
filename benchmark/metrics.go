package main

import (
	"sort"

	"lyra/internal/metrics"
)

// metricDef names one reported metric. The two tables below are the
// program's side of BENCHMARK.json: the tests assert they agree with it
// name for name and unit for unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists what a user of the simulator sees. The two timings are the
// fastest of their repetitions in one process (see fastest), the allocation
// figures medians over the timed repetitions; the simulated statistics come
// from the repetitions' (identical) reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb_per_run", "MB"},
	{"allocs_per_run", "count"},
	{"peak_rss_mb", "MB"},
	{"queue_mean_s", "sim_s"},
	{"jct_mean_s", "sim_s"},
	{"overall_usage", "fraction"},
}

// simulated marks the end-to-end metrics that are functions of the inputs
// alone: they repeat exactly for a seed, so -selfcheck and -compare hold
// them to equality rather than to a bound.
var simulated = map[string]bool{
	"queue_mean_s": true, "jct_mean_s": true, "overall_usage": true,
}

// profNodes are the program's own span names (internal/prof) folded into
// prof.<node>.self_ms. Advisory: a later change may rename spans, and a node
// a run does not produce reports 0.
var profNodes = []string{
	"epoch.sched", "phase1", "make-room", "phase1.hetero", "phase2",
	"phase2.mckp", "phase2.apply", "epoch.orch", "reclaim.plan",
	"reclaim.apply", "loan", "return-idle", "finish", "arrival", "crash",
	"recover", "metrics", "prepare", "report",
}

// registryIDs are the experiments of the registry-sim pass, in the
// canonical order the table digest is taken in.
var registryIDs = []string{"table5", "table8", "table9", "fig10", "fig12", "ablation", "domainsweep"}

// perLayer lists every traced-run metric. Every workload reports every
// name; one that does not exercise a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"lyra.Run.traced_wall_ms", "ms"},
		{"lyra.Run.trace_overhead_pct", "%"},
		{"lyra.Run.jobs_per_s", "1/s"},
		{"trace.Generate.ms", "ms"},
		{"trace.Generate.jobs", "count"},
		{"sched.Schedule.calls", "count"},
		{"sched.Schedule.busy_ms", "ms"},
		{"sched.Schedule.share", "fraction"},
		{"sched.Schedule.p50_us", "us"},
		{"sched.Schedule.tail_us", "us"},
		{"sched.Schedule.tail_pct", "%"},
		{"sched.Schedule.shard_imbalance", "ratio"},
		{"knapsack.MultiChoice.us_p50", "us"},
		{"knapsack.MultiChoice.allocs", "count"},
		{"alloc.Phase2.us_p50", "us"},
		{"alloc.Phase2.allocs", "count"},
		{"place.Gang.us_p50", "us"},
		{"place.Gang.allocs", "count"},
		{"cluster.DetachAdopt.us_p50", "us"},
		{"cluster.DetachAdopt.allocs", "count"},
		{"sim.engine.self_ms", "ms"},
		{"sim.epochs", "count"},
		{"sim.epochs_skipped", "count"},
		{"sim.skip_ratio", "fraction"},
		{"sim.ns_per_epoch", "ns"},
		{"sim.scaling_ops", "count"},
		{"sim.preemptions", "count"},
		{"sim.preempt_ratio", "fraction"},
		{"sim.queue_p99_s", "sim_s"},
		{"sim.reclaim_ops", "count"},
		{"sim.reclaimed_servers", "count"},
		{"orchestrator.Epoch.calls", "count"},
		{"orchestrator.Epoch.busy_ms", "ms"},
		{"orchestrator.Epoch.p50_us", "us"},
		{"orchestrator.Epoch.tail_us", "us"},
		{"inference.TargetOnLoan.calls", "count"},
		{"inference.TargetOnLoan.busy_ms", "ms"},
		{"arbiter.Epoch.calls", "count"},
		{"arbiter.Epoch.busy_ms", "ms"},
		{"arbiter.Epoch.p50_us", "us"},
		{"arbiter.Epoch.tail_us", "us"},
		{"arbiter.Route.calls", "count"},
		{"arbiter.Route.busy_ms", "ms"},
		{"arbiter.conflicts", "count"},
		{"arbiter.retries", "count"},
		{"reclaim.Plan.calls", "count"},
		{"reclaim.Plan.busy_ms", "ms"},
		{"reclaim.Plan.p50_us", "us"},
		{"reclaim.Plan.tail_us", "us"},
		{"reclaim.Plan.servers_requested", "count"},
		{"fault.crashes", "count"},
		{"fault.recoveries", "count"},
		{"fault.lost_gpu_s", "gpu_s"},
		{"obs.events.count", "count"},
		{"obs.events.mb", "MB"},
		{"obs.events.overhead_pct", "%"},
		{"runner.sims_requested", "count"},
		{"runner.sims_executed", "count"},
		{"runner.cache_hit_ratio", "fraction"},
		{"runner.traces_synthesized", "count"},
		{"runner.sims_per_s", "1/s"},
	}
	for _, id := range registryIDs {
		defs = append(defs, metricDef{"experiments." + id + ".ms", "ms"})
	}
	for _, n := range profNodes {
		defs = append(defs, metricDef{"prof." + n + ".self_ms", "ms"})
	}
	return append(defs, metricDef{"prof.attributed_pct", "%"})
}

// metric is one reported value, in the shape the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value. It starts with every name of a
// table at 0 so a run always reports the full set.
type metricSet map[string]metric

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

// set stores v under a name the set was built with; an unknown name is a
// bug in this program, not in the input.
func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	cur.Value = v
	m[name] = cur
}

// quantile is the p-th percentile (0..100) of xs by linear interpolation,
// the same rule internal/metrics reports with; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Percentile(s, p)
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// fastest is the estimator of the two end-to-end timings. The box this runs
// on is a few cores of a shared host whose speed drops by a third for ten to
// twenty seconds at a time: such a spell covers most repetitions of a run
// and moves their median with it, while the deterministic work under test
// takes the same time whenever the host leaves it alone. Interference only
// ever adds time, so the minimum is the repetition least disturbed; the
// median and quartiles of the same samples are printed beside it.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// tail picks the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, and says which; with fewer than 100 samples it falls
// back to the maximum (pct 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, t := range []struct {
		pct   float64
		oneIn int // one sample in this many lies beyond pct
	}{{99.9, 1000}, {99, 100}, {90, 10}} {
		if len(xs) >= 10*t.oneIn {
			return quantile(xs, t.pct), t.pct
		}
	}
	return quantile(xs, 100), 100
}
