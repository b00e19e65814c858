package main

import (
	"fmt"
	"time"

	"lyra"
	"lyra/internal/alloc"
	"lyra/internal/arbiter"
	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/job"
	"lyra/internal/orchestrator"
	"lyra/internal/predict"
	"lyra/internal/prof"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
)

// A layer boundary of the program is wrapped, not edited: each wrapper
// below implements one interface the engine already calls through, times
// the call, and forwards it. Spans go to a prof.Profiler so they nest with
// the program's own spans (a span's parent is the span open when it
// started) and export as one Chrome trace; durations are also kept raw,
// because the profiler's digest quantiles are ±4% and carry no p99.9.

// layer records every call across one boundary.
type layer struct {
	name   string
	p      *prof.Profiler
	starts []int64 // ns since traceEpoch
	durs   []int64 // ns
}

var traceEpoch = time.Now()

type openSpan struct {
	l     *layer
	sp    prof.Span
	start int64
}

func (l *layer) begin() openSpan {
	return openSpan{l: l, sp: l.p.Start(l.name), start: int64(time.Since(traceEpoch))}
}

func (o openSpan) end() {
	d := int64(time.Since(traceEpoch)) - o.start
	o.sp.End()
	o.l.starts = append(o.l.starts, o.start)
	o.l.durs = append(o.l.durs, d)
}

func (l *layer) busyNS() int64 {
	var sum int64
	for _, d := range l.durs {
		sum += d
	}
	return sum
}

// us returns the call durations in microseconds.
func (l *layer) us() []float64 {
	out := make([]float64, len(l.durs))
	for i, d := range l.durs {
		out[i] = float64(d) / 1e3
	}
	return out
}

type tracedSched struct {
	inner sim.Scheduler
	l     *layer
}

func (t *tracedSched) Less(a, b *job.Job) bool { return t.inner.Less(a, b) }

func (t *tracedSched) Schedule(st *sim.State) {
	o := t.l.begin()
	t.inner.Schedule(st)
	o.end()
}

// Memoryless forwards the wrapped scheduler's answer, so the engine keeps
// skipping quiescent epochs exactly as it does without the wrapper.
func (t *tracedSched) Memoryless() bool {
	m, ok := t.inner.(sim.MemorylessScheduler)
	return ok && m.Memoryless()
}

type tracedOrch struct {
	inner sim.Orchestrator
	l     *layer
}

func (t *tracedOrch) Epoch(st *sim.State) {
	o := t.l.begin()
	t.inner.Epoch(st)
	o.end()
}

type tracedArbiter struct {
	inner        sim.ShardArbiter
	epoch, route *layer
}

func (t *tracedArbiter) Route(sh *sim.Shards, j *job.Job) int {
	o := t.route.begin()
	n := t.inner.Route(sh, j)
	o.end()
	return n
}

func (t *tracedArbiter) Epoch(sh *sim.Shards) {
	o := t.epoch.begin()
	t.inner.Epoch(sh)
	o.end()
}

type tracedPolicy struct {
	inner     reclaim.Policy
	l         *layer
	requested int
}

func (t *tracedPolicy) Name() string { return t.inner.Name() }

func (t *tracedPolicy) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) reclaim.Plan {
	t.requested += n
	o := t.l.begin()
	p := t.inner.Plan(onLoan, lookup, n)
	o.end()
	return p
}

type tracedTargeter struct {
	inner orchestrator.LoanTargeter
	l     *layer
}

func (t *tracedTargeter) TargetOnLoan(at int64) int {
	o := t.l.begin()
	n := t.inner.TargetOnLoan(at)
	o.end()
	return n
}

// tracer holds the layers of one traced repetition. The engine's own
// goroutine records on the main track; each shard scheduler runs on its own
// goroutine and gets its own track, so no two goroutines share a profiler's
// span stack.
type tracer struct {
	col      *prof.Collector
	main     *prof.Profiler
	sched    []*layer // one per training shard; one entry when unsharded
	orch     *layer
	arbEpoch *layer
	arbRoute *layer
	plan     *tracedPolicy
	target   *layer
	simNS    int64 // wall time of Engine.Run alone
}

func newTracer() *tracer {
	col := prof.NewCollector(nil)
	main := col.NewProfiler("main")
	return &tracer{
		col: col, main: main,
		orch:     &layer{name: "orchestrator.Epoch", p: main},
		arbEpoch: &layer{name: "arbiter.Epoch", p: main},
		// One call per arrival or per epoch and shard, ~100 ns each: timed,
		// but a span apiece would cost more than the call (a nil profiler
		// records none).
		arbRoute: &layer{name: "arbiter.Route"},
		target:   &layer{name: "inference.TargetOnLoan"},
	}
}

// schedLayer adds the track of one more scheduler instance.
func (t *tracer) schedLayer(sharded bool) *layer {
	p := t.main
	if sharded {
		p = t.col.NewProfiler(fmt.Sprintf("shard-%d", len(t.sched)))
	}
	l := &layer{name: "sched.Schedule", p: p}
	t.sched = append(t.sched, l)
	return l
}

// assemble replays tr under cfg exactly as lyra.Run does — it is
// lyra.RunProfiled and runSharded re-stated against the exported
// constructors — and, with a tracer, slips a wrapper over every boundary
// that is an interface. A nil tracer wires the bare components: that path
// exists so the drift test can hold this copy to lyra.Run's digest. Only
// the benchmark's own schemes (Lyra scheduler, Lyra reclaiming) are wired.
func assemble(cfg lyra.Config, tr *lyra.Trace, t *tracer) (*lyra.Report, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler != lyra.SchedLyra || (cfg.Loaning && cfg.Reclaim != lyra.ReclaimLyra) {
		return nil, fmt.Errorf("benchmark: assemble wires only the lyra scheduler and reclaim policy, got %q/%q", cfg.Scheduler, cfg.Reclaim)
	}
	var p *prof.Profiler
	if t != nil {
		p = t.main
	}
	prep := p.Start("prepare")
	tr = tr.Clone()
	predict.WithError(cfg.FracWrongEstimate, cfg.MaxEstimateError, cfg.Seed+77).Annotate(tr.Jobs)

	newSched := func() (sim.Scheduler, func(a, b *job.Job) bool) {
		s := &sched.Lyra{
			Elastic: cfg.Elastic, NaivePlacement: cfg.NaivePlacement, Tuned: cfg.Tuned,
			Opportunistic: cfg.Opportunistic, InfoAgnostic: cfg.InfoAgnostic,
			Tuning: alloc.Tuning{StabilityBonus: cfg.StabilityBonus, MaxItems: cfg.Phase2MaxItems},
		}
		if t == nil {
			return s, s.Less
		}
		return &tracedSched{inner: s, l: t.schedLayer(cfg.TrainingShards > 0)}, s.Less
	}
	var policy reclaim.Policy = reclaim.Lyra{}
	if t != nil {
		t.plan = &tracedPolicy{inner: policy, l: &layer{name: "reclaim.Plan", p: p}}
		policy = t.plan
	}
	targeter := func(is *inference.Scheduler, seed int64) orchestrator.LoanTargeter {
		var lt orchestrator.LoanTargeter = is
		if cfg.ProactiveReclaim {
			lt = orchestrator.NewForecaster(is, seed)
		}
		if t != nil {
			lt = &tracedTargeter{inner: lt, l: t.target}
		}
		return lt
	}

	preempt := cfg.PreemptOverhead
	if preempt == 0 {
		preempt = -1
	}
	simCfg := sim.Config{
		SchedInterval: cfg.SchedInterval, OrchInterval: cfg.OrchInterval,
		MaxTime: cfg.MaxTime, PreemptOverhead: preempt, Scaling: cfg.Scaling,
		Prof: p,
	}
	if cfg.Faults.Enabled() {
		fp := cfg.Faults
		simCfg.Faults = &fp
	}
	if cfg.RestartBackoff {
		simCfg.BackoffBase, simCfg.BackoffCap = cfg.BackoffBase, cfg.BackoffCap
	}
	if cfg.QuarantineHysteresis {
		simCfg.HystCrashes, simCfg.HystWindow, simCfg.HystHold = cfg.HystCrashes, cfg.HystWindow, cfg.HystHold
	}

	var run func() *sim.Result
	if cfg.TrainingShards > 0 {
		run = assembleSharded(cfg, tr, t, simCfg, newSched, policy, targeter)
	} else {
		c := cluster.New(cfg.Cluster)
		s, less := newSched()
		util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(cfg.Seed+13), tr.Horizon, 300)
		infSched := inference.NewScheduler(util, cfg.Cluster.InferenceServers, cfg.Headroom)
		var orch sim.Orchestrator
		if cfg.Loaning {
			o := orchestrator.New(targeter(infSched, cfg.Seed+19), policy, less)
			o.IncludeElasticDemand = cfg.Elastic
			o.LoanOnlyDemand = cfg.Opportunistic
			o.EmergencyReclaim = cfg.EmergencyReclaim
			orch = o
			if t != nil {
				orch = &tracedOrch{inner: o, l: t.orch}
			}
		}
		simCfg.InferenceUtil = func(at int64) float64 { return infSched.UtilizationAt(at) }
		run = sim.New(c, tr.Jobs, tr.Horizon, s, orch, simCfg).Run
	}
	prep.End()

	sp := p.Start("sim")
	start := time.Now()
	res := run()
	if t != nil {
		t.simNS = int64(time.Since(start))
	}
	sp.End()

	sp = p.Start("report")
	rep := &lyra.Report{
		Queue: res.QueuingSummary(), JCT: res.JCTSummary(),
		OnLoanQueue: res.OnLoanQueuingSummary(), OnLoanJCT: res.OnLoanJCTSummary(),
		TrainUsage: res.MeanTrainUsage(), OverallUsage: res.MeanOverallUsage(), OnLoanUsage: res.MeanOnLoanUsage(),
		Preemptions: res.Preemptions, PreemptionRatio: res.PreemptionRatio,
		ScalingOps: res.ScalingOps, CollateralDamage: res.CollateralDamage,
		FlexSatisfiedShare: res.FlexSatisfiedShare,
		Completed:          res.Completed, Total: len(tr.Jobs),
		Crashes: res.Crashes, Recoveries: res.Recoveries, LostCapacityGPUSec: res.LostCapacityGPUSec,
		Raw: res,
	}
	sp.End()
	rep.Prof = p.Report()
	return rep, nil
}

// assembleSharded is lyra's runSharded: per-shard clusters over contiguous
// global ID ranges, one scheduler per training shard, one loan targeter per
// inference shard, and the arbiter in the orchestrator's seat.
func assembleSharded(cfg lyra.Config, tr *lyra.Trace, t *tracer, simCfg sim.Config,
	newSched func() (sim.Scheduler, func(a, b *job.Job) bool), policy reclaim.Policy,
	targeter func(*inference.Scheduler, int64) orchestrator.LoanTargeter) func() *sim.Result {
	cc := cfg.Cluster
	if cc.GPUsPerServer == 0 {
		cc.GPUsPerServer = cluster.DefaultGPUsPerServer
	}
	if cc.TrainingGPU == cluster.V100 && cc.InferenceGPU == cluster.V100 {
		cc.InferenceGPU = cluster.T4
	}
	split := func(total, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = total / n
			if i < total%n {
				out[i]++
			}
		}
		return out
	}
	shard := func(training, inference, firstID, id int) *cluster.Cluster {
		return cluster.New(cluster.Config{
			TrainingServers: training, InferenceServers: inference, GPUsPerServer: cc.GPUsPerServer,
			TrainingGPU: cc.TrainingGPU, InferenceGPU: cc.InferenceGPU,
			RackSize: cc.RackSize, ZoneRacks: cc.ZoneRacks, FirstID: firstID, Shard: id,
		})
	}
	infCounts := split(cc.InferenceServers, cfg.InferenceShards)
	var trainCls, infCls []*cluster.Cluster
	firstID := 0
	for i, cnt := range split(cc.TrainingServers, cfg.TrainingShards) {
		trainCls = append(trainCls, shard(cnt, 0, firstID, i))
		firstID += cnt
	}
	for m, cnt := range infCounts {
		infCls = append(infCls, shard(0, cnt, firstID, cfg.TrainingShards+m))
		firstID += cnt
	}

	scheds := make([]sim.Scheduler, cfg.TrainingShards)
	var less func(a, b *job.Job) bool
	for n := range scheds {
		var l func(a, b *job.Job) bool
		scheds[n], l = newSched()
		if n == 0 {
			less = l
		}
	}
	targets := make([]orchestrator.LoanTargeter, cfg.InferenceShards)
	infUtil := make([]func(int64) float64, cfg.InferenceShards)
	for m := range targets {
		util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(cfg.Seed+13+int64(101*m)), tr.Horizon, 300)
		is := inference.NewScheduler(util, infCounts[m], cfg.Headroom)
		infUtil[m] = is.UtilizationAt
		targets[m] = targeter(is, cfg.Seed+19+int64(101*m))
	}
	arb := arbiter.New(nil, nil, less)
	if cfg.Loaning {
		arb.Targets = targets
		arb.Policy = policy
		arb.IncludeElasticDemand = cfg.Elastic
		arb.LoanOnlyDemand = cfg.Opportunistic
		arb.EmergencyReclaim = cfg.EmergencyReclaim
	}
	var sa sim.ShardArbiter = arb
	if t != nil {
		sa = &tracedArbiter{inner: arb, epoch: t.arbEpoch, route: t.arbRoute}
	}
	return sim.NewSharded(sim.ShardedConfig{
		Train: trainCls, Inf: infCls, Scheds: scheds, Arbiter: sa,
		Orchestrate: cfg.Loaning, RefTopo: cluster.New(cfg.Cluster), InfUtil: infUtil,
	}, tr.Jobs, tr.Horizon, simCfg).Run
}
