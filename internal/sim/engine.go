package sim

import (
	"fmt"
	"math"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/metrics"
	"lyra/internal/obs"
	"lyra/internal/prof"
)

// Config parameterizes a simulation run. Zero values use the paper's
// defaults.
type Config struct {
	// SchedInterval is the job scheduler epoch in seconds (default 60).
	// §3: the job scheduler runs at a much smaller interval than the
	// orchestrator.
	SchedInterval int64
	// OrchInterval is the resource orchestrator epoch (default 300,
	// §7.1: "Lyra's resource orchestrator runs every five minutes").
	OrchInterval int64
	// PreemptOverhead is the fixed preemption overhead in seconds added
	// whenever a job is preempted (default 63, the testbed-measured value
	// adopted by the simulation in §7.2; negative means explicitly free —
	// the root package maps lyra.Zero here).
	PreemptOverhead float64
	// Scaling is the throughput model (Linear by default).
	Scaling job.ScalingModel
	// MaxTime hard-caps simulated time; 0 means 4x the trace horizon plus
	// seven days (room for the drain phase, see Run).
	MaxTime float64
	// InferenceUtil reports the inference cluster's own utilization at
	// time t for combined-usage accounting; nil means no inference
	// cluster in the usage metrics. New reads it for its one state;
	// NewSharded takes one series per inference shard from
	// ShardedConfig.InfUtil instead.
	InferenceUtil func(t int64) float64
	// Audit enables the invariant audit layer (internal/invariant): after
	// every processed event the full conservation/legality suite is
	// checked over the state, and the engine panics with a structured
	// expected-vs-actual report on the first violation. Tests run with
	// Audit on; it is off by default so benchmarks and the headline
	// experiment harness keep the unchanged hot path (the audit-off cost
	// is a single nil check per event — see DESIGN.md for the measured
	// overhead of each mode).
	Audit bool
	// Obs is the optional structured event recorder (internal/obs): when
	// non-nil the engine and state emit the full decision-trace stream
	// (job lifecycle, scheduler epoch summaries, orchestrator and fault
	// decisions). Nil keeps the hot path untouched — every emission site is
	// behind a single nil check, same discipline as Audit.
	Obs *obs.Recorder
	// Faults is the optional deterministic fault-injection plan
	// (internal/fault): server crash/recovery events enter the event queue
	// pre-generated from the plan's seeded stream, and straggler jobs get
	// their SlowFactor stamped at engine construction. Nil (or a disabled
	// plan) costs one nil check at Run start and nothing per event — same
	// discipline as Audit and Obs.
	Faults *fault.Plan
	// Prof is the optional wall-clock span profiler (internal/prof): when
	// non-nil each processed event is wrapped in a span named after its
	// kind, with nested spans from the scheduler phases, orchestrator
	// decisions and the audit layer. Spans measure wall time only and never
	// touch the Obs stream — a profiled run's events are byte-identical to
	// an unprofiled one. Nil is the zero-overhead default (one nil check
	// per event, same discipline as Audit and Obs).
	Prof *prof.Profiler
	// BackoffBase enables per-job capped-exponential restart backoff
	// (degraded mode, DESIGN.md §13): a job preempted by its Nth crash
	// waits min(BackoffBase·2^N, BackoffCap) seconds before re-entering
	// the pending queue, bounding the restart storm after a correlated
	// outage. Zero disables the policy entirely — crash-preempted jobs
	// requeue immediately, byte-identical to the pre-backoff engine.
	BackoffBase float64
	// BackoffCap caps the backoff delay; zero with BackoffBase set means
	// 30× the base.
	BackoffCap float64
	// HystCrashes enables quarantine hysteresis: a server whose applied
	// crash count within the trailing HystWindow seconds reaches
	// HystCrashes has its scheduled recovery delayed by an escalating
	// hold-down (HystHold·2^extra, capped at 16× the hold), keeping
	// repeat-crashers out of the schedulable pools. Zero disables.
	HystCrashes int
	// HystWindow is the trailing crash-count window in seconds (default
	// 3600 when HystCrashes is set).
	HystWindow float64
	// HystHold is the base hold-down in seconds (default 900 when
	// HystCrashes is set).
	HystHold float64
}

// metricsInterval is the usage sampling period in seconds, matching the
// 5-minute monitoring of Figures 1 and 9.
const metricsInterval = 300

func (c Config) withDefaults() Config {
	if c.SchedInterval == 0 {
		c.SchedInterval = 60
	}
	if c.OrchInterval == 0 {
		c.OrchInterval = 300
	}
	switch {
	case c.PreemptOverhead < 0:
		// Negative is the "explicitly zero" sentinel (lyra.Zero at the
		// root-package boundary): preemption is free.
		c.PreemptOverhead = 0
	case c.PreemptOverhead == 0:
		c.PreemptOverhead = 63
	}
	if c.Scaling == (job.ScalingModel{}) {
		c.Scaling = job.Linear
	}
	if c.BackoffBase > 0 && c.BackoffCap <= 0 {
		c.BackoffCap = 30 * c.BackoffBase
	}
	if c.HystCrashes > 0 {
		if c.HystWindow <= 0 {
			c.HystWindow = 3600
		}
		if c.HystHold <= 0 {
			c.HystHold = 900
		}
	}
	return c
}

// event kinds, in tie-break priority order at equal timestamps: arrivals
// land first, completions free resources, domain-outage markers announce a
// correlated failure before its member crashes strike, injected crashes
// strike (after finishes — a job done at t survives a crash at t) and
// recoveries return capacity, backoff releases requeue held jobs (before
// the same-instant orchestrator/scheduler epochs see the queue), the
// orchestrator moves servers, then the scheduler runs with a current view,
// then metrics sample. Fault, domain and release events only exist when
// their feature is enabled, so inserting their kinds here cannot perturb an
// un-faulted run's tie-breaks.
type eventKind uint8

const (
	evArrival eventKind = iota
	evFinish
	evDomain
	evCrash
	evRecover
	evRelease
	evOrch
	evSched
	evMetrics
)

func (k eventKind) String() string {
	switch k {
	case evArrival:
		return "arrival"
	case evFinish:
		return "finish"
	case evDomain:
		return "domain"
	case evCrash:
		return "crash"
	case evRecover:
		return "recover"
	case evRelease:
		return "release"
	case evOrch:
		return "orch"
	case evSched:
		return "sched"
	case evMetrics:
		return "metrics"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// profEventName labels the profiling span wrapping each event kind. The
// periodic kinds get dotted names so the self-timing report reads as "time
// in scheduler epochs" vs "time in orchestrator epochs" at the top level.
var profEventName = [...]string{
	evArrival: "arrival",
	evFinish:  "finish",
	evDomain:  "domain",
	evCrash:   "crash",
	evRecover: "recover",
	evRelease: "release",
	evOrch:    "epoch.orch",
	evSched:   "epoch.sched",
	evMetrics: "metrics",
}

type event struct {
	t       float64
	kind    eventKind
	jobID   int
	version int
	seq     int64
}

// before is the timeline order: time, kind priority, sequence number. The
// last is unique, so the order is total and any correct heap pops the same.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events by value: no per-event boxing,
// and init heapifies a timeline that was appended to in O(n).
type eventHeap []event

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	ev, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return ev
}

// MemorylessScheduler marks schedulers whose Schedule is a pure function of
// the State: invoked twice against an identical state, the second call
// repeats the first call's decisions. The engine may then skip a scheduler
// epoch whose state is provably identical to one the scheduler already ran
// against without mutating anything. Lyra, FIFO, Gandiva and AFS qualify;
// Pollux does not (its genetic search is reseeded per epoch, so two epochs
// over the same state can legitimately decide differently).
type MemorylessScheduler interface {
	Memoryless() bool
}

// Engine drives one simulation over a topology of shard states (Shards) on
// one goroutine: one global event heap, per-shard states mutated only
// by their own events, and a scheduler phase that calls each training shard's
// scheduler in shard-ID order with the state's real recorder and profiler.
// The unsharded run is the one-state topology New builds; every shard count
// runs this loop, which is what the topology-invariance tests
// (TestShardedGoldenIdentity, FuzzShardedVsSingle) pin byte for byte.
type Engine struct {
	cfg     Config
	sh      *Shards
	arb     ShardArbiter
	orch    bool
	refTopo *cluster.Cluster
	// infUtil[i] is state i's own inference utilization series for
	// combined-usage accounting; nil for states that carry none.
	infUtil []func(int64) float64

	jobs     []*job.Job
	byID     map[int]*job.Job
	jobShard map[int]int
	horizon  int64

	events  eventHeap
	seq     int64
	version map[int]int
	now     float64

	completed int
	ranOnLoan map[int]bool
	audit     *invariant.Auditor
	// lostGPUSec accumulates GPU-seconds of quarantined capacity: each
	// recovery adds downtime × the server's GPUs, in event order, so the
	// float sum does not depend on how the cluster is cut (result adds the
	// residual for servers still down at the end of the run).
	lostGPUSec float64
	// domainSched is the correlated-outage marker timeline (rack/zone
	// down/up); evDomain events carry an index into it in their jobID
	// field. The markers are pushed whenever the schedule is non-empty —
	// not only when recording — so the event heap is identical between
	// obs-on and obs-off runs.
	domainSched []fault.DomainEvent
	// crashTimes records applied crash times per server for quarantine
	// hysteresis; entries older than HystWindow are pruned on append.
	crashTimes map[int][]float64
	// recoverSeq versions hysteresis hold-down retries per server: a
	// scheduled (version-0) recovery is always considered, but a held
	// retry is only honored when its version matches the latest hold —
	// a newer hold or an intervening crash supersedes it.
	recoverSeq map[int]int

	// Cross-shard conservation baseline: global GPU and server totals at
	// construction, which every audited transition must preserve.
	totalGPUs    int
	totalServers int

	trainUsage   *metrics.TimeSeries
	overallUsage *metrics.TimeSeries
	onLoanUsage  *metrics.TimeSeries

	hourlyArrived []int
	hourlyQueued  []int

	// arrived lists jobs enqueued since the last scheduler epoch: only
	// those can be first-try queuing jobs (Figure 2), so noteFirstTry
	// walks this delta instead of the whole pending queue.
	arrived []*job.Job

	// epochs holds each training shard's scheduler-epoch state.
	epochs        []shardEpoch
	skippedEpochs int64

	// loanFrom is sample's per-state scratch: GPUs each state currently has
	// out on loan.
	loanFrom []int
}

// shardEpoch is one training shard's scheduler-epoch state.
//
// Quiescent-epoch skip (DESIGN.md §10): when the scheduler is memoryless (a
// pure function of State) and the state version at this epoch equals the
// version at the start of the previous Schedule call, the previous pass
// already ran against this exact state and changed nothing — re-running it
// is a no-op by construction, so the engine skips it. Any mutation (arrival,
// finish, progress, crash, move) bumps the version and ends the quiescent
// window.
type shardEpoch struct {
	skipOK   bool
	verSet   bool
	startVer uint64
	// run marks the shards whose scheduler runs this epoch; queue, starts,
	// preempt and scale are the pre-epoch counters the obs epoch summary
	// reports deltas against. All five are rewritten every epoch.
	run                           bool
	queue, starts, preempt, scale int
}

// seat puts an Orchestrator in the arbiter's place for the one-state
// topology: there is one training shard to route to, and the orchestrator
// epoch runs over the one state.
type seat struct{ orch Orchestrator }

func (seat) Route(*Shards, *job.Job) int { return 0 }
func (s seat) Epoch(sh *Shards)          { s.orch.Epoch(sh.States[0]) }

// New builds an engine replaying jobs (sorted by arrival) on c under the
// given scheduler and optional orchestrator (nil disables capacity
// loaning). horizon is the trace length in seconds. The run is the
// one-state topology of NewSharded: a single State whose cluster carries
// the training, on-loan and inference pools, so every server's home and
// owner is shard 0 and Shards.Transfer is Cluster.Move.
func New(c *cluster.Cluster, jobs []*job.Job, horizon int64, sched Scheduler, orch Orchestrator, cfg Config) *Engine {
	e := NewSharded(ShardedConfig{
		Train:       []*cluster.Cluster{c},
		Scheds:      []Scheduler{sched},
		Arbiter:     seat{orch},
		Orchestrate: orch != nil,
		RefTopo:     c,
	}, jobs, horizon, cfg)
	e.infUtil[0] = cfg.InferenceUtil
	return e
}

// NewSharded builds an engine replaying jobs on the given topology.
func NewSharded(sc ShardedConfig, jobs []*job.Job, horizon int64, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	sh := NewShards(sc, cfg)
	nT := sh.NumTrain
	e := &Engine{
		cfg:       cfg,
		sh:        sh,
		arb:       sc.Arbiter,
		orch:      sc.Orchestrate,
		refTopo:   sc.RefTopo,
		infUtil:   make([]func(int64) float64, len(sh.States)),
		jobs:      jobs,
		jobShard:  make(map[int]int),
		horizon:   horizon,
		version:   make(map[int]int),
		ranOnLoan: make(map[int]bool),
		epochs:    make([]shardEpoch, nT),
		loanFrom:  make([]int, len(sh.States)),
	}
	copy(e.infUtil[nT:], sc.InfUtil)
	for n, s := range sc.Scheds {
		m, ok := s.(MemorylessScheduler)
		e.epochs[n].skipOK = ok && m.Memoryless()
	}
	if cfg.Audit {
		e.audit = invariant.New()
		for _, st := range sh.States {
			e.totalGPUs += totalClusterGPUs(st.Cluster)
			e.totalServers += st.Cluster.NumServers()
		}
	}
	if cfg.Faults.Enabled() {
		StampStragglers(cfg.Faults, jobs)
		if cfg.HystCrashes > 0 {
			e.crashTimes = make(map[int][]float64)
			e.recoverSeq = make(map[int]int)
		}
	}
	if cfg.BackoffBase > 0 {
		for _, st := range sh.Train() {
			st.backoffBase = cfg.BackoffBase
			st.backoffCap = cfg.BackoffCap
			st.crashCount = make(map[int]int)
			st.held = make(map[int]*job.Job)
		}
	}
	e.trainUsage = metrics.NewTimeSeries(0, metricsInterval)
	e.overallUsage = metrics.NewTimeSeries(0, metricsInterval)
	e.onLoanUsage = metrics.NewTimeSeries(0, metricsInterval)
	hours := int(horizon/3600) + 1
	e.hourlyArrived = make([]int, hours)
	e.hourlyQueued = make([]int, hours)
	return e
}

// StampStragglers sets every job's SlowFactor from the plan's straggler
// draw, a pure hash of (plan seed, job ID). A plan without stragglers leaves
// the jobs untouched. Both substrates call it once, at construction.
func StampStragglers(p *fault.Plan, jobs []*job.Job) {
	if p == nil || p.StragglerFrac <= 0 {
		return
	}
	for _, j := range jobs {
		j.SlowFactor = p.SlowFactorFor(j.ID)
	}
}

func (e *Engine) push(t float64, kind eventKind, jobID, version int) {
	e.seq++
	e.events.push(event{t: t, kind: kind, jobID: jobID, version: version, seq: e.seq})
}

// setNow stamps the event time onto every shard state: mutators and
// schedulers read their own state's clock.
func (e *Engine) setNow(t float64) {
	e.now = t
	for _, st := range e.sh.States {
		st.Now = t
	}
}

// shardOf returns the state of the training shard job id was routed to.
func (e *Engine) shardOf(id int) *State {
	return e.sh.States[e.jobShard[id]]
}

// refresh recomputes the completion event of a job after any throughput
// change and records on-loan residency, against the job's shard state.
func (e *Engine) refresh(st *State, j *job.Job) {
	e.version[j.ID]++
	if j.State != job.Running {
		return
	}
	for _, w := range j.Workers {
		if st.Cluster.Server(w.Server).Pool == cluster.PoolOnLoan {
			e.ranOnLoan[j.ID] = true
			break
		}
	}
	rt, ok := j.RemainingRuntime(st.Scaling)
	if !ok {
		invariant.Fail(fmt.Sprintf("sim:refresh t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleThroughput,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "a positive throughput for the current allocation",
			Actual:   fmt.Sprintf("no throughput (%d workers, scaling %+v)", j.NumWorkers(), st.Scaling),
			Detail:   "running job cannot make progress; allocation violates the throughput model's domain",
		})
	}
	e.push(st.Now+rt, evFinish, j.ID, e.version[j.ID])
}

// drain flushes every training shard's changed set in shard ID order.
func (e *Engine) drain() {
	for _, st := range e.sh.Train() {
		for _, j := range st.drainChanged() {
			e.refresh(st, j)
		}
	}
}

// noteCrash records an applied crash for quarantine hysteresis, pruning
// entries that have aged out of the trailing window.
func (e *Engine) noteCrash(sid int) {
	ts := e.crashTimes[sid]
	cut := e.now - e.cfg.HystWindow
	kept := ts[:0]
	for _, t := range ts {
		if t > cut {
			kept = append(kept, t)
		}
	}
	e.crashTimes[sid] = append(kept, e.now)
}

// holdRecovery decides whether a recovery event for a repeat-crashing
// server is delayed by quarantine hysteresis. A scheduled recovery carries
// version 0 and is always considered; a held retry is only honored when
// its version matches the latest hold for the server (older retries were
// superseded by a newer hold or an intervening crash). When the server's
// applied crash count within the trailing window still reaches the
// threshold, the recovery is re-pushed after an escalating hold-down and
// the server stays quarantined; crashes age out of the window while it is
// held, so the hold always terminates.
func (e *Engine) holdRecovery(ev event) bool {
	sid := ev.jobID
	if ev.version != 0 && ev.version != e.recoverSeq[sid] {
		return true // superseded retry: drop it, a later recovery governs
	}
	recent := 0
	cut := e.now - e.cfg.HystWindow
	for _, t := range e.crashTimes[sid] {
		if t > cut {
			recent++
		}
	}
	if recent < e.cfg.HystCrashes {
		return false
	}
	extra := recent - e.cfg.HystCrashes
	if extra > 4 {
		extra = 4 // cap the escalation at 16x the base hold
	}
	hold := e.cfg.HystHold * float64(uint64(1)<<extra)
	e.recoverSeq[sid]++
	e.push(e.now+hold, evRecover, sid, e.recoverSeq[sid])
	if rec := e.cfg.Obs; rec.Enabled() {
		rec.Emit(obs.Ev(e.now, obs.KindFaultHolddown).WithCause("hysteresis").WithF(obs.Fields{
			"server": sid, "recent": recent, "hold": hold, "until": e.now + hold,
		}))
	}
	return true
}

// Run executes the simulation to completion (all jobs done) or the MaxTime
// cap, and returns the collected results. The default cap leaves room for
// the drain phase: a job arriving at the end of the horizon may run for
// days (the trace generator's runtime clamp) on top of its queuing delay.
// Each event is routed to the shard state owning its subject.
func (e *Engine) Run() *Result {
	maxTime := e.cfg.MaxTime
	if maxTime == 0 {
		maxTime = 4*float64(e.horizon) + 7*86400
	}
	var crashes []fault.Event
	if e.cfg.Faults.Enabled() {
		// The whole crash/recovery timeline — independent per-server draws
		// plus correlated rack/zone outages, merged per server — is
		// pre-generated from the plan's seeded streams, so it is identical
		// regardless of how the run unfolds. It is generated from the
		// reference topology, not the shard clusters: per-server draws key
		// on global server IDs and domain streams on the reference
		// rack/zone indexes, so every way of cutting one cluster draws the
		// same schedule.
		//
		// Nothing after maxTime is processed, so the schedule stops at the
		// first whole second past it: each stream is drawn sequentially, so a
		// shorter horizon yields a prefix of it, and a merged downtime can
		// then only differ in a recovery that lies past maxTime either way.
		until := e.horizon
		if maxTime < float64(until) {
			until = int64(maxTime) + 1
		}
		sp := e.cfg.Prof.Start("faults.schedule")
		crashes, e.domainSched = fault.FullSchedule(*e.cfg.Faults, e.refTopo, until)
		sp.End()
	}

	// The initial timeline is appended to and heapified once. Every event
	// takes its sequence number; one past maxTime is not stored, because the
	// loop below stops before it could be processed. An arrival's jobID
	// field carries the job's index in e.jobs; a fault event's the server ID
	// (crash/recover) or the index into domainSched (domain markers).
	sp := e.cfg.Prof.Start("timeline.load")
	load := func(t float64, kind eventKind, id int) {
		e.seq++
		if t <= maxTime {
			e.events = append(e.events, event{t: t, kind: kind, jobID: id, seq: e.seq})
		}
	}
	for i, j := range e.jobs {
		load(float64(j.Arrival), evArrival, i)
	}
	// arrive enters a job in byID, so the index holds the arrivals the
	// window can reach — the events stored so far — not the whole trace.
	e.byID = make(map[int]*job.Job, len(e.events))
	load(0, evSched, 0)
	if e.orch {
		load(0, evOrch, 0)
	}
	load(0, evMetrics, 0)
	for _, fe := range crashes {
		kind := evCrash
		if fe.Recover {
			kind = evRecover
		}
		load(fe.T, kind, fe.Server)
	}
	for i := range e.domainSched {
		load(e.domainSched[i].T, evDomain, i)
	}
	e.events.init()
	sp.End()

	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.t > maxTime {
			break
		}
		e.setNow(ev.t)
		sp := e.cfg.Prof.Start(profEventName[ev.kind])
		switch ev.kind {
		case evArrival:
			e.arrive(ev)
		case evFinish:
			e.finishEvent(ev)
		case evDomain:
			AnnounceDomain(e.cfg.Obs, e.now, e.refTopo, e.domainSched[ev.jobID])
		case evCrash:
			e.crashEvent(ev)
		case evRecover:
			e.recoverEvent(ev)
		case evRelease:
			e.shardOf(ev.jobID).releaseHeld(ev.jobID, e.sh.Less)
		case evOrch:
			e.arb.Epoch(e.sh)
			// The orchestrator moves servers through Cluster.Move and
			// Shards.Transfer directly; conservatively treat every
			// orchestrator epoch as a mutation.
			for _, st := range e.sh.States {
				st.MarkExternalChange()
			}
			e.drain()
			if e.completed < len(e.jobs) {
				e.push(e.now+float64(e.cfg.OrchInterval), evOrch, 0, 0)
			}
		case evSched:
			e.schedEvent()
		case evMetrics:
			// Usage is sampled over the trace window only; the drain
			// phase after the last arrival would otherwise dilute the
			// means the paper reports over the measurement period.
			e.sample()
			if next := e.now + metricsInterval; next < float64(e.horizon) && next < maxTime {
				e.push(next, evMetrics, 0, 0)
			}
		}
		if e.audit != nil {
			asp := e.cfg.Prof.Start("audit")
			e.auditAfter(ev)
			asp.End()
		}
		sp.End()
	}
	return e.result()
}

func (e *Engine) arrive(ev event) {
	j := e.jobs[ev.jobID]
	e.byID[j.ID] = j
	target := e.arb.Route(e.sh, j)
	e.jobShard[j.ID] = target
	st := e.sh.States[target]
	hour := int(j.Arrival / 3600)
	if hour < len(e.hourlyArrived) {
		e.hourlyArrived[hour]++
	}
	if rec := e.cfg.Obs; rec.Enabled() {
		rec.Emit(obs.JobEv(e.now, obs.KindJobSubmit, j.ID).WithF(obs.Fields{
			"min_workers": j.MinWorkers, "max_workers": j.MaxWorkers,
			"gpus_per_worker": j.GPUsPerWorker, "work": j.Work,
		}))
	}
	st.Enqueue(j, e.sh.Less)
	e.arrived = append(e.arrived, j)
}

func (e *Engine) finishEvent(ev event) {
	j := e.byID[ev.jobID]
	if j.State != job.Running || ev.version != e.version[j.ID] {
		return // stale event from a superseded allocation
	}
	st := e.shardOf(j.ID)
	st.advance(j)
	if j.Remaining > 1e-6 || j.OverheadLeft > 1e-9 {
		// Numerical safety: reschedule at the recomputed time.
		st.markChanged(j)
		e.drain()
		return
	}
	st.Finish(j)
	e.completed++
	st.drainChanged() // no new finish event needed
	// The job can never run again: drop its stale-event version counter
	// and its shard routing so long traces don't accumulate dead entries.
	delete(e.version, j.ID)
	delete(e.jobShard, j.ID)
}

// AnnounceDomain records the fault.domain marker of a correlated outage at
// t, on either substrate. It is a pure announcement: the member servers'
// crashes and recoveries are ordinary timeline events (fault.FullSchedule
// merges them per server), so the marker only records that they share one
// cause. topo is the unsharded cluster the timeline was drawn over.
func AnnounceDomain(rec *obs.Recorder, t float64, topo fault.Topology, d fault.DomainEvent) {
	if !rec.Enabled() {
		return
	}
	name, servers := "rack", topo.RackServers(d.Domain)
	if d.Zone {
		name, servers = "zone", topo.ZoneServers(d.Domain)
	}
	cause := name + "-down"
	if d.Recover {
		cause = name + "-up"
	}
	rec.Emit(obs.Ev(t, obs.KindFaultDomain).WithCause(cause).WithF(obs.Fields{
		"domain": d.Domain, "servers": len(servers),
	}))
}

func (e *Engine) crashEvent(ev event) {
	sid := ev.jobID
	owner := e.sh.Owner(sid)
	st := e.sh.States[owner]
	if st.CrashServer(sid, e.sh.Less) {
		// A server away from home is on loan, and the crash ended the loan:
		// its quarantined husk transfers home, where it will recover.
		if home := e.sh.Home(sid); home != owner {
			e.sh.Transfer(sid, home, cluster.PoolQuarantine)
		}
		if e.cfg.HystCrashes > 0 {
			e.noteCrash(sid)
		}
		for _, h := range st.takeNewHolds() {
			e.push(h.until, evRelease, h.jobID, 0)
		}
	} else if e.cfg.HystCrashes > 0 {
		// A scheduled crash striking a server still held in quarantine
		// supersedes its pending hysteresis retry: the new outage's own
		// scheduled recovery governs from here.
		e.recoverSeq[sid]++
	}
	e.drain()
}

// recoverEvent recovers a quarantined server on the state that holds it,
// which is its home: the crash already sent an on-loan casualty there.
func (e *Engine) recoverEvent(ev event) {
	sid := ev.jobID
	st := e.sh.States[e.sh.Owner(sid)]
	if st.Cluster.Server(sid).Pool != cluster.PoolQuarantine {
		return // already back in service: a superseded hold-down retry
	}
	if e.cfg.HystCrashes > 0 && e.holdRecovery(ev) {
		return
	}
	e.lostGPUSec += st.RecoverServer(sid)
}

// schedEvent is the shard-scheduling phase: every training shard whose
// state changed since its scheduler last ran gets a Schedule call over
// purely local state, then first-try bookkeeping and completion-event
// refreshes drain and each shard's epoch summary is emitted in shard ID
// order.
func (e *Engine) schedEvent() {
	train := e.sh.Train()
	rec := e.cfg.Obs
	for n, st := range train {
		ep := &e.epochs[n]
		if rec.Enabled() {
			ep.queue, ep.starts = len(st.Pending), st.Starts
			ep.preempt, ep.scale = st.Preemptions, st.ScalingOps
		}
		st.Epoch++
		// Quiescent-epoch skip. Obs runs always schedule: a pass that
		// changes nothing still emits decision-trace events (e.g. the
		// phase-2 summary), and the golden stream pins those bytes.
		ver := st.Version()
		ep.run = !(ep.skipOK && !rec.Enabled() && ep.verSet && ver == ep.startVer)
		if ep.run {
			ep.startVer, ep.verSet = ver, true
		} else {
			e.skippedEpochs++
		}
	}
	for n, st := range train {
		if e.epochs[n].run {
			e.sh.Scheds[n].Schedule(st)
		}
	}
	e.noteFirstTry()
	e.drain()
	if rec.Enabled() {
		for n, st := range train {
			ep := &e.epochs[n]
			freeTrain, freeLoan := st.FreeSchedulableGPUs()
			f := obs.Fields{
				"epoch": st.Epoch, "queue_before": ep.queue, "queue_after": len(st.Pending),
				"running": len(st.Running), "started": st.Starts - ep.starts,
				"preempted":   st.Preemptions - ep.preempt,
				"scaling_ops": st.ScalingOps - ep.scale,
				"free_train":  freeTrain, "free_loan": freeLoan,
				"on_loan_srv": st.Cluster.PoolSize(cluster.PoolOnLoan),
			}
			if e.sh.Tagged {
				f["shard"] = n
			}
			rec.Emit(obs.Ev(e.now, obs.KindSchedEpoch).WithF(f))
		}
	}
	if e.completed < len(e.jobs) {
		e.push(e.now+float64(e.cfg.SchedInterval), evSched, 0, 0)
	}
}

// noteFirstTry counts jobs that failed to get resources on their first
// scheduling attempt (Figure 2's definition of a queuing job). Only jobs
// that arrived since the previous scheduler epoch can be first-try misses —
// scheduler epochs are SchedInterval apart, so "arrived within the last
// SchedInterval" and "arrived since the last epoch" select the same jobs —
// which makes the per-epoch cost proportional to new arrivals, not to the
// whole pending queue. With auditing on, auditFirstTry recounts the epoch's
// misses by that whole-queue scan.
func (e *Engine) noteFirstTry() {
	missed := 0
	for _, j := range e.arrived {
		if j.State != job.Pending || j.Started || j.Preemptions > 0 {
			continue
		}
		missed++
		hour := int(j.Arrival / 3600)
		if hour < len(e.hourlyQueued) {
			e.hourlyQueued[hour]++
		}
	}
	e.arrived = e.arrived[:0]
	if e.audit != nil {
		e.auditFirstTry(missed)
	}
}

// sample appends one usage sample, with per-pool sums taken across shards.
// The inference workload always runs on the servers remaining in the
// inference pool: each state that carries a utilization series has its busy
// GPU count follow that series over its full nominal size (its inference
// pool plus the GPUs it currently has out on loan), capped by what is not
// on loan.
func (e *Engine) sample() {
	var usedTrain, totTrain, usedLoan, totLoan, totInf int
	for _, st := range e.sh.States {
		c := st.Cluster
		usedTrain += c.UsedGPUs(cluster.PoolTraining)
		totTrain += c.TotalGPUs(cluster.PoolTraining)
		usedLoan += c.UsedGPUs(cluster.PoolOnLoan)
		totLoan += c.TotalGPUs(cluster.PoolOnLoan)
		totInf += c.TotalGPUs(cluster.PoolInference)
	}
	totInf += totLoan
	if totTrain > 0 {
		e.trainUsage.Append(float64(usedTrain) / float64(totTrain))
	}
	if totLoan > 0 {
		e.onLoanUsage.Append(float64(usedLoan) / float64(totLoan))
	} else {
		e.onLoanUsage.Append(math.NaN())
	}
	if totTrain+totInf == 0 {
		// A degenerate cluster (no capacity at all, e.g. everything crashed
		// and quarantined) appends nothing, mirroring the trainUsage guard
		// above — an unguarded divide here poisoned the overall-usage mean
		// with NaN.
		return
	}
	clear(e.loanFrom)
	for _, st := range e.sh.Train() {
		st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
			e.loanFrom[e.sh.Home(s.ID)] += s.NumGPUs
			return true
		})
	}
	infBusy := 0.0
	for i, util := range e.infUtil {
		nominal := e.sh.States[i].Cluster.TotalGPUs(cluster.PoolInference) + e.loanFrom[i]
		if util == nil || nominal == 0 {
			continue
		}
		busy := util(int64(e.now)) * float64(nominal)
		if maxBusy := float64(nominal - e.loanFrom[i]); busy > maxBusy {
			busy = maxBusy
		}
		infBusy += busy
	}
	e.overallUsage.Append((float64(usedTrain+usedLoan) + infBusy) / float64(totTrain+totInf))
}
