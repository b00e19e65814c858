package testbed

import (
	"errors"
	"fmt"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

// Config parameterizes a testbed run. Intervals are simulated seconds. The
// scheme-side values (intervals, preemption overhead, throughput model) are
// taken literally: lyra.RunTestbed resolves their defaults from the
// lyra.Config, the one place a scheme is described.
type Config struct {
	Cluster cluster.Config
	// SchedInterval and OrchInterval are the scheduler tick and the
	// orchestrator epoch; both must be positive.
	SchedInterval float64
	OrchInterval  float64
	// PreemptOverhead is the restart cost for preempted jobs (the paper
	// measures 63 s on this testbed and feeds it back into the simulator).
	PreemptOverhead float64
	// Scaling is the throughput model.
	Scaling job.ScalingModel
	// MaxSimTime caps the run (simulated seconds); 0 means 4x the trace
	// horizon.
	MaxSimTime float64
	// Audit enables the invariant audit layer (internal/invariant): after
	// every scheduler tick the conservation/legality suite is checked
	// over the shared state, panicking with a structured report on the
	// first violation. On in all tests, off by default.
	Audit bool
	// Obs is the optional structured event recorder (internal/obs): the
	// shared state emits the job lifecycle stream, the tick loop emits
	// scheduler epoch summaries, and the resource manager emits container
	// transitions (launch/ready/kill/release). Nil disables recording at
	// the cost of one nil check per site.
	Obs *obs.Recorder
	// Faults is the optional deterministic fault-injection plan
	// (internal/fault). The crash/recovery timeline, rack and zone outages
	// included, is the simulator's: fault.FullSchedule over this cluster.
	// Launch failures draw from the injector in launch order, which is
	// job-ID order within a tick (DESIGN.md §8). Nil injects nothing.
	Faults *fault.Plan
}

// launchDelay is the container start latency in simulated seconds.
const launchDelay = 5

// Testbed wires the prototype together. The scheduler and orchestrator are
// the exact production code paths (internal/sched, internal/orchestrator);
// the testbed supplies a tick-stepped substrate instead of the event-driven
// one.
type Testbed struct {
	cfg Config
	rm  *ResourceManager

	st          *sim.State
	sched       sim.Scheduler
	orch        *orchestrator.Orchestrator
	controllers map[int]*Controller
	jobs        []*job.Job // the trace, in arrival order
	arrived     int        // jobs[:arrived] have been admitted
	completed   int

	audit *invariant.Auditor

	// Fault machinery (nil / empty without a plan): the pre-generated
	// crash/recovery timeline and outage markers with their cursors, the
	// GPU-seconds recoveries returned, the per-job launch-retry state, and
	// the launch-failure injector.
	faultEvents    []fault.Event
	faultIdx       int
	domains        []fault.DomainEvent
	domainIdx      int
	lostGPUSec     float64
	launchRetry    map[int]*launchRetry
	injector       *fault.Injector
	launchFailures int
}

// launchRetry tracks one job's consecutive container-launch failures and
// the backoff deadline before the next attempt.
type launchRetry struct {
	attempts int
	nextTry  float64 // simulated time before which no relaunch is tried
}

// New builds a testbed over the given trace and an assembled scheme: the
// scheduler and, for capacity loaning, the orchestrator over the inference
// side the caller built (nil for no loaning).
func New(cfg Config, tr *trace.Trace, sched sim.Scheduler, orch *orchestrator.Orchestrator) *Testbed {
	if cfg.SchedInterval <= 0 || cfg.OrchInterval <= 0 {
		panic(fmt.Sprintf("testbed: intervals must be positive (sched %g, orch %g)", cfg.SchedInterval, cfg.OrchInterval))
	}
	c := cluster.New(cfg.Cluster)
	tb := &Testbed{
		cfg:         cfg,
		rm:          NewResourceManager(launchDelay),
		st:          sim.NewState(c, cfg.Scaling, cfg.PreemptOverhead),
		sched:       sched,
		orch:        orch,
		controllers: make(map[int]*Controller),
		jobs:        tr.Jobs,
	}
	if cfg.Audit {
		tb.audit = invariant.New()
	}
	if cfg.Faults.Enabled() {
		tb.launchRetry = make(map[int]*launchRetry)
		tb.injector = fault.NewInjector(cfg.Faults)
		sim.StampStragglers(cfg.Faults, tr.Jobs)
	}
	tb.st.Obs = cfg.Obs
	tb.rm.Obs = cfg.Obs
	tb.rm.Injector = tb.injector
	return tb
}

// Run drives the testbed to completion (all jobs finished) or the time cap
// and returns the run's summary — sim.Summarize over the shared state, as
// for an engine run — with the prototype's own counters attached.
//
// The first tick is t = 0, like the engine's first epochs, and within a tick
// the order is the engine's order for events sharing a timestamp: progress
// and completions, faults, arrivals, the orchestrator, the scheduler. Progress
// comes first for a second reason — every running job is stamped current
// before anything else can mutate it, so State never credits an interval the
// controller already granted (see sim.State.Retire).
func (tb *Testbed) Run(horizon int64) *sim.Result {
	maxSim := tb.cfg.MaxSimTime
	if maxSim == 0 {
		maxSim = 4 * float64(horizon)
	}
	if tb.cfg.Faults.Enabled() {
		tb.faultEvents, tb.domains = fault.FullSchedule(*tb.cfg.Faults, tb.st.Cluster, horizon)
	}
	now, nextOrch := 0.0, 0.0
	for {
		tb.st.Now = now
		tb.rm.Advance(now)
		tb.tickProgress(now)
		tb.applyFaults(now)
		tb.admitArrivals(now)
		if tb.orch != nil && now >= nextOrch {
			tb.orch.Epoch(tb.st)
			nextOrch = now + tb.cfg.OrchInterval
		}
		rec := tb.st.Obs
		var qBefore, startsBefore, preemptBefore int
		if rec.Enabled() {
			qBefore, startsBefore, preemptBefore = len(tb.st.Pending), tb.st.Starts, tb.st.Preemptions
		}
		tb.st.Epoch++
		tb.sched.Schedule(tb.st)
		tb.reconcileContainers(now)
		if rec.Enabled() {
			rec.Emit(obs.Ev(now, obs.KindSchedEpoch).WithF(obs.Fields{
				"epoch": tb.st.Epoch, "queue_before": qBefore, "queue_after": len(tb.st.Pending),
				"running": len(tb.st.Running), "started": tb.st.Starts - startsBefore,
				"preempted":  tb.st.Preemptions - preemptBefore,
				"containers": tb.rm.Live(),
			}))
		}
		if tb.audit != nil {
			ctx := fmt.Sprintf("testbed:tick t=%g", now)
			if err := tb.audit.Audit(tb.st.AuditView(ctx, tb.sched.Less)); err != nil {
				panic(err)
			}
		}
		if tb.completed >= len(tb.jobs) || now > maxSim {
			break
		}
		now += tb.cfg.SchedInterval
	}
	res := sim.Summarize(tb.jobs, tb.st)
	res.LostCapacityGPUSec = sim.LostCapacity(tb.lostGPUSec, tb.st)
	launched, killed := tb.rm.Stats()
	c := tb.st.Cluster
	res.Prototype = &sim.PrototypeStats{
		ContainersLaunched: launched,
		ContainersKilled:   killed,
		LaunchFailures:     tb.launchFailures,
		LyraServers:        c.PoolSize(cluster.PoolTraining) + c.PoolSize(cluster.PoolOnLoan),
		InferenceServers:   c.PoolSize(cluster.PoolInference),
	}
	return res
}

// applyFaults replays every scheduled outage marker, crash and recovery
// whose time has passed, markers first as in the engine. Crashes and
// recoveries are the simulator's State transitions: a crashed server is
// emptied through the checkpoint-restart / scale-in paths and quarantined
// with its return pool recorded, and its containers die with it (the
// reconcile loop kills the containers of preempted jobs this same tick).
// The pool move is the whole handover: both schedulers read the pools.
func (tb *Testbed) applyFaults(now float64) {
	for ; tb.domainIdx < len(tb.domains) && tb.domains[tb.domainIdx].T <= now; tb.domainIdx++ {
		sim.AnnounceDomain(tb.st.Obs, now, tb.st.Cluster, tb.domains[tb.domainIdx])
	}
	for ; tb.faultIdx < len(tb.faultEvents) && tb.faultEvents[tb.faultIdx].T <= now; tb.faultIdx++ {
		fe := tb.faultEvents[tb.faultIdx]
		if fe.Recover {
			tb.lostGPUSec += tb.st.RecoverServer(fe.Server)
		} else {
			tb.st.CrashServer(fe.Server, tb.sched.Less)
		}
	}
}

// admitArrivals moves trace jobs whose arrival has passed into the queue.
func (tb *Testbed) admitArrivals(now float64) {
	for tb.arrived < len(tb.jobs) && float64(tb.jobs[tb.arrived].Arrival) <= now {
		tb.st.Enqueue(tb.jobs[tb.arrived], tb.sched.Less)
		tb.arrived++
	}
}

// tickProgress advances every running job's controller and completes
// finished jobs, in job-ID order. (Every running job has a controller: jobs
// start only in Schedule, and reconcileContainers follows it in each tick.)
// It runs before anything else in the tick mutates the state.
func (tb *Testbed) tickProgress(now float64) {
	var finished []*job.Job
	for _, j := range tb.st.RunningOrdered() {
		if tb.controllers[j.ID].Tick(now) {
			finished = append(finished, j)
		}
	}
	for _, j := range finished {
		for _, c := range tb.rm.JobContainers(j.ID) {
			if err := tb.rm.Release(c.ID); err != nil {
				tb.failContainer("release", j.ID, c.ID, err)
			}
		}
		tb.dropController(j.ID)
		tb.st.Finish(j)
		tb.completed++
	}
}

// reconcileContainers aligns the resource manager's containers with each
// running job's scheduler-assigned workers: launch what is missing and kill
// what was removed — jobs in job-ID order, containers in container-ID
// order, so container IDs, the kill order and which launch an injected
// failure hits are functions of the schedule alone. Injected launch failures are retried with capped
// exponential backoff (in simulated time, tick-aligned); a job whose
// launches keep failing past the retry bound is requeued through the
// checkpoint-restart path rather than left wedged — the terminal path is a
// structured obs event, not a panic.
func (tb *Testbed) reconcileContainers(now float64) {
	var terminal []*job.Job
	for _, j := range tb.st.RunningOrdered() {
		if tb.controllers[j.ID] == nil {
			tb.controllers[j.ID] = NewController(j, tb.st, tb.rm, now)
		}
		// Match live containers to assigned workers by (server, flexible)
		// slot: need counts the workers of each slot no container serves
		// yet, surplus collects the containers no worker claims.
		type slot struct {
			server   int
			flexible bool
		}
		need := make(map[slot]int)
		for _, w := range j.Workers {
			need[slot{w.Server, w.Flexible}]++
		}
		var surplus []*Container
		for _, c := range tb.rm.JobContainers(j.ID) {
			if k := (slot{c.Server, c.Flexible}); need[k] > 0 {
				need[k]--
			} else {
				surplus = append(surplus, c)
			}
		}
		// Launch missing workers (unless the job is in launch backoff —
		// matching still runs so surviving containers are not reaped).
		lr := tb.launchRetry[j.ID]
		skipLaunch := lr != nil && now < lr.nextTry
		failedThisTick := false
		for _, w := range j.Workers {
			k := slot{w.Server, w.Flexible}
			if need[k] == 0 || skipLaunch || failedThisTick {
				continue
			}
			need[k]--
			if _, err := tb.rm.Launch(j.ID, w.Server, w.GPUs, w.Flexible); err != nil {
				if !errors.Is(err, fault.ErrInjectedLaunch) {
					tb.failContainer("launch", j.ID, 0, err)
				}
				failedThisTick = true
			}
		}
		switch {
		case failedThisTick:
			if lr == nil {
				lr = &launchRetry{}
				tb.launchRetry[j.ID] = lr
			}
			lr.attempts++
			tb.launchFailures++
			if lr.attempts > tb.injector.MaxRetries() {
				terminal = append(terminal, j)
			} else {
				shift := lr.attempts - 1
				if shift > 3 {
					shift = 3
				}
				lr.nextTry = now + float64(int(1)<<shift)*tb.cfg.SchedInterval
			}
		case !skipLaunch && lr != nil:
			delete(tb.launchRetry, j.ID) // a clean tick resets the count
		}
		// Kill leftovers (scale-ins and migrations).
		for _, c := range surplus {
			if err := tb.rm.Kill(c.ID); err != nil {
				tb.failContainer("kill", j.ID, c.ID, err)
			}
		}
	}
	// Jobs whose launches exhausted the retry budget restart from their
	// last checkpoint: requeued (never lost), overhead charged, containers
	// reaped by the non-running sweep just below.
	for _, j := range terminal {
		delete(tb.launchRetry, j.ID)
		saved := tb.st.Cause
		tb.st.Cause = "launch-failure"
		tb.st.Preempt(j, tb.sched.Less)
		tb.st.Cause = saved
		if tb.st.Obs.Enabled() {
			tb.st.Obs.Emit(obs.JobEv(now, obs.KindJobRestart, j.ID).WithCause("launch-failure").
				WithF(obs.Fields{"attempts": tb.injector.MaxRetries() + 1}))
		}
	}
	// Jobs no longer running (preempted) lose all containers.
	var stopped []int
	for id, ct := range tb.controllers {
		if ct.job.State != job.Running {
			stopped = append(stopped, id)
		}
	}
	sort.Ints(stopped)
	for _, id := range stopped {
		for _, c := range tb.rm.JobContainers(id) {
			if err := tb.rm.Kill(c.ID); err != nil {
				tb.failContainer("kill", id, c.ID, err)
			}
		}
		tb.dropController(id)
	}
}

// failContainer raises a structured violation for a container operation
// that should never fail under correct reconciliation bookkeeping.
func (tb *Testbed) failContainer(op string, jobID, containerID int, err error) {
	invariant.Fail(fmt.Sprintf("testbed:%s t=%g job=%d", op, tb.st.Now, jobID), invariant.Violation{
		Rule:     invariant.RuleLifecycle,
		Subject:  fmt.Sprintf("container %d (job %d)", containerID, jobID),
		Expected: fmt.Sprintf("%s of a live container to succeed", op),
		Actual:   err.Error(),
	})
}

// dropController forgets a job that finished or stopped running.
func (tb *Testbed) dropController(id int) {
	delete(tb.controllers, id)
	delete(tb.launchRetry, id)
}
