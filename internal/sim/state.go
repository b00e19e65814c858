// Package sim is the discrete-event cluster simulator used for Lyra's
// large-scale evaluation (§7.1). It replays a job trace against a modeled
// cluster, delegating decisions to a pluggable Scheduler (job-level
// allocation and placement, §5) and Orchestrator (capacity loaning and
// reclaiming, §4), and records the metrics the paper reports: queuing time,
// JCT, GPU usage series, preemption counts and collateral damage.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/prof"
)

// Scheduler decides job allocation and placement. Schedule is invoked every
// scheduling epoch and mutates the state through its methods (Start,
// AddWorkers, RemoveFlexible...). Less defines the queue priority order the
// engine maintains for Pending (e.g. arrival time for FIFO, estimated
// runtime for SJF).
type Scheduler interface {
	Less(a, b *job.Job) bool
	Schedule(st *State)
}

// Orchestrator executes capacity loaning: each orchestrator epoch it may
// move servers between the inference and on-loan pools and preempt or scale
// in jobs via the state.
type Orchestrator interface {
	Epoch(st *State)
}

// State is the scheduler-visible simulation state. All job/cluster mutation
// must go through its methods so that work progress is advanced before an
// allocation changes and so the engine learns which completion events to
// refresh.
type State struct {
	Now     float64
	Cluster *cluster.Cluster
	Scaling job.ScalingModel

	// Pending is the job queue, kept sorted by the scheduler's Less. Jobs
	// are inserted by the engine on arrival and re-queued preemption, and
	// removed by CompactPending after scheduling.
	Pending []*job.Job
	// Running indexes running jobs by ID.
	Running map[int]*job.Job

	lastUpdate      map[int]float64
	changed         []*job.Job // marked since the last drain; repeats allowed
	preemptOverhead float64

	// audit makes every read of a maintained view recount it first
	// (checkViews); NewShards sets it from Config.Audit.
	audit bool

	// version counts scheduler-visible mutations (queue, lifecycle,
	// allocation, progress, pool moves). The engine snapshots it around
	// Schedule calls: when a memoryless scheduler last ran against this
	// exact version and changed nothing, the epoch is quiescent and the
	// pass is skipped (engine.go).
	version uint64

	// Maintained ordered views over Running (DESIGN.md §10): the running
	// jobs, and the elastic candidates among them, in ascending ID order.
	// Start inserts a job at its ID position, Preempt and Finish remove it,
	// so a read costs nothing and no epoch re-sorts the running set.
	runningIdx []*job.Job
	elasticIdx []*job.Job
	flexCands  []flexCand // RemoveFlexibleWorkers' reused candidate list

	workerChunk []job.Worker // the unused tail of workerWindow's chunk
	chunkLen    int          // that chunk's length

	// flexNominal is Σ FlexibleWorkers × GPUsPerWorker over running elastic
	// candidates (Elastic && FlexRange > 0) — the flexible capacity term of
	// phase 2 / AFS, maintained at every worker add/remove instead of
	// recounted per epoch.
	flexNominal int

	// Obs is the optional structured event recorder (internal/obs). The
	// nil value is the disabled fast path: every emission site pays one
	// nil check and nothing else, the same discipline as the audit flag.
	// State methods emit the job lifecycle stream (queue/start/preempt/
	// scale/finish); the engine, orchestrator and testbed add their own
	// decision events through the same recorder.
	Obs *obs.Recorder
	// Prof is the optional wall-clock span profiler (internal/prof),
	// nil-disabled under the same discipline as Obs. Schedulers and the
	// orchestrator open phase spans on it; it is strictly wall-clock-only
	// and never feeds the deterministic Obs stream (DESIGN.md §12).
	Prof *prof.Profiler
	// Cause names the decider on whose behalf the current mutation runs
	// ("reclaim", "phase2", "make-room", ...); it is recorded on preempt
	// and re-queue events. Callers set it around a decision and clear it
	// after; empty means the default cause for the event kind.
	Cause string
	// Epoch counts scheduler epochs (simulator) or ticks (testbed); start
	// events record the deciding epoch.
	Epoch int64
	// Starts counts Start transitions, including resumes after preemption.
	Starts int

	// Restart backoff (degraded mode, DESIGN.md §13). When backoffBase > 0
	// a crash-preempted job is held out of the pending queue for
	// min(base·2^N, cap) seconds (N = its prior crash count) instead of
	// requeuing immediately; the engine requeues it via releaseHeld when
	// the hold expires. Held jobs are Pending-state but invisible to the
	// scheduler and the orchestrator's demand estimate; the hold counts as
	// queue time. All zero/nil when the policy is off — Preempt then takes
	// the exact pre-backoff path.
	backoffBase float64
	backoffCap  float64
	crashCount  map[int]int      // job ID -> crash-preemptions applied so far
	held        map[int]*job.Job // jobs waiting out a backoff hold
	newHolds    []holdRec        // holds placed since the engine last drained them

	// Counters surfaced in results.
	Preemptions   int
	ScalingOps    int
	ReclaimOps    int
	ReclaimedSrv  int
	VacatedGPUs   int // total GPUs vacated by reclaiming (incl. collateral)
	DemandGPUs    int // total GPUs demanded by reclaiming
	FlexSatisfied int // reclaim demand satisfied by flexible-only release, in servers
	Crashes       int // injected server crashes applied
	Recoveries    int // crashed servers returned to service
}

// holdRec is one backoff hold the engine must schedule a release for.
type holdRec struct {
	jobID int
	until float64
}

// NewState builds a bare State over c: what NewShards wraps in a topology,
// what the prototype's tick loop (internal/testbed) drives directly, and
// what unit tests hand a Schedule or Epoch call without an engine.
func NewState(c *cluster.Cluster, scaling job.ScalingModel, preemptOverhead float64) *State {
	return &State{
		Cluster:         c,
		Scaling:         scaling,
		Running:         make(map[int]*job.Job),
		lastUpdate:      make(map[int]float64),
		preemptOverhead: preemptOverhead,
	}
}

// Retire is the one place training progress moves, on either substrate: it
// grants j dt seconds of running time as of Now, of which pending restart
// overhead is consumed first and the rest is credited at share of the
// allocation's throughput, and stamps j current as of Now so no later call
// credits the same interval again. The engine reaches it through advance
// (the whole interval since the last stamp, at share 1); the prototype's
// per-job controller calls it once per running job at the top of every tick
// with the seconds its ready containers trained and their fraction of the
// allocation — so every advance a scheduler, orchestrator or crash call
// then makes in that tick sees dt = 0. Nothing else may write Remaining or
// OverheadLeft of a running job.
func (st *State) Retire(j *job.Job, dt, share float64) {
	st.lastUpdate[j.ID] = st.Now
	if dt <= 0 || j.State != job.Running {
		return
	}
	// Progress (Remaining, OverheadLeft) is a scheduler-visible input: JCT
	// reductions and marginal gains read it, so retiring work ends any
	// quiescent window.
	st.bump()
	if j.OverheadLeft > 0 {
		if dt <= j.OverheadLeft {
			j.OverheadLeft -= dt
			return
		}
		dt -= j.OverheadLeft
		j.OverheadLeft = 0
	}
	j.Advance(dt*share, st.Scaling)
}

// advance retires work on j up to Now at its full allocation's throughput:
// Retire over the interval since j was last stamped.
func (st *State) advance(j *job.Job) {
	last, ok := st.lastUpdate[j.ID]
	if !ok {
		st.lastUpdate[j.ID] = st.Now
		return
	}
	st.Retire(j, st.Now-last, 1)
}

// byID orders jobs by ascending ID, the order of every maintained view.
func byID(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) }

func (st *State) markChanged(j *job.Job) { st.changed = append(st.changed, j) }

// bump records a scheduler-visible state mutation; see the version field.
func (st *State) bump() { st.version++ }

// Version returns the mutation counter. Two reads returning the same value
// bracket a window in which no scheduler-visible input changed.
func (st *State) Version() uint64 { return st.version }

// MarkExternalChange bumps the version on behalf of components that mutate
// the cluster directly instead of through State methods (the orchestrator
// moves servers between pools via Cluster.Move).
func (st *State) MarkExternalChange() { st.bump() }

// elasticCandidate reports whether j participates in flexible-demand
// allocation (phase 2, AFS, Pollux resizing). Both fields are immutable
// after trace generation.
func elasticCandidate(j *job.Job) bool { return j.Elastic && j.FlexRange() > 0 }

// noteFlexAdded / noteFlexRemoved maintain flexNominal as flexible workers
// are placed and released.
func (st *State) noteFlexAdded(j *job.Job, workers []job.Worker) {
	if !elasticCandidate(j) {
		return
	}
	for _, w := range workers {
		if w.Flexible {
			st.flexNominal += j.GPUsPerWorker
		}
	}
}

func (st *State) noteFlexRemoved(j *job.Job, workers int) {
	if !elasticCandidate(j) || workers == 0 {
		return
	}
	st.flexNominal -= workers * j.GPUsPerWorker
}

// insertByID and removeByID keep an ID-ordered view current across one
// lifecycle transition.
func insertByID(view []*job.Job, j *job.Job) []*job.Job {
	i, _ := slices.BinarySearchFunc(view, j, byID)
	return slices.Insert(view, i, j)
}

func removeByID(view []*job.Job, j *job.Job) []*job.Job {
	if i, ok := slices.BinarySearchFunc(view, j, byID); ok {
		return slices.Delete(view, i, i+1)
	}
	return view
}

// joinViews enters a job that starts running into the ordered views, and
// leaveViews takes one that stops running out of them.
func (st *State) joinViews(j *job.Job) {
	st.runningIdx = insertByID(st.runningIdx, j)
	if elasticCandidate(j) {
		st.elasticIdx = insertByID(st.elasticIdx, j)
	}
}

func (st *State) leaveViews(j *job.Job) {
	st.runningIdx = removeByID(st.runningIdx, j)
	if elasticCandidate(j) {
		st.elasticIdx = removeByID(st.elasticIdx, j)
	}
}

// RunningOrdered returns the running jobs in ascending ID order — the
// deterministic iteration order every scheduler uses. The returned slice is
// owned by the state and valid until the next lifecycle mutation (Start,
// Preempt and Finish shift it in place); callers must not append to or
// retain it.
func (st *State) RunningOrdered() []*job.Job {
	st.checkViews()
	return st.runningIdx
}

// ElasticOrdered returns the running elastic candidates (Elastic &&
// FlexRange > 0) in ascending ID order, under the same ownership rules as
// RunningOrdered.
func (st *State) ElasticOrdered() []*job.Job {
	st.checkViews()
	return st.elasticIdx
}

// FlexNominalGPUs returns Σ FlexibleWorkers × GPUsPerWorker over the
// running elastic candidates: the GPUs phase 2 may reassign on top of the
// idle ones (§5.2 counts "GPUs being used by flexible workers" as
// available).
func (st *State) FlexNominalGPUs() int {
	st.checkViews()
	return st.flexNominal
}

// checkViews is the dirty-set layer's oracle at the point of use: with
// auditing on, a maintained view is recounted before a scheduler reads it,
// so the first wrong read fails instead of the decisions made from it.
func (st *State) checkViews() {
	if !st.audit {
		return
	}
	if err := st.AuditIncremental(); err != nil {
		invariant.Fail(fmt.Sprintf("sim:view-read t=%g", st.Now), invariant.Violation{
			Rule:     invariant.RuleIndexConsistency,
			Subject:  "maintained running-job views",
			Expected: "equal to a recount from the Running map",
			Actual:   err.Error(),
		})
	}
}

// AuditIncremental recounts every maintained view from the Running map
// (DESIGN.md §10): each running job's FlexibleWorkers, the flexible-GPU
// sum, the ID-sorted running list and its elastic-candidate subset, which
// Start, Preempt and Finish update in place.
// The engine runs it after every event when auditing is on, and checkViews
// before every read.
func (st *State) AuditIncremental() error {
	wantFlex := 0
	for _, j := range st.Running {
		n := j.CountFlexible()
		if n != j.FlexibleWorkers() {
			return fmt.Errorf("job %d: FlexibleWorkers=%d, recount=%d", j.ID, j.FlexibleWorkers(), n)
		}
		if elasticCandidate(j) {
			wantFlex += n * j.GPUsPerWorker
		}
	}
	if wantFlex != st.flexNominal {
		return fmt.Errorf("flexNominal=%d, recount=%d", st.flexNominal, wantFlex)
	}
	want := make([]*job.Job, 0, len(st.Running))
	for _, j := range st.Running {
		want = append(want, j)
	}
	sort.Slice(want, func(i, k int) bool { return want[i].ID < want[k].ID })
	if err := sameJobs("runningIdx", st.runningIdx, want); err != nil {
		return err
	}
	elastic := want[:0]
	for _, j := range want {
		if elasticCandidate(j) {
			elastic = append(elastic, j)
		}
	}
	return sameJobs("elasticIdx", st.elasticIdx, elastic)
}

// sameJobs compares a maintained view with its recount, element by element.
func sameJobs(name string, got, want []*job.Job) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d jobs, recount %d", name, len(got), len(want))
	}
	for i, j := range got {
		if j != want[i] {
			return fmt.Errorf("%s[%d] is job %d, recount has job %d", name, i, j.ID, want[i].ID)
		}
	}
	return nil
}

// Enqueue inserts j into Pending at its priority position. The engine calls
// it on arrival and State on every re-queue; the prototype's tick loop
// calls it when a submission arrives, and unit tests to build a queue.
func (st *State) Enqueue(j *job.Job, less func(a, b *job.Job) bool) {
	st.bump()
	i := sort.Search(len(st.Pending), func(k int) bool { return less(j, st.Pending[k]) })
	st.Pending = append(st.Pending, nil)
	copy(st.Pending[i+1:], st.Pending[i:])
	st.Pending[i] = j
	if st.Obs.Enabled() {
		cause := st.Cause
		if cause == "" {
			cause = "arrival"
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobQueue, j.ID).WithCause(cause).
			WithF(obs.Fields{"pos": i, "depth": len(st.Pending)}))
	}
}

// Start transitions a pending job to running with the given placed workers.
// The worker GPUs must already be allocated on the cluster by the placement
// code; Start records them on the job and accounts queuing time.
func (st *State) Start(j *job.Job, workers []job.Worker) {
	if j.State != job.Pending {
		invariant.Fail(fmt.Sprintf("sim:start t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state pending at Start",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	now := int64(st.Now)
	j.QueueTime += now - j.LastEnqueue
	if !j.Started {
		j.Started = true
		j.StartTime = now
	}
	j.State = job.Running
	if j.Workers == nil {
		j.Workers = st.workerWindow(max(j.MaxWorkers, len(workers)))
	}
	j.Workers = append(j.Workers[:0], workers...)
	st.Running[j.ID] = j
	st.lastUpdate[j.ID] = st.Now
	st.Starts++
	st.bump()
	st.joinViews(j)
	st.noteFlexAdded(j, workers)
	st.markChanged(j)
	if st.Obs.Enabled() {
		cause := "first"
		if j.Preemptions > 0 {
			cause = "resume"
		}
		gpus := 0
		for _, w := range workers {
			gpus += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobStart, j.ID).WithCause(cause).WithF(obs.Fields{
			"workers": len(workers), "gpus": gpus, "epoch": st.Epoch, "queue_time": j.QueueTime,
		}))
	}
}

// workerWindow carves an empty worker list of capacity n from the state's
// chunk. Chunks double from 64 to 1,024 workers, so a small run pays for
// few. The capacity is capped, so an append past n reallocates instead of
// writing into a neighbour's window.
func (st *State) workerWindow(n int) []job.Worker {
	if len(st.workerChunk) < n {
		st.chunkLen = min(max(2*st.chunkLen, 64), 1024)
		st.workerChunk = make([]job.Worker, max(n, st.chunkLen))
	}
	w := st.workerChunk[:0:n]
	st.workerChunk = st.workerChunk[n:]
	return w
}

// AddWorkers scales a running job out by the given placed workers (already
// allocated on the cluster).
func (st *State) AddWorkers(j *job.Job, workers []job.Worker) {
	if j.State != job.Running {
		invariant.Fail(fmt.Sprintf("sim:scale-out t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state running at AddWorkers",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	st.advance(j)
	j.Workers = append(j.Workers, workers...)
	st.ScalingOps++
	st.bump()
	st.noteFlexAdded(j, workers)
	st.markChanged(j)
	if st.Obs.Enabled() {
		gpus := 0
		for _, w := range workers {
			gpus += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobScaleUp, j.ID).WithCause(st.Cause).WithF(obs.Fields{
			"added": len(workers), "gpus": gpus, "workers": j.NumWorkers(),
		}))
	}
}

// RemoveFlexibleOnServer scales j in by removing up to n of its flexible
// workers placed on server sid, releasing their GPUs. It returns the number
// of workers removed.
func (st *State) RemoveFlexibleOnServer(j *job.Job, sid, n int) int {
	return st.removeFlexible(j, func(i int, w job.Worker) bool {
		if w.Server != sid || n == 0 {
			return false
		}
		n--
		return true
	})
}

// RemoveFlexibleWorkers scales j in by up to n flexible workers anywhere,
// releasing their GPUs, and returns the number removed. Workers on the
// least-loaded servers are removed first to reduce fragmentation: vacating
// the lightest server is the removal most likely to empty it, keeping
// whole servers free for gang placement and voluntary loan returns.
func (st *State) RemoveFlexibleWorkers(j *job.Job, n int) int {
	if n <= 0 || j.State != job.Running {
		return 0
	}
	// Rank candidate flexible workers by ascending hosting-server load
	// (measured before any removal). Tie-break keys, in order: server load,
	// server ID, worker index in j.Workers. The idx key makes the comparator
	// total, so the order does not depend on the sort algorithm.
	cands := st.flexCands[:0]
	for i, w := range j.Workers {
		if w.Flexible {
			cands = append(cands, flexCand{idx: i, load: st.Cluster.Server(w.Server).Used(), srv: w.Server})
		}
	}
	st.flexCands = cands
	slices.SortFunc(cands, func(a, b flexCand) int {
		return cmp.Or(cmp.Compare(a.load, b.load), cmp.Compare(a.srv, b.srv), cmp.Compare(a.idx, b.idx))
	})
	// removeFlexible offers the flexible workers in ascending index order,
	// so the chosen ones, re-sorted by index, are matched by one cursor.
	chosen := cands[:min(n, len(cands))]
	slices.SortFunc(chosen, func(a, b flexCand) int { return cmp.Compare(a.idx, b.idx) })
	k := 0
	return st.removeFlexible(j, func(i int, w job.Worker) bool {
		if k < len(chosen) && chosen[k].idx == i {
			k++
			return true
		}
		return false
	})
}

// flexCand is one flexible worker RemoveFlexibleWorkers may remove: its
// index in j.Workers, and its hosting server's ID and load.
type flexCand struct {
	idx, load, srv int
}

// removeFlexible removes j's flexible workers selected by sel (which sees
// each worker's index in the pre-removal j.Workers slice) and releases
// their GPUs.
func (st *State) removeFlexible(j *job.Job, sel func(int, job.Worker) bool) int {
	if j.State != job.Running {
		return 0
	}
	st.advance(j)
	kept := j.Workers[:0]
	removed := 0
	for i, w := range j.Workers {
		if w.Flexible && sel(i, w) {
			if err := st.Cluster.Server(w.Server).Release(j.ID, w.GPUs); err != nil {
				invariant.Fail(fmt.Sprintf("sim:scale-in t=%g job=%d", st.Now, j.ID), invariant.Violation{
					Rule:     invariant.RuleGPUConservation,
					Subject:  fmt.Sprintf("server %d / job %d", w.Server, j.ID),
					Expected: fmt.Sprintf("release of %d flexible GPUs to succeed", w.GPUs),
					Actual:   err.Error(),
				})
			}
			removed++
			continue
		}
		kept = append(kept, w)
	}
	j.Workers = kept
	if removed > 0 {
		st.ScalingOps++
		st.bump()
		st.noteFlexRemoved(j, removed)
		st.markChanged(j)
		if st.Obs.Enabled() {
			st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobScaleDown, j.ID).WithCause(st.Cause).WithF(obs.Fields{
				"removed": removed, "workers": j.NumWorkers(),
			}))
		}
	}
	return removed
}

// Preempt stops a running job, releases all its GPUs, and re-queues it. A
// job without checkpointing loses all progress (§4); either way the restart
// pays the measured preemption overhead (§7.5: 63 s average).
func (st *State) Preempt(j *job.Job, less func(a, b *job.Job) bool) {
	if j.State != job.Running {
		invariant.Fail(fmt.Sprintf("sim:preempt t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state running at Preempt",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	st.advance(j)
	if st.Obs.Enabled() {
		cause := st.Cause
		if cause == "" {
			cause = "preempt"
		}
		held := 0
		for _, w := range j.Workers {
			held += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobPreempt, j.ID).WithCause(cause).WithF(obs.Fields{
			"held_gpus": held, "workers": len(j.Workers), "checkpoint": j.Checkpoint,
		}))
	}
	st.noteFlexRemoved(j, j.FlexibleWorkers())
	for _, w := range j.Workers {
		st.Cluster.Server(w.Server).ReleaseJob(j.ID)
	}
	j.Workers = j.Workers[:0]
	if !j.Checkpoint {
		j.ResetProgress()
	}
	j.OverheadLeft = st.preemptOverhead
	j.State = job.Pending
	j.LastEnqueue = int64(st.Now)
	j.Preemptions++
	st.Preemptions++
	st.bump()
	delete(st.Running, j.ID)
	st.leaveViews(j)
	if st.backoffBase > 0 && st.Cause == "crash" {
		// Restart backoff: the job sits out min(base·2^N, cap) seconds
		// before re-entering the queue, bounding the concurrent-restart
		// storm after a correlated outage. LastEnqueue stays at the
		// preemption time, so the hold counts as queue time.
		st.holdForBackoff(j)
	} else {
		// Re-queue under the preempting decider's cause, never "arrival".
		saved := st.Cause
		if st.Cause == "" {
			st.Cause = "preempt"
		}
		st.Enqueue(j, less)
		st.Cause = saved
	}
	st.markChanged(j)
}

// holdForBackoff records a backoff hold for a crash-preempted job. The
// engine collects the new holds (takeNewHolds) and schedules their release
// events; releaseHeld requeues the job when the hold expires.
func (st *State) holdForBackoff(j *job.Job) {
	n := st.crashCount[j.ID]
	st.crashCount[j.ID] = n + 1
	shift := n
	if shift > 30 {
		shift = 30 // 2^30 · base is far beyond any cap; avoid overflow
	}
	delay := st.backoffBase * float64(uint64(1)<<shift)
	if delay > st.backoffCap {
		delay = st.backoffCap
	}
	until := st.Now + delay
	st.held[j.ID] = j
	st.newHolds = append(st.newHolds, holdRec{jobID: j.ID, until: until})
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobBackoff, j.ID).WithCause("hold").WithF(obs.Fields{
			"attempt": n + 1, "delay": delay, "until": until,
		}))
	}
}

// takeNewHolds returns and clears the backoff holds placed since the last
// call, sorted by job ID for a deterministic release-event push order. The
// result is the state's own buffer, valid until the next hold is placed.
func (st *State) takeNewHolds() []holdRec {
	if len(st.newHolds) == 0 {
		return nil
	}
	out := st.newHolds
	st.newHolds = out[:0]
	slices.SortFunc(out, func(a, b holdRec) int { return cmp.Compare(a.jobID, b.jobID) })
	return out
}

// releaseHeld requeues a job whose backoff hold expired. No-op for unknown
// IDs (the job may never have been held, e.g. when backoff is off).
func (st *State) releaseHeld(id int, less func(a, b *job.Job) bool) {
	j, ok := st.held[id]
	if !ok {
		return
	}
	delete(st.held, id)
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobBackoff, id).WithCause("release").WithF(obs.Fields{
			"waited": st.Now - float64(j.LastEnqueue),
		}))
	}
	saved := st.Cause
	st.Cause = "backoff"
	st.Enqueue(j, less)
	st.Cause = saved
}

// HeldJobs returns the jobs currently sitting out a backoff hold, in
// ascending ID order — the audit view over the held set.
func (st *State) HeldJobs() []*job.Job {
	if len(st.held) == 0 {
		return nil
	}
	out := make([]*job.Job, 0, len(st.held))
	for _, j := range st.held {
		out = append(out, j)
	}
	slices.SortFunc(out, byID)
	return out
}

// Finish completes a running job, releasing its GPUs. The engine calls it
// on a completion event; the prototype's tick loop calls it when a
// controller's tick (Retire) left nothing to do. Per-job bookkeeping that
// exists only to advance progress (lastUpdate) is dropped here so
// multi-week traces do not accumulate dead map entries for completed jobs.
func (st *State) Finish(j *job.Job) {
	st.advance(j)
	st.noteFlexRemoved(j, j.FlexibleWorkers())
	for _, w := range j.Workers {
		st.Cluster.Server(w.Server).ReleaseJob(j.ID)
	}
	j.Workers = nil // the job never runs again: release the array, not just its length
	j.State = job.Completed
	j.FinishTime = int64(st.Now)
	st.bump()
	delete(st.Running, j.ID)
	st.leaveViews(j)
	delete(st.lastUpdate, j.ID)
	st.markChanged(j)
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobFinish, j.ID).WithF(obs.Fields{
			"jct": float64(j.FinishTime - j.Arrival), "queue_time": j.QueueTime, "preemptions": j.Preemptions,
		}))
	}
}

// CrashServer applies an injected crash to server sid, on either substrate:
// every job with a worker there is evicted — scaled in when only flexible
// workers were hit, preempted through the checkpoint-restart path otherwise
// — and the empty server is quarantined out of every scheduler's reach. The
// crash writes the server's quarantine record: it returns to the pool it was
// in, except that a server that dies on loan returns to the inference pool
// (the crash ended the loan; the orchestrator re-loans it on demand), and it
// is down as of Now. It reports false when the crash is a no-op (unknown or
// already-quarantined server). less is the scheduler's queue priority for
// the re-queues.
func (st *State) CrashServer(sid int, less func(a, b *job.Job) bool) bool {
	s := st.Cluster.Server(sid)
	if s == nil || s.Pool == cluster.PoolQuarantine {
		return false
	}
	origin := s.Pool
	preempted, scaledIn := 0, 0
	saved := st.Cause
	st.Cause = "crash"
	var buf [16]int // the evictions below change the server's job list
	for _, id := range s.AppendJobs(buf[:0]) {
		j := st.Running[id]
		if j == nil {
			invariant.Fail(fmt.Sprintf("sim:crash t=%g server=%d", st.Now, sid), invariant.Violation{
				Rule:     invariant.RuleGPUConservation,
				Subject:  fmt.Sprintf("server %d / job %d", sid, id),
				Expected: "every allocation to belong to a running job",
				Actual:   "job not in the Running index",
			})
		}
		if s.FlexibleGPUs(id) == s.JobGPUs(id) {
			// Only elastic surplus workers died: scale in, keep running.
			st.RemoveFlexibleOnServer(j, sid, len(j.Workers))
			scaledIn++
		} else {
			// A base (gang) worker died: the whole job restarts from its
			// last checkpoint, paying the usual preemption overhead.
			st.Preempt(j, less)
			preempted++
			if st.Obs.Enabled() {
				st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobRestart, j.ID).WithCause("crash").
					WithF(obs.Fields{"server": sid}))
			}
		}
	}
	st.Cause = saved
	if err := st.Cluster.Move(sid, cluster.PoolQuarantine); err != nil {
		invariant.Fail(fmt.Sprintf("sim:crash t=%g server=%d", st.Now, sid), invariant.Violation{
			Rule:     invariant.RulePoolMembership,
			Subject:  fmt.Sprintf("server %d", sid),
			Expected: "crashed server empty and movable to quarantine",
			Actual:   err.Error(),
		})
	}
	s.ReturnTo, s.DownSince = origin, st.Now
	if origin == cluster.PoolOnLoan {
		s.ReturnTo = cluster.PoolInference
	}
	st.Crashes++
	st.bump() // quarantine removes schedulable capacity even with no evictions
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindFaultCrash).WithF(obs.Fields{
			"server": sid, "pool": origin.String(), "gpus": s.NumGPUs,
			"preempted": preempted, "scaled_in": scaledIn,
		}))
	}
	return true
}

// RecoverServer returns a quarantined server to the pool its crash recorded
// and returns the GPU-seconds it was down. No-op (zero) if the server is not
// quarantined here: its scheduled recovery may race a crash that never
// happened because the server was already down.
func (st *State) RecoverServer(sid int) float64 {
	s := st.Cluster.Server(sid)
	if s == nil || s.Pool != cluster.PoolQuarantine {
		return 0
	}
	to := s.ReturnTo
	if err := st.Cluster.Move(sid, to); err != nil {
		invariant.Fail(fmt.Sprintf("sim:recover t=%g server=%d", st.Now, sid), invariant.Violation{
			Rule:     invariant.RulePoolMembership,
			Subject:  fmt.Sprintf("server %d", sid),
			Expected: fmt.Sprintf("quarantined server movable to %v", to),
			Actual:   err.Error(),
		})
	}
	st.Recoveries++
	st.bump() // returned capacity may unlock pending work
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindFaultRecover).WithF(obs.Fields{
			"server": sid, "to": to.String(),
		}))
	}
	return st.downGPUSec(s)
}

// downGPUSec is the capacity quarantined server s has cost as of Now.
func (st *State) downGPUSec(s *cluster.Server) float64 {
	return (st.Now - s.DownSince) * float64(s.NumGPUs)
}

// LostCapacity is a run's lost capacity in GPU-seconds, computed the same
// way on both substrates: recovered, the downtime the run's recoveries
// returned (summed in event order by the caller), plus that of every server
// still quarantined at the end, as of each state's Now. The residual is added
// in server-ID order: states hold ascending ID ranges, training first, and a
// quarantined server sits in its home state (an on-loan casualty transfers
// home as it crashes), so each quarantine pool in turn is global ID order.
func LostCapacity(recovered float64, states ...*State) float64 {
	for _, st := range states {
		st.Cluster.EachPoolServer(cluster.PoolQuarantine, func(s *cluster.Server) bool {
			recovered += st.downGPUSec(s)
			return true
		})
	}
	return recovered
}

// CompactPending removes jobs that are no longer pending from the queue,
// preserving order. Schedulers call it after starting jobs.
func (st *State) CompactPending() {
	kept := st.Pending[:0]
	for _, j := range st.Pending {
		if j.State == job.Pending {
			kept = append(kept, j)
		}
	}
	if len(kept) == len(st.Pending) {
		return // nothing started: the queue (and the version) are unchanged
	}
	for i := len(kept); i < len(st.Pending); i++ {
		st.Pending[i] = nil
	}
	st.Pending = kept
	st.bump()
}

// FreeSchedulableGPUs returns free GPU counts on training and on-loan
// servers.
func (st *State) FreeSchedulableGPUs() (training, onLoan int) {
	return st.Cluster.FreeGPUs(cluster.PoolTraining), st.Cluster.FreeGPUs(cluster.PoolOnLoan)
}

// drainChanged returns and clears the set of jobs whose throughput or
// lifecycle changed since the last drain, in ID order, each once; the engine
// refreshes their completion events. The returned slice is the state's one
// marking buffer — it is only valid until the next mark, and the engine
// iterates it once, immediately, without marking. Fault-heavy runs drain
// several times per event, so reusing the buffer keeps the hot loop
// allocation-free.
func (st *State) drainChanged() []*job.Job {
	if len(st.changed) == 0 {
		return nil
	}
	slices.SortFunc(st.changed, byID)
	out := slices.Compact(st.changed)
	st.changed = st.changed[:0]
	return out
}

// DiscardChanged clears the changed set unread. The prototype's tick loop
// (internal/testbed) has no completion events to refresh, so it discards
// the set every tick to keep it bounded.
func (st *State) DiscardChanged() { st.changed = st.changed[:0] }
