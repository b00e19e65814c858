// Package invariant is the state-audit layer of the reproduction: a single
// place that knows every conservation and legality rule the simulator's and
// testbed's bookkeeping must obey, and checks all of them after every state
// transition when auditing is enabled.
//
// Every number the evaluation reports — queuing/JCT wins (§7.1), reclaiming
// preemption counts (§7.3), the ≥92% on-loan utilization of Figure 9 — is
// derived from the GPU/job accounting in internal/sim and internal/cluster.
// The auditor makes that accounting falsifiable: any leaked GPU, double
// release, phantom worker, unsorted queue, or time regression trips a
// structured expected-vs-actual report at the event that introduced it,
// instead of silently skewing a table three layers downstream.
//
// The rules checked (see DESIGN.md, "Invariant audit layer"):
//
//  1. GPU conservation — each running job's recorded workers match, server
//     by server, the cluster's allocation maps (total and flexible GPUs),
//     and the per-pool UsedGPUs totals equal the sum of worker GPUs placed
//     in that pool. No allocation exists without a worker (leak) and no
//     worker exists without an allocation (double release / phantom).
//  2. Lifecycle legality — every Running job has workers (base demand
//     exactly MinWorkers, flexible workers within the elastic range);
//     every Pending job holds none.
//  3. Queue order — Pending is sorted under the scheduler's Less, with no
//     duplicates and no non-pending jobs.
//  4. Progress bounds — Remaining, OverheadLeft and queue-time deltas are
//     non-negative, Remaining never exceeds the job's total work, credit
//     never outruns the clock (the work a job has retired since its first
//     start is at most its peak throughput times the time since), and the
//     observed clock never regresses.
//  5. Pool membership — the cluster's pool index agrees with each server's
//     Pool field, workers sit only on schedulable (training/on-loan)
//     servers, returned inference servers are empty, and a
//     non-heterogeneous job never spans GPU types (the illegal
//     training/on-loan mix of §2.1).
//  6. Index consistency — every incrementally-maintained cluster index
//     (per-pool free/used/total/flexible counters, empty/partial server
//     counts, per-type splits, the free-count bucket index) equals a
//     from-scratch recount (cluster.AuditIndexes). This is the equivalence
//     oracle for the maintain-on-write cluster core (DESIGN.md §9).
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// Rule identifiers, stable strings tests can assert on.
const (
	RuleClusterInternal  = "cluster-internal"         // cluster.CheckInvariants failed
	RuleIndexConsistency = "index-consistency"        // a maintained index, view or counter differs from its recount
	RuleGPUConservation  = "gpu-conservation"         // workers vs allocations vs pool totals
	RuleLifecycle        = "lifecycle"                // job state vs workers vs queue membership
	RuleQueueOrder       = "queue-order"              // Pending sortedness, duplicates, stale entries
	RuleProgressBounds   = "progress-bounds"          // Remaining/OverheadLeft/queue-time bounds
	RuleTimeMonotonic    = "time-monotonic"           // Now regressed between audits
	RulePoolMembership   = "pool-membership"          // worker pool / GPU-type legality
	RuleThroughput       = "throughput"               // running job must have a throughput model entry
	RuleCrossShard       = "cross-shard-conservation" // sharded topology: global GPU/server totals vs per-shard sums
)

// Fail panics with a structured *Error carrying the given violations. It is
// the replacement for bare panic(fmt.Sprintf(...)) at hot-path consistency
// checks: the engines' outermost callers recover the *Error and render a
// structured report (rule, subject, expected vs actual, sim time) instead
// of a raw Go stack trace.
func Fail(context string, v ...Violation) {
	panic(&Error{Context: context, Violations: v})
}

// Violation is one broken invariant, reported as a structured diff of the
// state the rule expected against what the bookkeeping actually holds.
type Violation struct {
	Rule     string // one of the Rule* constants
	Subject  string // what the rule was evaluated on, e.g. "job 12" or "server 3"
	Expected string
	Actual   string
	Detail   string // free-form context (optional)
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: expected %s, actual %s", v.Rule, v.Subject, v.Expected, v.Actual)
	if v.Detail != "" {
		fmt.Fprintf(&b, " (%s)", v.Detail)
	}
	return b.String()
}

// Error aggregates every violation found at one audit point.
type Error struct {
	// Context names the transition that was just applied, e.g.
	// "sim:finish t=1260 job=17" or "testbed:tick t=420".
	Context    string
	Violations []Violation
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s) after %s:", len(e.Violations), e.Context)
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// View is the scheduler-visible state snapshot an audit runs over. The
// simulator, orchestrator and testbed all audit through the same view, so
// one rule set covers every substrate.
type View struct {
	Context string
	Now     float64
	Cluster *cluster.Cluster
	Pending []*job.Job
	Running map[int]*job.Job
	// Held lists jobs sitting out a restart-backoff hold (degraded mode):
	// pending-state jobs deliberately absent from both Pending and Running
	// until their hold expires. Empty/nil when backoff is off — the queue
	// rules then see every pending job through Pending as before.
	Held []*job.Job
	// Less is the scheduler's queue priority; nil skips the sortedness
	// check (duplicate/state checks still run).
	Less func(a, b *job.Job) bool
	// Scaling is the throughput model progress is credited under; rule 4
	// derives each job's peak throughput from it.
	Scaling job.ScalingModel
}

// Auditor checks the full invariant suite over successive views. It is
// stateful only for the monotonicity rules (clock and per-job queue-time
// high-water marks) and the fastest GPU type seen, which bounds any job's
// throughput; a fresh Auditor accepts any first view.
type Auditor struct {
	started   bool
	lastNow   float64
	lastQueue map[int]int64 // job ID -> last observed QueueTime
	seen      map[int]bool  // scratch: jobs observed in the current audit
	// fastest is the fastest GPU type in any cluster audited so far: shards
	// share one auditor and servers move between them, so a job may have
	// trained on a type its cluster no longer holds.
	fastest cluster.GPUType
}

// New returns an auditor with no history.
func New() *Auditor {
	return &Auditor{lastQueue: make(map[int]int64), seen: make(map[int]bool)}
}

// Audit checks every invariant over v and returns nil or an *Error carrying
// all violations found. History (clock, queue-time marks) is updated even
// when violations are reported, so a caller that chooses to continue keeps
// getting incremental diagnostics.
func (a *Auditor) Audit(v View) error {
	var out []Violation
	add := func(vi Violation) { out = append(out, vi) }

	a.checkClock(v, add)
	if g := v.Cluster.FastestGPU(); g.Speed() > a.fastest.Speed() {
		a.fastest = g
	}
	checkCluster(v, add)
	checkConservation(v, add)
	a.checkJobs(v, add)
	a.checkQueue(v, add)
	a.checkHeld(v, add)
	a.forgetRetired()

	if len(out) > 0 {
		return &Error{Context: v.Context, Violations: out}
	}
	return nil
}

// checkClock enforces rule 4's time part: Now never regresses between
// audits of the same auditor.
func (a *Auditor) checkClock(v View, add func(Violation)) {
	if a.started && v.Now < a.lastNow {
		add(Violation{
			Rule:     RuleTimeMonotonic,
			Subject:  "clock",
			Expected: fmt.Sprintf("Now >= %g", a.lastNow),
			Actual:   fmt.Sprintf("Now = %g", v.Now),
		})
	}
	if !a.started || v.Now > a.lastNow {
		a.lastNow = v.Now
	}
	a.started = true
}

// checkCluster folds the cluster's own internal consistency check (pool
// index vs Pool fields, per-server alloc sums vs free counts) into the
// report, then cross-checks every incrementally-maintained counter and the
// free-count bucket index against a from-scratch recount (AuditIndexes).
// The recount is the equivalence oracle for the maintain-on-write cluster
// core: because this runs after every audited transition, a write path
// that forgets to update an index fails at the exact transition that
// introduced the drift.
func checkCluster(v View, add func(Violation)) {
	if err := v.Cluster.CheckInvariants(); err != nil {
		add(Violation{
			Rule:     RuleClusterInternal,
			Subject:  "cluster",
			Expected: "internally consistent pool index and allocation maps",
			Actual:   err.Error(),
		})
	}
	if err := v.Cluster.AuditIndexes(); err != nil {
		add(Violation{
			Rule:     RuleIndexConsistency,
			Subject:  "cluster",
			Expected: "incremental counters and bucket index equal to a full recount",
			Actual:   err.Error(),
		})
	}
}

// srvJob keys the expected-allocation maps built from job workers.
type srvJob struct{ server, job int }

// checkConservation enforces rule 1: recorded workers and cluster
// allocations are two views of the same GPUs, and per-pool used totals
// agree with the placed workers.
func checkConservation(v View, add func(Violation)) {
	expAlloc := make(map[srvJob]int)
	expFlex := make(map[srvJob]int)
	expPoolUsed := make(map[cluster.Pool]int)
	for _, j := range v.Running {
		for _, w := range j.Workers {
			k := srvJob{w.Server, j.ID}
			expAlloc[k] += w.GPUs
			if w.Flexible {
				expFlex[k] += w.GPUs
			}
			if s := v.Cluster.Server(w.Server); s != nil {
				expPoolUsed[s.Pool] += w.GPUs
			}
		}
	}

	// Walk every server allocation and match it against the workers.
	// EachServer iterates the live index without copying — this runs after
	// every audited transition, so the per-audit allocation matters.
	v.Cluster.EachServer(func(s *cluster.Server) bool {
		for _, id := range s.Jobs() {
			k := srvJob{s.ID, id}
			if got, want := s.JobGPUs(id), expAlloc[k]; got != want {
				detail := "allocation without a matching worker (leaked GPUs?)"
				if want > 0 {
					detail = "worker GPUs disagree with the server allocation"
				}
				add(Violation{
					Rule:     RuleGPUConservation,
					Subject:  fmt.Sprintf("server %d / job %d", s.ID, id),
					Expected: fmt.Sprintf("%d allocated GPUs (sum of recorded workers)", want),
					Actual:   fmt.Sprintf("%d allocated GPUs", got),
					Detail:   detail,
				})
			}
			if got, want := s.FlexibleGPUs(id), expFlex[k]; got != want {
				add(Violation{
					Rule:     RuleGPUConservation,
					Subject:  fmt.Sprintf("server %d / job %d", s.ID, id),
					Expected: fmt.Sprintf("%d flexible GPUs (sum of flexible workers)", want),
					Actual:   fmt.Sprintf("%d flexible GPUs", got),
				})
			}
			delete(expAlloc, k)
			delete(expFlex, k)
		}
		return true
	})

	// Leftovers are workers whose GPUs the cluster no longer accounts for:
	// the double-release / phantom-worker class. Sorted for determinism.
	leftover := make([]srvJob, 0, len(expAlloc))
	for k := range expAlloc {
		leftover = append(leftover, k)
	}
	sort.Slice(leftover, func(i, j int) bool {
		if leftover[i].server != leftover[j].server {
			return leftover[i].server < leftover[j].server
		}
		return leftover[i].job < leftover[j].job
	})
	for _, k := range leftover {
		add(Violation{
			Rule:     RuleGPUConservation,
			Subject:  fmt.Sprintf("server %d / job %d", k.server, k.job),
			Expected: fmt.Sprintf("%d allocated GPUs (sum of recorded workers)", expAlloc[k]),
			Actual:   "no allocation on the server",
			Detail:   "worker recorded but its GPUs were released (double release?)",
		})
	}

	// Per-pool totals (rule 1's UsedGPUs clause and rule 5's returned-
	// server clause: inference servers must be empty). Conservation holds
	// over healthy + quarantined capacity: a crashed server keeps its GPUs
	// on the books, it just must not be running anything.
	for _, p := range []cluster.Pool{cluster.PoolTraining, cluster.PoolOnLoan, cluster.PoolInference, cluster.PoolQuarantine} {
		if got, want := v.Cluster.UsedGPUs(p), expPoolUsed[p]; got != want {
			add(Violation{
				Rule:     RuleGPUConservation,
				Subject:  fmt.Sprintf("pool %v", p),
				Expected: fmt.Sprintf("UsedGPUs = %d (sum of workers placed there)", want),
				Actual:   fmt.Sprintf("UsedGPUs = %d", got),
			})
		}
	}

	// Rule 5's crashed-server clause: quarantined servers are out of every
	// scheduler's reach and must hold no allocations at all — crash handling
	// preempts or scales in their jobs before the pool move.
	v.Cluster.EachPoolServer(cluster.PoolQuarantine, func(s *cluster.Server) bool {
		if s.Used() > 0 {
			add(Violation{
				Rule:     RulePoolMembership,
				Subject:  fmt.Sprintf("server %d", s.ID),
				Expected: "no allocated GPUs while quarantined (crashed)",
				Actual:   fmt.Sprintf("%d allocated GPUs", s.Used()),
				Detail:   "crash handling must preempt or scale in every job before quarantining",
			})
		}
		return true
	})
}

// checkJobs enforces rules 2, 4 and 5 per job: lifecycle/worker legality,
// progress bounds with queue-time monotonicity, and worker pool/GPU-type
// membership.
func (a *Auditor) checkJobs(v View, add func(Violation)) {
	ids := make([]int, 0, len(v.Running))
	for id := range v.Running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		j := v.Running[id]
		subject := fmt.Sprintf("job %d", id)
		if j.ID != id {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: fmt.Sprintf("Running map key %d == job ID", id),
				Actual:   fmt.Sprintf("job ID %d", j.ID),
			})
		}
		if j.State != job.Running {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "state running (indexed in Running)",
				Actual:   fmt.Sprintf("state %v", j.State),
			})
		}
		if len(j.Workers) == 0 {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "at least one placed worker",
				Actual:   "no workers",
			})
		} else {
			if base := j.NumWorkers() - j.FlexibleWorkers(); base != j.MinWorkers {
				add(Violation{
					Rule:     RuleLifecycle,
					Subject:  subject,
					Expected: fmt.Sprintf("%d base (non-flexible) workers", j.MinWorkers),
					Actual:   fmt.Sprintf("%d base workers", base),
					Detail:   "gang-scheduled base demand must stay intact while running",
				})
			}
			if flex := j.FlexibleWorkers(); flex > j.FlexRange() {
				add(Violation{
					Rule:     RuleLifecycle,
					Subject:  subject,
					Expected: fmt.Sprintf("at most %d flexible workers", j.FlexRange()),
					Actual:   fmt.Sprintf("%d flexible workers", flex),
				})
			}
		}
		checkWorkers(v, j, add)
		a.checkProgress(v, j, add)
	}
}

// checkWorkers enforces rule 5 on one running job's placements.
func checkWorkers(v View, j *job.Job, add func(Violation)) {
	var gpu cluster.GPUType
	mixed := false
	for i, w := range j.Workers {
		subject := fmt.Sprintf("job %d worker %d", j.ID, i)
		if w.GPUs <= 0 {
			add(Violation{
				Rule:     RulePoolMembership,
				Subject:  subject,
				Expected: "a positive GPU count",
				Actual:   fmt.Sprintf("%d GPUs", w.GPUs),
			})
		}
		s := v.Cluster.Server(w.Server)
		if s == nil {
			add(Violation{
				Rule:     RulePoolMembership,
				Subject:  subject,
				Expected: "placement on an existing server",
				Actual:   fmt.Sprintf("unknown server %d", w.Server),
			})
			continue
		}
		if s.Pool != cluster.PoolTraining && s.Pool != cluster.PoolOnLoan {
			add(Violation{
				Rule:     RulePoolMembership,
				Subject:  subject,
				Expected: "a schedulable (training or on-loan) server",
				Actual:   fmt.Sprintf("server %d in pool %v", s.ID, s.Pool),
				Detail:   "training work may not run on servers returned to the inference scheduler",
			})
		}
		if w.GPU != s.GPU {
			add(Violation{
				Rule:     RulePoolMembership,
				Subject:  subject,
				Expected: fmt.Sprintf("GPU type %v (server %d)", s.GPU, s.ID),
				Actual:   fmt.Sprintf("GPU type %v", w.GPU),
			})
		}
		if i == 0 {
			gpu = w.GPU
		} else if w.GPU != gpu {
			mixed = true
		}
	}
	if mixed && !j.Hetero {
		add(Violation{
			Rule:     RulePoolMembership,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "a single GPU type (job is not heterogeneous-capable)",
			Actual:   "workers on mixed GPU types",
			Detail:   "non-hetero jobs must not span the training/on-loan type boundary (§2.1)",
		})
	}
}

// checkProgress enforces rule 4's per-job bounds and updates the
// queue-time high-water mark.
func (a *Auditor) checkProgress(v View, j *job.Job, add func(Violation)) {
	a.seen[j.ID] = true
	subject := fmt.Sprintf("job %d", j.ID)
	if j.Remaining < 0 {
		add(Violation{
			Rule:     RuleProgressBounds,
			Subject:  subject,
			Expected: "Remaining >= 0",
			Actual:   fmt.Sprintf("Remaining = %g", j.Remaining),
		})
	}
	eps := 1e-6 * (1 + j.Work)
	if j.Remaining > j.Work+eps {
		add(Violation{
			Rule:     RuleProgressBounds,
			Subject:  subject,
			Expected: fmt.Sprintf("Remaining <= Work (%g)", j.Work),
			Actual:   fmt.Sprintf("Remaining = %g", j.Remaining),
		})
	}
	// Credit cannot outrun the clock: whatever the allocation history, the
	// work retired since the first start is bounded by the job's peak
	// throughput — its maximum demand on the fastest GPU type — times the
	// time since. Progress owned twice (credited once by a substrate's own
	// accounting and again by State) breaks it at the tick it happens.
	if j.Started {
		peak := j.NominalThroughput(j.MaxWorkers, a.fastest, v.Scaling)
		if j.Tuned {
			peak *= 1 + v.Scaling.TunedGain
		}
		elapsed := v.Now - float64(j.StartTime)
		if retired := j.Work - j.Remaining; retired > peak*elapsed+eps {
			add(Violation{
				Rule:     RuleProgressBounds,
				Subject:  subject,
				Expected: fmt.Sprintf("at most %g GPU-seconds retired (peak throughput %g x %g s since the first start)", peak*elapsed, peak, elapsed),
				Actual:   fmt.Sprintf("%g GPU-seconds retired", retired),
				Detail:   "credit cannot outrun the clock: is progress credited by more than one owner?",
			})
		}
	}
	if j.OverheadLeft < 0 {
		add(Violation{
			Rule:     RuleProgressBounds,
			Subject:  subject,
			Expected: "OverheadLeft >= 0",
			Actual:   fmt.Sprintf("OverheadLeft = %g", j.OverheadLeft),
		})
	}
	if j.QueueTime < 0 {
		add(Violation{
			Rule:     RuleProgressBounds,
			Subject:  subject,
			Expected: "QueueTime >= 0",
			Actual:   fmt.Sprintf("QueueTime = %d", j.QueueTime),
		})
	}
	if last, ok := a.lastQueue[j.ID]; ok && j.QueueTime < last {
		add(Violation{
			Rule:     RuleProgressBounds,
			Subject:  subject,
			Expected: fmt.Sprintf("QueueTime >= %d (accumulated queue time never shrinks)", last),
			Actual:   fmt.Sprintf("QueueTime = %d", j.QueueTime),
		})
	}
	a.lastQueue[j.ID] = j.QueueTime
}

// checkQueue enforces rules 2 and 3 on the pending queue, and keeps
// pending jobs inside the rule-4 bounds tracking (a preempted job carries
// accumulated queue time through the queue).
func (a *Auditor) checkQueue(v View, add func(Violation)) {
	seen := make(map[int]int, len(v.Pending))
	for i, j := range v.Pending {
		subject := fmt.Sprintf("queue[%d] (job %d)", i, j.ID)
		if prev, dup := seen[j.ID]; dup {
			add(Violation{
				Rule:     RuleQueueOrder,
				Subject:  subject,
				Expected: "each job at most once in Pending",
				Actual:   fmt.Sprintf("also at queue[%d]", prev),
			})
		}
		seen[j.ID] = i
		if j.State != job.Pending {
			add(Violation{
				Rule:     RuleQueueOrder,
				Subject:  subject,
				Expected: "state pending (member of the queue)",
				Actual:   fmt.Sprintf("state %v", j.State),
				Detail:   "CompactPending must remove started/completed jobs",
			})
		}
		if n := len(j.Workers); n != 0 {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "no placed workers while pending",
				Actual:   fmt.Sprintf("%d workers", n),
			})
		}
		if _, running := v.Running[j.ID]; running {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "absent from the Running index",
				Actual:   "present in both Pending and Running",
			})
		}
		if float64(j.LastEnqueue) > v.Now {
			add(Violation{
				Rule:     RuleProgressBounds,
				Subject:  subject,
				Expected: fmt.Sprintf("LastEnqueue <= Now (%g)", v.Now),
				Actual:   fmt.Sprintf("LastEnqueue = %d", j.LastEnqueue),
			})
		}
		a.checkProgress(v, j, add)
		if v.Less != nil && i > 0 && v.Less(j, v.Pending[i-1]) {
			add(Violation{
				Rule:     RuleQueueOrder,
				Subject:  subject,
				Expected: fmt.Sprintf("not ordered before its predecessor job %d under Less", v.Pending[i-1].ID),
				Actual:   "queue out of priority order",
			})
		}
	}
}

// checkHeld enforces rules 2 and 4 over the backoff-held set: a held job is
// pending-state with no workers, deliberately parked outside both Pending
// and Running until its hold expires, and still inside the progress-bounds
// tracking (queue time keeps accumulating through the hold).
func (a *Auditor) checkHeld(v View, add func(Violation)) {
	inPending := make(map[int]bool, len(v.Pending))
	for _, j := range v.Pending {
		inPending[j.ID] = true
	}
	for i, j := range v.Held {
		subject := fmt.Sprintf("held[%d] (job %d)", i, j.ID)
		if j.State != job.Pending {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "state pending while held by restart backoff",
				Actual:   fmt.Sprintf("state %v", j.State),
			})
		}
		if n := len(j.Workers); n != 0 {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "no placed workers while held",
				Actual:   fmt.Sprintf("%d workers", n),
			})
		}
		if inPending[j.ID] {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "absent from the pending queue while held",
				Actual:   "present in both Held and Pending",
				Detail:   "a held job must not be schedulable before its hold expires",
			})
		}
		if _, running := v.Running[j.ID]; running {
			add(Violation{
				Rule:     RuleLifecycle,
				Subject:  subject,
				Expected: "absent from the Running index while held",
				Actual:   "present in both Held and Running",
			})
		}
		if float64(j.LastEnqueue) > v.Now {
			add(Violation{
				Rule:     RuleProgressBounds,
				Subject:  subject,
				Expected: fmt.Sprintf("LastEnqueue <= Now (%g)", v.Now),
				Actual:   fmt.Sprintf("LastEnqueue = %d", j.LastEnqueue),
			})
		}
		a.checkProgress(v, j, add)
	}
}

// forgetRetired drops monotonicity history for jobs that no longer appear
// in either index (completed or past the horizon), bounding the auditor's
// own memory on multi-week traces.
func (a *Auditor) forgetRetired() {
	for id := range a.lastQueue {
		if !a.seen[id] {
			delete(a.lastQueue, id)
		}
	}
	for id := range a.seen {
		delete(a.seen, id)
	}
}
