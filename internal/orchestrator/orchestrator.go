// Package orchestrator implements Lyra's resource orchestrator (Figure 4):
// every epoch it receives the inference scheduler's loan/reclaim target,
// moves whole servers across the management boundary (the whitelist
// operation of §6), and executes reclaiming — releasing flexible server
// groups by scaling elastic jobs in, then preempting jobs on the servers
// selected by the reclaiming policy (§4).
package orchestrator

import (
	"fmt"
	"slices"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/place"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// Loans is the loan protocol's policy and its per-borrower verbs, shared by
// every component that sits in the orchestrator's seat: Orchestrator over
// one state, and the sharded arbiter (internal/arbiter) over each borrowing
// training shard. Both embed it, so their decisions, accounting and events
// are one body of code.
type Loans struct {
	Policy reclaim.Policy
	// Less is the job scheduler's queue order, used to re-enqueue
	// preempted jobs (Figure 4, step 5).
	Less func(a, b *job.Job) bool
	// IncludeElasticDemand adds running elastic jobs' unmet flexible
	// demand to the loan-demand estimate. Enable it only when the job
	// scheduler actually performs elastic scaling, or the orchestrator
	// borrows servers nobody will fill.
	IncludeElasticDemand bool
	// LoanOnlyDemand marks the Opportunistic scheme (§7.1), where short
	// fungible jobs run exclusively on inference-cluster servers: loan
	// demand counts the jobs place.Opportunistic puts there, and their
	// backlog cannot be offset by free training capacity.
	LoanOnlyDemand bool
	// EmergencyReclaim enables the degraded-mode capacity-loss response
	// (DESIGN.md §13): when healthy training capacity falls below the
	// currently-running gang floor (Σ MinWorkers × GPUsPerWorker), the
	// loan target is raised ahead of the normal idle-return path to cover
	// the crater — still capped by the inference scheduler's target, so
	// the inference utilization threshold is respected. Off by default;
	// runs without it are byte-identical to the pre-policy orchestrator.
	EmergencyReclaim bool
}

// Borrower is one training-side state's seat in a loan decision.
type Borrower struct {
	St *sim.State
	// Shard tags the decision's events with the borrowing shard; negative
	// leaves them untagged.
	Shard int
}

// tag adds the borrower's shard to an event payload when it has one.
func (b Borrower) tag(f obs.Fields) obs.Fields {
	if b.Shard >= 0 {
		f["shard"] = b.Shard
	}
	return f
}

// loanServers converts a GPU shortfall on st's training side to whole
// inference servers, rounding up, at the rate a worker lands on the
// cluster's inference GPU: place.WorkerGPUs' memory rule (§2.1: on a T4 the
// local batch splits over twice the GPUs; on a V100 or A100 it does not).
func loanServers(st *sim.State, gpus int) int {
	perServer := st.Cluster.GPUsPerServer()
	need := place.WorkerGPUs(&job.Job{GPUsPerWorker: gpus}, st.Cluster.InferenceGPU())
	return (need + perServer - 1) / perServer
}

// Orchestrator wires the inference scheduler's instructions to a reclaim
// policy and executes both directions of capacity movement.
type Orchestrator struct {
	Inf LoanTargeter
	Loans
}

// New returns an orchestrator. The targeter is usually the reactive
// inference.Scheduler; wrap it in a Forecaster for proactive reclaiming.
func New(inf LoanTargeter, policy reclaim.Policy, less func(a, b *job.Job) bool) *Orchestrator {
	return &Orchestrator{Inf: inf, Loans: Loans{Policy: policy, Less: less}}
}

// loanBuffer is the slack kept on loan beyond measured demand. Zero keeps
// the on-loan servers saturated (Figure 9: usage consistently above 92%) at
// the price of loans lagging a demand spike by one orchestrator epoch.
const loanBuffer = 0

// Epoch implements sim.Orchestrator: one loan decision over the one state,
// capped by the inference scheduler's target, with servers crossing the
// management boundary as pool moves inside the state's cluster.
func (o *Orchestrator) Epoch(st *sim.State) {
	move := func(sid int, to cluster.Pool) {
		if err := st.Cluster.Move(sid, to); err != nil {
			failMove(st, sid, to, err)
		}
	}
	o.Decide(Borrower{St: st, Shard: -1}, o.Inf.TargetOnLoan(int64(st.Now)), []*sim.State{st},
		func(sid int) { move(sid, cluster.PoolOnLoan) },
		func(sid int) { move(sid, cluster.PoolInference) })
}

// Decide is the per-borrower loan decision. capSrv is a *cap* on loaning,
// not a mandate: Lyra borrows only as many servers as the training side can
// actually use (pending base demand plus unmet elastic flexible demand,
// plus a small buffer), which is what keeps the paper's on-loan servers
// above 92% utilization (Figure 9). Idle on-loan servers beyond demand are
// returned voluntarily — no preemption — while a cap decrease forces
// reclaiming through the policy. The decision reads only the borrower's own
// state: the on-loan servers it cannot give up (those hosting any workers —
// never trimmed voluntarily) and the additional inference servers it could
// fill right now. At most one verb runs. from lists the states whose
// inference pools lend; take and giveBack are how one server enters and
// leaves the borrower's on-loan pool (a pool move within one cluster, a
// transfer across shards). Neither is retained, so callers' closures stay
// on the stack.
func (l *Loans) Decide(b Borrower, capSrv int, from []*sim.State, take, giveBack func(sid int)) {
	st := b.St
	cur := st.Cluster.PoolSize(cluster.PoolOnLoan)
	busy, demand := st.Cluster.BusyServers(cluster.PoolOnLoan), l.demandServers(st)
	want := busy + demand + loanBuffer
	if want > capSrv {
		want = capSrv
	}
	if l.EmergencyReclaim {
		want = raiseForCapacityLoss(st, busy, want, capSrv)
	}
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchEpoch).WithF(b.tag(obs.Fields{
			"cap_srv": capSrv, "on_loan": cur, "busy": busy,
			"demand_srv": demand, "want": want,
		})))
	}
	switch {
	case want > cur:
		sp := st.Prof.Start("loan")
		lend(b, want-cur, from, take)
		sp.End()
	case capSrv < cur:
		sp := st.Prof.Start("reclaim")
		l.reclaim(b, cur-capSrv, giveBack)
		sp.End()
	case want < cur:
		sp := st.Prof.Start("return-idle")
		returnIdle(b, cur-want, giveBack)
		sp.End()
	}
}

// raiseForCapacityLoss is the emergency-reclaim policy: when a correlated
// outage quarantines enough training servers that the healthy training
// capacity no longer covers the running jobs' gang floor, the loan target
// is raised by the deficit (converted by loanServers) so on-loan capacity
// is pulled in — and kept — ahead of the voluntary idle-return path. The
// inference scheduler's cap still binds: the raise never exceeds capSrv, so
// inference's utilization threshold holds.
func raiseForCapacityLoss(st *sim.State, busy, want, capSrv int) int {
	trainCap := st.Cluster.TotalGPUs(cluster.PoolTraining)
	floor := 0
	for _, j := range st.Running {
		floor += j.MinWorkers * j.GPUsPerWorker
	}
	if floor <= trainCap {
		return want
	}
	deficit := floor - trainCap
	extra := loanServers(st, deficit)
	raised := busy + extra
	if raised > capSrv {
		raised = capSrv
	}
	if raised <= want {
		return want
	}
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchEmergencyReclaim).WithCause("capacity-loss").WithF(obs.Fields{
			"train_gpus": trainCap, "gang_floor": floor, "deficit": deficit,
			"extra_srv": extra, "want": raised,
		}))
	}
	return raised
}

// demandServers estimates how many additional inference servers the
// training side could fill right now: the pending base demand plus the
// running elastic jobs' unmet flexible demand, beyond the free schedulable
// GPUs, converted by loanServers.
func (l *Loans) demandServers(st *sim.State) int {
	freeT, freeL := st.FreeSchedulableGPUs()
	rule := place.SchemeRule(l.LoanOnlyDemand)
	demand := 0
	for _, j := range st.Pending {
		// Only jobs the scheme's rule lets on loan can land there; loaning
		// for the rest of the backlog would idle the servers.
		if slices.Contains(place.PoolOrder(rule(st.Cluster, j)), cluster.PoolOnLoan) {
			demand += j.BaseGPUs()
			if l.IncludeElasticDemand {
				demand += j.FlexRange() * j.GPUsPerWorker
			}
		}
	}
	if l.IncludeElasticDemand {
		// The ordered view skips elastic jobs with no flexible range,
		// which have no unmet demand to add.
		for _, j := range st.ElasticOrdered() {
			// Clamp each job's unmet flexible demand at zero: a job
			// holding more flexible workers than its range (over-
			// provisioned by an earlier epoch or a permissive scheduler)
			// must not subtract from the other jobs' loan demand.
			if unmet := j.FlexRange() - j.FlexibleWorkers(); unmet > 0 {
				demand += unmet * j.GPUsPerWorker
			}
		}
	}
	supply := freeT + freeL
	if l.LoanOnlyDemand {
		supply = freeL
	}
	shortfall := demand - supply
	if shortfall <= 0 {
		return 0
	}
	return loanServers(st, shortfall)
}

// returnIdle hands back up to n of the borrower's empty on-loan servers — a
// voluntary trim, so only servers with no workers qualify and nothing is
// preempted.
func returnIdle(b Borrower, n int, giveBack func(sid int)) {
	// Collect candidates first, then move: Move re-indexes pools, so it
	// must not run inside a live pool iteration. Lowest IDs go first,
	// matching the pre-index slice order.
	if n <= 0 {
		return
	}
	st := b.St
	picked := make([]int, 0, n)
	st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
		if s.Used() > 0 {
			return true
		}
		picked = append(picked, s.ID)
		return len(picked) < n
	})
	for _, sid := range picked {
		giveBack(sid)
	}
	if st.Obs.Enabled() && len(picked) > 0 {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchReturn).WithF(b.tag(obs.Fields{
			"servers": picked, "count": len(picked),
		})))
	}
}

// lend brings up to n inference servers onto the borrower's whitelist: the
// live inference pools of from are walked in the order given, each in
// ascending server ID, so with shards carving ascending ID ranges the
// lowest-ID free servers are lent first. Same collect-then-move discipline
// as returnIdle.
func lend(b Borrower, n int, from []*sim.State, take func(sid int)) {
	st := b.St
	picked := make([]int, 0, n)
	for _, src := range from {
		if len(picked) == n {
			break
		}
		src.Cluster.EachPoolServer(cluster.PoolInference, func(s *cluster.Server) bool {
			picked = append(picked, s.ID)
			return len(picked) < n
		})
	}
	for _, sid := range picked {
		take(sid)
	}
	if st.Obs.Enabled() && len(picked) > 0 {
		ev := obs.Ev(st.Now, obs.KindOrchLoan).WithF(b.tag(obs.Fields{
			"servers": picked, "count": len(picked),
		}))
		if b.Shard >= 0 {
			ev = ev.WithCause("loan-grant")
		}
		st.Obs.Emit(ev)
	}
}

// failMove raises a structured pool-membership violation for a failed
// cross-pool server move.
func failMove(st *sim.State, sid int, to cluster.Pool, err error) {
	invariant.Fail(fmt.Sprintf("orchestrator:move t=%g", st.Now), invariant.Violation{
		Rule:     invariant.RulePoolMembership,
		Subject:  fmt.Sprintf("server %d", sid),
		Expected: fmt.Sprintf("move to pool %v to succeed", to),
		Actual:   err.Error(),
	})
}

// reclaim vacates n of the borrower's on-loan servers and returns them to
// the inference side, recording preemption and collateral-damage accounting
// on the state.
func (l *Loans) reclaim(b Borrower, n int, giveBack func(sid int)) {
	st := b.St
	// PoolServers returns a defensive copy, so the candidate snapshot stays
	// valid while the plan's returns re-index the pools below.
	onLoan := st.Cluster.PoolServers(cluster.PoolOnLoan)
	lookup := func(id int) *job.Job { return st.Running[id] }
	sp := st.Prof.Start("reclaim.plan")
	plan := l.Policy.Plan(onLoan, lookup, n)
	sp.End()
	if len(plan.Servers) == 0 {
		return
	}
	demand := 0
	for _, sid := range plan.Servers {
		demand += st.Cluster.Server(sid).NumGPUs
	}

	if st.Obs.Enabled() {
		cands := make([]int, 0, len(onLoan))
		for _, s := range onLoan {
			cands = append(cands, s.ID)
		}
		picks := make([]obs.Fields, 0, len(plan.Picks))
		for _, p := range plan.Picks {
			picks = append(picks, obs.Fields{
				"server": p.Server, "phase": p.Phase,
				"cost": p.Cost, "reuse": p.Reuse, "damage": p.Damage,
			})
		}
		st.Obs.Emit(obs.Ev(st.Now, obs.KindReclaimPlan).WithF(b.tag(obs.Fields{
			"want": n, "candidates": cands, "servers": plan.Servers,
			"preempt_jobs": plan.PreemptJobs, "scale_in": plan.ScaleIn,
			"flex_only": plan.FlexOnly, "picks": picks,
		})))
	}

	// The state methods called below tag their lifecycle events with the
	// decider's cause.
	savedCause := st.Cause
	st.Cause = "reclaim"
	asp := st.Prof.Start("reclaim.apply")
	defer func() { asp.End(); st.Cause = savedCause }()

	// Release flexible server groups first: pure scale-in, no preemption,
	// in the plan's job-then-server order.
	for _, pair := range plan.ScaleIn {
		if j := st.Running[pair[0]]; j != nil {
			st.RemoveFlexibleOnServer(j, pair[1], len(j.Workers))
		}
	}

	// Preempt the jobs whose base workers sit on the selected servers. Any
	// of their GPUs on non-selected servers are the collateral damage of
	// §7.3.
	collateral := 0
	for _, id := range plan.PreemptJobs {
		j := st.Running[id]
		if j == nil {
			continue
		}
		for _, w := range j.Workers {
			if _, planned := slices.BinarySearch(plan.Servers, w.Server); !planned {
				collateral += w.GPUs
			}
		}
		st.Preempt(j, l.Less)
	}

	for _, sid := range plan.Servers {
		giveBack(sid)
	}

	st.ReclaimOps++
	st.ReclaimedSrv += len(plan.Servers)
	st.FlexSatisfied += plan.FlexOnly
	st.DemandGPUs += demand
	st.VacatedGPUs += demand + collateral

	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchReclaim).WithF(b.tag(obs.Fields{
			"servers": plan.Servers, "preempted": len(plan.PreemptJobs),
			"demand_gpus": demand, "collateral_gpus": collateral,
			"flex_only": plan.FlexOnly,
		})))
	}
}
