package sim

import (
	"fmt"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
)

// AuditView packages the scheduler-visible state for the invariant auditor
// (internal/invariant). The engine, the orchestrator and the testbed all
// audit through this same view, so one rule set covers every substrate.
func (st *State) AuditView(ctx string, less func(a, b *job.Job) bool) invariant.View {
	return invariant.View{
		Context: ctx,
		Now:     st.Now,
		Cluster: st.Cluster,
		Pending: st.Pending,
		Running: st.Running,
		Held:    st.HeldJobs(),
		Less:    less,
		Scaling: st.Scaling,
	}
}

// auditAfter runs the full invariant suite over every shard state after one
// applied event and panics with the structured expected-vs-actual report on
// a violation: the simulation state is corrupt and no result derived from
// it can be trusted, so failing loudly at the offending event is the only
// safe behavior. On top of the per-state rules it checks cross-shard
// conservation: the global GPU and server totals must match the per-shard
// sums (no GPU created or lost across a loan in flight), and every server
// must be attached to exactly the shard the ownership index says, and every
// running job must hold the one finish event the timeline's index names.
func (e *Engine) auditAfter(ev event) {
	gpus, servers := 0, 0
	id := ev.jobID
	switch ev.kind {
	case evArrival, evFinish, evRelease:
		id = e.jobs[id].ID // a job event carries the job's index in e.jobs
	case evCrash, evRecover:
		id = e.faultSched[id].Server // a server fault carries its timeline index
	}
	for i, st := range e.sh.States {
		ctx := fmt.Sprintf("sim:%v t=%g job=%d", ev.kind, e.now, id)
		if e.sh.Tagged {
			ctx += fmt.Sprintf(" shard=%d", i)
		}
		if err := e.audit.Audit(st.AuditView(ctx, e.sh.Less)); err != nil {
			panic(err)
		}
		// Recount oracle for the dirty-set layer: the maintained ordered
		// views and the flexible-GPU counter must match a from-scratch
		// recount after every event.
		if err := st.AuditIncremental(); err != nil {
			panic(fmt.Errorf("%s: incremental bookkeeping diverged: %w", ctx, err))
		}
		gpus += totalClusterGPUs(st.Cluster)
		servers += st.Cluster.NumServers()
		st.Cluster.EachServer(func(s *cluster.Server) bool {
			if owner := e.sh.Owner(s.ID); owner != i {
				invariant.Fail(ctx, invariant.Violation{
					Rule:     invariant.RuleCrossShard,
					Subject:  fmt.Sprintf("server %d", s.ID),
					Expected: fmt.Sprintf("attached to its owner shard %d", owner),
					Actual:   fmt.Sprintf("attached to shard %d", i),
				})
			}
			return true
		})
	}
	if gpus != e.totalGPUs || servers != e.totalServers {
		invariant.Fail(fmt.Sprintf("sim:%v t=%g", ev.kind, e.now), invariant.Violation{
			Rule:     invariant.RuleCrossShard,
			Subject:  "topology",
			Expected: fmt.Sprintf("%d GPUs on %d servers across all shards", e.totalGPUs, e.totalServers),
			Actual:   fmt.Sprintf("%d GPUs on %d servers", gpus, servers),
		})
	}
	if v, bad := e.timelineViolation(); bad {
		invariant.Fail(fmt.Sprintf("sim:%v t=%g", ev.kind, e.now), v)
	}
}

// timelineViolation checks the finish-event index: each running job's entry
// names that job's finish event and the shard it runs in, and the heap holds
// one finish event per running job, so no other job has any.
func (e *Engine) timelineViolation() (v invariant.Violation, bad bool) {
	h, running := &e.events, 0
	for n, st := range e.sh.States {
		running += len(st.runningIdx)
		for _, j := range st.runningIdx {
			i, ok := e.index[j.ID]
			p := h.pos[i]
			if !bad && (!ok || p < 0 || h.ev[p].kind != evFinish || h.ev[p].jobID != int(i) || e.shard[i] != int32(n)) {
				v.Subject, bad = fmt.Sprintf("job %d", j.ID), true
				v.Actual = fmt.Sprintf("index entry %v, position %d, shard %d", ok, p, e.shard[i])
			}
		}
	}
	if !bad && h.finishes != running {
		v.Subject, v.Actual, bad = "timeline", fmt.Sprintf("%d finish events for %d running jobs", h.finishes, running), true
	}
	v.Rule, v.Expected = invariant.RuleIndexConsistency, "one finish event per running job, where its index names, in its shard"
	return v, bad
}

func totalClusterGPUs(c *cluster.Cluster) int {
	sum := 0
	for p := cluster.Pool(0); p <= cluster.PoolQuarantine; p++ {
		sum += c.TotalGPUs(p)
	}
	return sum
}

// BookkeepingSizes reports the sizes of the states' and the engine's per-job
// maps and the finish events left — test hooks for asserting that completed
// jobs do not accumulate dead entries over long traces.
func (e *Engine) BookkeepingSizes() (lastUpdate, index, finishes int) {
	for _, st := range e.sh.States {
		lastUpdate += len(st.lastUpdate)
	}
	return lastUpdate, len(e.index), e.events.finishes
}
