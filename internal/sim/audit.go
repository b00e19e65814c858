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
// must be attached to exactly the shard the ownership index says.
func (e *Engine) auditAfter(ev event) {
	gpus, servers := 0, 0
	id := ev.jobID
	switch ev.kind {
	case evArrival:
		id = e.jobs[id].ID // an arrival carries the job's index in e.jobs
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
}

func totalClusterGPUs(c *cluster.Cluster) int {
	sum := 0
	for p := cluster.Pool(0); p <= cluster.PoolQuarantine; p++ {
		sum += c.TotalGPUs(p)
	}
	return sum
}

// BookkeepingSizes reports the sizes of the engine's and states' internal
// per-job maps — test hooks for asserting that completed jobs do not
// accumulate dead entries over long traces.
func (e *Engine) BookkeepingSizes() (lastUpdate, versions, shards int) {
	for _, st := range e.sh.States {
		lastUpdate += len(st.lastUpdate)
	}
	return lastUpdate, len(e.version), len(e.jobShard)
}
