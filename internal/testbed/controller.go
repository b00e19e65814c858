package testbed

import (
	"lyra/internal/job"
	"lyra/internal/sim"
)

// Controller is the per-job process §6 embeds into elastic jobs. It decides
// how long, and at what fraction of its allocation, the job trained over a
// tick: training waits on gang readiness (the base demand must be fully up
// before any step runs), runs from the instant the last ready container
// came up, and proceeds at the ready containers' share of the throughput.
// It holds no progress arithmetic of its own — the seconds are granted
// through sim.State.Retire, the one owner of Remaining and OverheadLeft —
// and no container index: the resource manager's per-job list is the
// membership.
type Controller struct {
	job *job.Job
	st  *sim.State
	rm  *ResourceManager

	lastTick float64
}

// NewController attaches a controller to a job that (re)started at now.
func NewController(j *job.Job, st *sim.State, rm *ResourceManager, now float64) *Controller {
	return &Controller{job: j, st: st, rm: rm, lastTick: now}
}

// Tick advances training to time now and reports whether the job's work is
// complete. The tick loop calls it for every running job before anything
// else in the tick touches the state, so the job is stamped current as of
// now whether or not it trained.
//
// The ready set trains from the instant its last member came up, not from
// the previous tick: a start or a scale-out pays the container launch
// latency even when the tick is longer than the latency. The throughput is
// the scheduler-recorded allocation's (the controller only knows container
// readiness), scaled by the ready fraction — workers are homogeneous within
// a job unless heterogeneous, where the approximation remains fair.
func (ct *Controller) Tick(now float64) bool {
	since := ct.lastTick
	ct.lastTick = now

	ready := 0
	for _, c := range ct.rm.byJob[ct.job.ID] {
		if c.state == ContainerRunning {
			ready++
			since = max(since, c.readyAt)
		}
	}
	// Gang gate: training runs only once the base demand is up; until then
	// the tick grants nothing and only stamps the job.
	up := ready >= ct.job.MinWorkers
	dt, share := 0.0, 0.0
	if n := ct.job.NumWorkers(); up && n > 0 {
		dt, share = now-since, float64(ready)/float64(n)
	}
	ct.st.Retire(ct.job, dt, share)
	return up && ct.job.Remaining <= 0
}
