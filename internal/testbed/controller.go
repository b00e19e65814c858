package testbed

import "lyra/internal/job"

// Controller is the per-job process §6 embeds into elastic jobs: it
// coordinates worker join and departure, gates training on gang readiness
// (the base demand must be fully up before any step runs), and accounts
// training progress against the throughput of whatever workers are live.
type Controller struct {
	job        *job.Job
	containers map[int]*Container // container ID -> container
	scaling    job.ScalingModel

	lastTick   float64
	joinEvents int
	exitEvents int
}

// NewController attaches a controller to a job.
func NewController(j *job.Job, scaling job.ScalingModel) *Controller {
	return &Controller{job: j, containers: make(map[int]*Container), scaling: scaling}
}

// Join registers a newly launched container with the controller.
func (ct *Controller) Join(c *Container) {
	ct.containers[c.ID] = c
	ct.joinEvents++
}

// Depart removes a container (scale-in, preemption, completion).
func (ct *Controller) Depart(id int) {
	if _, ok := ct.containers[id]; ok {
		delete(ct.containers, id)
		ct.exitEvents++
	}
}

// Tick advances training to time now: if the gang (base demand) is ready,
// progress accrues at the live workers' throughput; restart overhead is
// consumed first. It returns true when the job's work is complete.
//
// The ready set trains from the instant its last member came up, not from
// the previous tick: a start or a scale-out pays the container launch
// latency even when the tick is longer than the latency.
//
// The worker GPU types are taken from the job's scheduler-recorded Workers
// (the controller only knows container readiness); throughput uses the
// scheduler's view filtered to ready containers.
func (ct *Controller) Tick(now float64) bool {
	since := ct.lastTick
	ct.lastTick = now

	ready := 0
	for _, c := range ct.containers {
		if c.State() != ContainerRunning {
			continue
		}
		ready++
		since = max(since, c.readyAt)
	}
	dt := now - since
	if dt <= 0 {
		return ct.job.Remaining <= 0
	}
	// Gang gate: training runs only once the base demand is up.
	if ready < ct.job.MinWorkers {
		return false
	}

	// Throughput of the ready subset: scale the job's full-placement
	// throughput by the ready fraction (workers are homogeneous within a
	// job unless heterogeneous, where the approximation remains fair).
	readyGPUWeight := 0.0
	if n := ct.job.NumWorkers(); n > 0 {
		readyGPUWeight = ct.job.Throughput(ct.scaling) * float64(ready) / float64(n)
	}
	if ct.job.OverheadLeft > 0 {
		if dt <= ct.job.OverheadLeft {
			ct.job.OverheadLeft -= dt
			return false
		}
		dt -= ct.job.OverheadLeft
		ct.job.OverheadLeft = 0
	}
	ct.job.Remaining -= readyGPUWeight * dt
	if ct.job.Remaining < 0 {
		ct.job.Remaining = 0
	}
	return ct.job.Remaining <= 0
}

// ResetTick rebases the progress clock, used when a job (re)starts.
func (ct *Controller) ResetTick(now float64) { ct.lastTick = now }

// Events returns the cumulative worker join/departure counts.
func (ct *Controller) Events() (joins, exits int) {
	return ct.joinEvents, ct.exitEvents
}
