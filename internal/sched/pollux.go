package sched

import (
	"lyra/internal/alloc"
	"lyra/internal/job"
	"lyra/internal/place"
	"lyra/internal/sim"
)

// Pollux models the goodput-optimizing scheduler of §7.1: every epoch a
// genetic algorithm searches for the allocation vector (over pending jobs
// and resizable running elastic jobs) maximizing total goodput. Pending
// jobs the GA leaves at zero stay queued — Pollux "does not explicitly
// launch as many jobs as possible, thus incurring longer queuing time"
// (§7.4). Its job agent tunes batch size and learning rate on every
// allocation change, which the simulation models as ScalingModel.TunedGain
// on jobs it starts.
type Pollux struct {
	Config alloc.PolluxConfig
	epoch  int64
	sc     scratch
	// Schedule's per-epoch views, reused (the GA's buffers are Config.Work).
	running map[int]bool
	byID    map[int]*job.Job
	cands   []*job.Job
	extras  []alloc.Extra
	resized []*job.Job
}

// NewPollux returns the scheduler with the evaluation configuration.
func NewPollux(seed int64) *Pollux {
	return &Pollux{Config: alloc.DefaultPolluxConfig(seed)}
}

// Less implements sim.Scheduler. Pollux has no queue-priority notion of its
// own; arrival order keeps the pending queue stable.
func (p *Pollux) Less(a, b *job.Job) bool { return lessByArrival(a, b) }

// Schedule implements sim.Scheduler.
func (p *Pollux) Schedule(st *sim.State) {
	p.epoch++
	freeT, freeL := st.FreeSchedulableGPUs()
	if p.running == nil {
		p.running, p.byID = make(map[int]bool), make(map[int]*job.Job)
	}
	running, byID := p.running, p.byID
	clear(running)
	clear(byID)
	heldGPUs := 0 // all GPUs held by resizable running jobs: the GA re-decides their whole allocation
	// ID order, not map order: cands seeds the GA's search population, so
	// its order must not vary run to run. Copy the maintained view: cands
	// grows with the pending queue below, and appending to the state-owned
	// slice is forbidden.
	cands := p.cands[:0]
	for _, j := range st.ElasticOrdered() {
		running[j.ID] = true
		cands = append(cands, j)
		heldGPUs += j.GPUsHeld()
	}
	cands = append(cands, st.Pending...)
	for _, j := range cands {
		byID[j.ID] = j
	}
	if len(cands) == 0 {
		return
	}
	cfg := p.Config
	cfg.Seed = p.Config.Seed*1000003 + p.epoch // fresh but deterministic search each epoch
	sp := st.Prof.Start("pollux.ga")
	decisions := alloc.Pollux(cands, running, freeT+freeL+heldGPUs, cfg, st.Scaling)
	sp.End()
	sp = st.Prof.Start("pollux.apply")
	defer sp.End()

	// Apply resizes of running jobs first (their scale-ins free GPUs).
	extras, resized := p.extras[:0], p.resized[:0]
	for _, d := range decisions {
		if running[d.ID] {
			j := byID[d.ID]
			extras = append(extras, alloc.Extra{ID: d.ID, Extra: d.Workers - j.MinWorkers})
			resized = append(resized, j)
		}
	}
	p.cands, p.extras, p.resized = cands, extras, resized
	p.sc.applyExtraTargets(st, resized, extras, false, "pollux")

	// Start pending jobs the GA selected.
	saved := st.Cause
	st.Cause = "pollux"
	defer func() { st.Cause = saved }()
	for _, d := range decisions {
		if running[d.ID] || d.Workers <= 0 {
			continue
		}
		j := byID[d.ID]
		if j.State != job.Pending {
			continue
		}
		if !p.sc.gang(st, j, place.Default(st.Cluster, j)) {
			continue
		}
		st.Start(j, p.sc.placed)
		j.Tuned = true
		if extra := d.Workers - j.MinWorkers; extra > 0 && j.Elastic {
			p.sc.scaleOut(st, j, extra, false)
		}
	}
	st.CompactPending()
}
