package sched

import (
	"lyra/internal/alloc"
	"lyra/internal/job"
	"lyra/internal/sim"
)

// FIFO is the Baseline scheduler (§7.1): jobs start in arrival order with
// their requested (base) demand when resources allow; no capacity loaning,
// no elastic scaling.
type FIFO struct {
	// Opportunistic switches to the Opportunistic comparison scheme,
	// where fungible jobs queue to the inference cluster (§7.1).
	Opportunistic bool
	sc            scratch
}

// Less implements sim.Scheduler.
func (f *FIFO) Less(a, b *job.Job) bool { return lessByArrival(a, b) }

// Memoryless implements sim.MemorylessScheduler.
func (f *FIFO) Memoryless() bool { return true }

// Schedule implements sim.Scheduler.
func (f *FIFO) Schedule(st *sim.State) {
	policy := defaultPoolPolicy
	if f.Opportunistic {
		policy = opportunisticPoolPolicy
	}
	f.sc.startBase(st, policy, false)
	f.sc.startBase(st, policy, true)
}

// Gandiva models Gandiva's opportunistic elasticity as described in §7.1:
// jobs are scheduled without runtime knowledge (arrival order); whenever
// the cluster is under-utilized — resources available but no pending jobs —
// elastic jobs grow to soak up the slack, and the growth is revoked as soon
// as new jobs are waiting.
type Gandiva struct{ sc scratch }

// Less implements sim.Scheduler.
func (g *Gandiva) Less(a, b *job.Job) bool { return lessByArrival(a, b) }

// Memoryless implements sim.MemorylessScheduler.
func (g *Gandiva) Memoryless() bool { return true }

// Schedule implements sim.Scheduler.
func (g *Gandiva) Schedule(st *sim.State) {
	// Opportunistic growth is revoked on demand inside startBase: waiting
	// base demands reclaim flexible workers directly.
	g.sc.startBase(st, defaultPoolPolicy, false)
	g.sc.startBase(st, defaultPoolPolicy, true)
	if len(st.Pending) > 0 {
		return // not under-utilized: no opportunistic scaling
	}
	// Round-robin one worker at a time across elastic jobs.
	saved := st.Cause
	st.Cause = "opportunistic"
	sp := st.Prof.Start("opportunistic")
	defer func() { sp.End(); st.Cause = saved }()
	grew := true
	for grew {
		grew = false
		for _, j := range st.RunningOrdered() {
			if !j.Elastic || j.FlexibleWorkers() >= j.FlexRange() {
				continue
			}
			if g.sc.scaleOut(st, j, 1, false) {
				grew = true
			}
		}
	}
}

// AFS models Elastic Resource Sharing as adapted in §7.1: every job gets
// its base demand first (in arrival order), then one worker at a time goes
// to the job with the largest marginal throughput gain per GPU.
type AFS struct {
	// cache memoizes per-job marginal-gain inputs (alloc.ThroughputCache:
	// pure memoization, bit-identical decisions, per-instance) and holds
	// alloc.AFS's candidates and the targets it returns.
	cache *alloc.ThroughputCache
	sc    scratch
}

// Less implements sim.Scheduler.
func (a *AFS) Less(x, y *job.Job) bool { return lessByArrival(x, y) }

// Memoryless implements sim.MemorylessScheduler.
func (a *AFS) Memoryless() bool { return true }

// Schedule implements sim.Scheduler.
func (a *AFS) Schedule(st *sim.State) {
	a.sc.startBase(st, defaultPoolPolicy, false)
	a.sc.startBase(st, defaultPoolPolicy, true)
	// ID order, not map order: candidate order decides who wins marginal-
	// gain ties, which must not vary run to run. Both the candidate set
	// and the flexible-GPU count are maintained views.
	cands := st.ElasticOrdered()
	if len(cands) == 0 {
		return
	}
	flexGPUs := st.FlexNominalGPUs()
	freeT, freeL := st.FreeSchedulableGPUs()
	if a.cache == nil {
		a.cache = alloc.NewThroughputCache(st.Scaling)
	}
	sp := st.Prof.Start("afs.alloc")
	targets := alloc.AFS(cands, freeT+freeL+flexGPUs, st.Scaling, a.cache)
	sp.End()
	sp = st.Prof.Start("afs.apply")
	a.sc.applyExtraTargets(st, cands, targets, false, "afs")
	sp.End()
}

// applyExtraTargets resizes elastic jobs to the given extra-worker targets:
// scale-ins first (freeing GPUs), then scale-outs, placing what fits. cause
// names the deciding scheduler on the emitted scale events. cands and
// targets are both ascending by ID (State.ElasticOrdered is, and
// alloc.Phase2, alloc.AFS and alloc.Pollux emit in job-ID order), so each
// pass is a merge walk; a candidate without a target gets zero.
func (sc *scratch) applyExtraTargets(st *sim.State, cands []*job.Job, targets []alloc.Extra, naive bool, cause string) {
	saved := st.Cause
	st.Cause = cause
	defer func() { st.Cause = saved }()
	k := 0
	for _, j := range cands {
		if cur, want := j.FlexibleWorkers(), extraFor(targets, &k, j.ID); cur > want {
			st.RemoveFlexibleWorkers(j, cur-want)
		}
	}
	k = 0
	for _, j := range cands {
		if want := extraFor(targets, &k, j.ID) - j.FlexibleWorkers(); want > 0 {
			sc.scaleOut(st, j, want, naive)
		}
	}
}

// extraFor advances the merge cursor k over the ID-ascending targets to job
// id and returns that job's target, zero when it has none.
func extraFor(targets []alloc.Extra, k *int, id int) int {
	for *k < len(targets) && targets[*k].ID < id {
		*k++
	}
	if *k < len(targets) && targets[*k].ID == id {
		return targets[*k].Extra
	}
	return 0
}
