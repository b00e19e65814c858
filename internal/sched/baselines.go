package sched

import (
	"lyra/internal/alloc"
	"lyra/internal/job"
	"lyra/internal/place"
	"lyra/internal/sim"
)

// FIFO is the Baseline scheduler (§7.1): jobs start in arrival order with
// their requested (base) demand when resources allow; no capacity loaning,
// no elastic scaling.
type FIFO struct {
	// Opportunistic switches to the Opportunistic comparison scheme,
	// where fungible jobs queue to the inference cluster (§7.1).
	Opportunistic bool
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
	startBase(st, policy, false)
	startBase(st, policy, true)
}

// Gandiva models Gandiva's opportunistic elasticity as described in §7.1:
// jobs are scheduled without runtime knowledge (arrival order); whenever
// the cluster is under-utilized — resources available but no pending jobs —
// elastic jobs grow to soak up the slack, and the growth is revoked as soon
// as new jobs are waiting.
type Gandiva struct{}

// Less implements sim.Scheduler.
func (g *Gandiva) Less(a, b *job.Job) bool { return lessByArrival(a, b) }

// Memoryless implements sim.MemorylessScheduler.
func (g *Gandiva) Memoryless() bool { return true }

// Schedule implements sim.Scheduler.
func (g *Gandiva) Schedule(st *sim.State) {
	// Opportunistic growth is revoked on demand inside startBase: waiting
	// base demands reclaim flexible workers directly.
	startBase(st, defaultPoolPolicy, false)
	startBase(st, defaultPoolPolicy, true)
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
			if ws := place.UpTo(st.Cluster, j, 1, scaleOutOpts(st, j, false)); len(ws) > 0 {
				st.AddWorkers(j, ws)
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
	// pure memoization, bit-identical decisions, per-instance).
	cache *alloc.ThroughputCache
}

// Less implements sim.Scheduler.
func (a *AFS) Less(x, y *job.Job) bool { return lessByArrival(x, y) }

// Memoryless implements sim.MemorylessScheduler.
func (a *AFS) Memoryless() bool { return true }

// Schedule implements sim.Scheduler.
func (a *AFS) Schedule(st *sim.State) {
	startBase(st, defaultPoolPolicy, false)
	startBase(st, defaultPoolPolicy, true)
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
	applyExtraTargets(st, cands, targets, false, "afs", nil)
	sp.End()
}

// applyExtraTargets resizes elastic jobs to the given extra-worker targets:
// scale-ins first (freeing GPUs), then scale-outs, placing what fits. cause
// names the deciding scheduler on the emitted scale events; target is the
// caller's reusable scratch map (nil allocates one).
func applyExtraTargets(st *sim.State, cands []*job.Job, targets []alloc.Extra, naive bool, cause string, target map[int]int) {
	saved := st.Cause
	st.Cause = cause
	defer func() { st.Cause = saved }()
	if target == nil {
		target = make(map[int]int, len(targets))
	} else {
		clear(target)
	}
	for _, e := range targets {
		target[e.ID] = e.Extra
	}
	for _, j := range cands {
		if cur := j.FlexibleWorkers(); cur > target[j.ID] {
			st.RemoveFlexibleWorkers(j, cur-target[j.ID])
		}
	}
	for _, j := range cands {
		want := target[j.ID] - j.FlexibleWorkers()
		if want <= 0 {
			continue
		}
		if ws := place.UpTo(st.Cluster, j, want, scaleOutOpts(st, j, naive)); len(ws) > 0 {
			st.AddWorkers(j, ws)
		}
	}
}
